open Mdsp_util
module Cell_list = Mdsp_space.Cell_list

type t = { box : Pbc.t; px : int; py : int; pz : int; cutoff : float }

let create box ~nodes:(px, py, pz) ~cutoff =
  if px <= 0 || py <= 0 || pz <= 0 then
    invalid_arg "Decomp.create: node dims must be positive";
  if cutoff <= 0. then invalid_arg "Decomp.create: cutoff must be positive";
  { box; px; py; pz; cutoff }

let dims t = (t.px, t.py, t.pz)
let node_count t = t.px * t.py * t.pz
let torus t = Torus.create (dims t)

let edges t =
  let open Pbc in
  ( t.box.lx /. float_of_int t.px,
    t.box.ly /. float_of_int t.py,
    t.box.lz /. float_of_int t.pz )

let coords t (v : Vec3.t) =
  let f = Pbc.to_fractional t.box v in
  let clamp hi x = if x >= hi then hi - 1 else if x < 0 then 0 else x in
  let cx = clamp t.px (int_of_float (f.Vec3.x *. float_of_int t.px)) in
  let cy = clamp t.py (int_of_float (f.Vec3.y *. float_of_int t.py)) in
  let cz = clamp t.pz (int_of_float (f.Vec3.z *. float_of_int t.pz)) in
  (cx, cy, cz)

let owner t v =
  let cx, cy, cz = coords t v in
  cx + (t.px * (cy + (t.py * cz)))

let pair_owner t a b =
  let d = Pbc.min_image t.box a b in
  owner t (Pbc.wrap t.box (Vec3.add b (Vec3.scale 0.5 d)))

(* Distance from coordinate [x] to the interval [lo, lo + len] on a ring of
   period [l]. *)
let axis_dist lo len l x =
  let d1 = x -. (lo +. len) and d2 = lo -. x in
  if x >= lo && x <= lo +. len then 0.
  else
    let d = Float.min (abs_float d1) (abs_float d2) in
    Float.min d (l -. Float.max (abs_float d1) (abs_float d2))

let wrap v n = ((v mod n) + n) mod n

(* Ranks on which a (wrapped) position is resident: its owner plus every
   node whose home box lies within cutoff/2. The epsilon pad keeps pairs at
   exactly the cutoff resident despite rounding in the box-distance test;
   it can only enlarge the import region (sound for the residency
   invariant, negligible for traffic). Offsets are clamped so each torus
   node is visited at most once even when the import reach wraps around a
   short axis. *)
let resident_nodes t (p : Vec3.t) own =
  let hx, hy, hz = edges t in
  let rr = (t.cutoff /. 2.) +. 1e-9 in
  let rr2 = rr *. rr in
  let reach len = 1 + int_of_float (ceil (rr /. len)) in
  let lo_off r dim = -min r (dim / 2) and hi_off r dim = min r ((dim - 1) / 2) in
  let f = Pbc.wrap t.box p in
  let cx, cy, cz = coords t f in
  let rx = reach hx and ry = reach hy and rz = reach hz in
  let acc = ref [] in
  for dz = lo_off rz t.pz to hi_off rz t.pz do
    for dy = lo_off ry t.py to hi_off ry t.py do
      for dx = lo_off rx t.px to hi_off rx t.px do
        let nx = wrap (cx + dx) t.px
        and ny = wrap (cy + dy) t.py
        and nz = wrap (cz + dz) t.pz in
        let node = nx + (t.px * (ny + (t.py * nz))) in
        if node <> own then begin
          let ddx = axis_dist (float_of_int nx *. hx) hx t.box.Pbc.lx f.Vec3.x in
          let ddy = axis_dist (float_of_int ny *. hy) hy t.box.Pbc.ly f.Vec3.y in
          let ddz = axis_dist (float_of_int nz *. hz) hz t.box.Pbc.lz f.Vec3.z in
          if (ddx *. ddx) +. (ddy *. ddy) +. (ddz *. ddz) <= rr2 then
            acc := node :: !acc
        end
      done
    done
  done;
  Array.of_list (own :: List.rev !acc)

type stats = {
  nodes : int * int * int;
  n_atoms : int;
  owner_of_atom : int array;
  home_atoms : int array;
  import_atoms : int array;
  pairs_per_node : int array;
  imports : (int * int * int) array;
  n_pairs : int;
  singlenode_pairs : int;
  residency_violations : int;
  pair_once_ok : bool;
}

let mem v (a : int array) =
  let n = Array.length a in
  let rec go i = i < n && (a.(i) = v || go (i + 1)) in
  go 0

(* Fixed tile count for the pair-assignment phase, independent of the pool
   width (same idiom as the neighbor-list rebuild): slots own contiguous
   tile runs, and per-slot partials merge by integer addition, so the
   result is identical at any slot count. *)
let pair_tiles = 64

let analyze ?(exec = Exec.serial) t positions =
  (* The midpoint rule needs every pair's minimum image to be unique. *)
  if t.cutoff > Pbc.min_edge t.box /. 2. then
    invalid_arg "Decomp.analyze: cutoff must be <= half the shortest box edge";
  let n = Array.length positions in
  let nn = node_count t in
  let wp = Array.map (Pbc.wrap t.box) positions in
  let slots = Exec.n_slots exec in
  (* Phase 1: home owners (pure per atom). *)
  let owner_of_atom = Array.make n 0 in
  Exec.sweep ~phase:"decomp.owner" ~reads:[ "decomp.positions" ]
    ~writes:[ "decomp.owner" ] exec ~total:n (fun _ lo hi ->
      for i = lo to hi - 1 do
        owner_of_atom.(i) <- owner t wp.(i)
      done);
  (* Phase 2: resident sets (pure per atom). *)
  let atom_nodes = Array.make n [||] in
  Exec.sweep ~phase:"decomp.resident"
    ~reads:[ "decomp.positions"; "decomp.owner" ]
    ~writes:[ "decomp.resident" ] exec ~total:n (fun _ lo hi ->
      for i = lo to hi - 1 do
        atom_nodes.(i) <- resident_nodes t wp.(i) owner_of_atom.(i)
      done);
  (* Serial aggregation of residency into per-node and per-edge counts. *)
  let home_atoms = Array.make nn 0 in
  Array.iter (fun o -> home_atoms.(o) <- home_atoms.(o) + 1) owner_of_atom;
  let import_atoms = Array.make nn 0 in
  let imports_tbl = Hashtbl.create 256 in
  for i = 0 to n - 1 do
    let own = owner_of_atom.(i) in
    Array.iter
      (fun v ->
        if v <> own then begin
          import_atoms.(v) <- import_atoms.(v) + 1;
          let key = (v, own) in
          let c = Option.value ~default:0 (Hashtbl.find_opt imports_tbl key) in
          Hashtbl.replace imports_tbl key (c + 1)
        end)
      atom_nodes.(i)
  done;
  let imports =
    Hashtbl.fold (fun (d, s) c acc -> (d, s, c) :: acc) imports_tbl []
    |> List.sort compare |> Array.of_list
  in
  (* Phase 3: midpoint pair assignment over the cell list's tiling units
     (the build itself is the sanitized "cell.bin" phase). *)
  let cell =
    Cell_list.build ~exec ~positions_resource:"decomp.positions" t.box wp
      ~cutoff:t.cutoff
  in
  let units = Cell_list.tile_units cell in
  let unit_tiles = Exec.tile_bounds ~total:units ~ntiles:pair_tiles in
  let counts = Array.init slots (fun _ -> Array.make nn 0) in
  let viol = Array.make slots 0 in
  (* The pair scan walks the whole cell structure, both endpoints of
     arbitrary pairs and every atom's resident set. [iter_within] keeps the
     pairs with [Pbc.dist2 <= cutoff²] on the wrapped copy's bits. *)
  Exec.sweep ~phase:"decomp.pairs" ~writes:[ "decomp.pairs" ]
    ~whole:
      [ ("cell.bin", n); ("decomp.positions", n); ("decomp.resident", n) ]
    exec ~total:pair_tiles (fun s tlo thi ->
      let c = counts.(s) in
      for tile = tlo to thi - 1 do
        let ulo, uhi = unit_tiles.(tile) in
        Cell_list.iter_within cell ulo uhi (fun i j ->
            let v = pair_owner t wp.(i) wp.(j) in
            c.(v) <- c.(v) + 1;
            if not (mem v atom_nodes.(i) && mem v atom_nodes.(j)) then
              viol.(s) <- viol.(s) + 1)
      done);
  let pairs_per_node = Array.make nn 0 in
  for s = 0 to slots - 1 do
    let c = counts.(s) in
    for v = 0 to nn - 1 do
      pairs_per_node.(v) <- pairs_per_node.(v) + c.(v)
    done
  done;
  let n_pairs = Array.fold_left ( + ) 0 pairs_per_node in
  let residency_violations = Array.fold_left ( + ) 0 viol in
  (* Independent serial recount of interacting pairs on the calling
     domain: the single-node reference the assignment must reproduce. *)
  let singlenode_pairs = ref 0 in
  Cell_list.iter_within cell 0 units (fun _ _ -> incr singlenode_pairs);
  let singlenode_pairs = !singlenode_pairs in
  {
    nodes = dims t;
    n_atoms = n;
    owner_of_atom;
    home_atoms;
    import_atoms;
    pairs_per_node;
    imports;
    n_pairs;
    singlenode_pairs;
    residency_violations;
    pair_once_ok = n_pairs = singlenode_pairs && residency_violations = 0;
  }

let max_pairs_per_node stats = Array.fold_left max 0 stats.pairs_per_node

let brute_pairs t positions =
  let n = Array.length positions in
  let r2 = t.cutoff *. t.cutoff in
  let c = ref 0 in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      if Pbc.dist2 t.box positions.(i) positions.(j) <= r2 then incr c
    done
  done;
  !c

(* --- analytic import model (performance model and the A5 ablation) --- *)

type policy = Full_shell | Half_shell | Midpoint

let assign t positions =
  let buckets = Array.make (node_count t) [] in
  Array.iteri
    (fun i p ->
      let o = owner t p in
      buckets.(o) <- i :: buckets.(o))
    positions;
  Array.map (fun l -> Array.of_list (List.rev l)) buckets

let home_volume t = Pbc.volume t.box /. float_of_int (node_count t)

(* Volume of the region within r of a box of dims (hx,hy,hz), minus the
   box itself: faces + quarter-cylinder edges + eighth-sphere corners. *)
let shell_volume (hx, hy, hz) r =
  let faces = 2. *. r *. ((hx *. hy) +. (hy *. hz) +. (hx *. hz)) in
  let edges_v = Float.pi *. r *. r *. (hx +. hy +. hz) in
  let corners = 4. /. 3. *. Float.pi *. (r ** 3.) in
  faces +. edges_v +. corners

let import_volume t ~policy =
  let e = edges t in
  match policy with
  | Full_shell -> shell_volume e t.cutoff
  | Half_shell -> shell_volume e t.cutoff /. 2.
  | Midpoint ->
      (* Neutral-territory: a pair is computed where its midpoint lives,
         so a node needs only the atoms within cutoff/2 of its home box —
         a full shell of half the depth. *)
      shell_volume e (t.cutoff /. 2.)

let import_counts t ~policy positions =
  let counts = Array.make (node_count t) 0 in
  let hx, hy, hz = edges t in
  let r =
    match policy with
    | Midpoint -> t.cutoff /. 2.
    | Full_shell | Half_shell -> t.cutoff
  in
  (* For each particle, find all nodes whose home box it is within r of
     (other than its owner); those nodes import it. Under Half_shell each
     node imports only from its positive half-space neighborhood, halving
     the count on average; we model that by counting ordered imports and
     halving for Half_shell. Unlike [resident_nodes], the offsets are not
     clamped, so a node reached twice around a short ring counts twice. *)
  let reach_x = 1 + int_of_float (ceil (r /. hx)) in
  let reach_y = 1 + int_of_float (ceil (r /. hy)) in
  let reach_z = 1 + int_of_float (ceil (r /. hz)) in
  (* Distance to home box [k] of edge [len] along one axis. *)
  let dist k len l x = axis_dist (float_of_int k *. len) len l x in
  Array.iter
    (fun p ->
      let own = owner t p in
      let cx, cy, cz = coords t p in
      let f = Pbc.wrap t.box p in
      for dz = -reach_z to reach_z do
        for dy = -reach_y to reach_y do
          for dx = -reach_x to reach_x do
            if not (dx = 0 && dy = 0 && dz = 0) then begin
              let nx = wrap (cx + dx) t.px
              and ny = wrap (cy + dy) t.py
              and nz = wrap (cz + dz) t.pz in
              let node = nx + (t.px * (ny + (t.py * nz))) in
              if node <> own then begin
                (* Distance from p to the neighbor's home box (min-image). *)
                let ddx = dist nx hx t.box.Pbc.lx f.Vec3.x in
                let ddy = dist ny hy t.box.Pbc.ly f.Vec3.y in
                let ddz = dist nz hz t.box.Pbc.lz f.Vec3.z in
                if (ddx *. ddx) +. (ddy *. ddy) +. (ddz *. ddz) <= r *. r then
                  counts.(node) <- counts.(node) + 1
              end
            end
          done
        done
      done)
    positions;
  match policy with
  | Full_shell | Midpoint -> counts
  | Half_shell -> Array.map (fun c -> (c + 1) / 2) counts
