open Mdsp_util

type t = {
  cutoff : float;
  skin : float;
  exclusions : Exclusions.t option;
  exec : Exec.t;
  mutable box : Pbc.t;
  mutable ref_positions : Vec3.t array; (* snapshot at last rebuild *)
  mutable is : int array;
  mutable js : int array;
  mutable npairs : int;
  mutable rebuilds : int;
}

(* The pair generation is cut into a fixed number of tiles — contiguous
   ranges of Cell_list tiling units — chosen independently of the executor
   width. Each tile fills its own buffer; buffers are concatenated in tile
   order. The resulting pair list is therefore a pure function of the
   positions: bitwise identical whether the build ran serial or on 1, 2 or
   4 pool slots (slots just own contiguous tile ranges). *)
let max_build_tiles = 64

(* One tile's growable pair buffer. *)
type buf = { mutable bi : int array; mutable bj : int array; mutable cnt : int }

let buf_push b i j =
  let cap = Array.length b.bi in
  if b.cnt >= cap then begin
    let cap' = max 64 (cap * 2) in
    let bi' = Array.make cap' 0 and bj' = Array.make cap' 0 in
    Array.blit b.bi 0 bi' 0 b.cnt;
    Array.blit b.bj 0 bj' 0 b.cnt;
    b.bi <- bi';
    b.bj <- bj'
  end;
  b.bi.(b.cnt) <- (if i < j then i else j);
  b.bj.(b.cnt) <- (if i < j then j else i);
  b.cnt <- b.cnt + 1

let do_build t positions =
  let r = t.cutoff +. t.skin in
  let r2 = r *. r in
  let exec = t.exec in
  let cl = Cell_list.build ~exec t.box positions ~cutoff:r in
  let units = Cell_list.tile_units cl in
  let ntiles = max 1 (min units max_build_tiles) in
  let tile_ranges = Cell_list.tile_bounds cl ~ntiles in
  let lx = t.box.Pbc.lx and ly = t.box.Pbc.ly and lz = t.box.Pbc.lz in
  let bufs =
    Array.init ntiles (fun _ -> { bi = [||]; bj = [||]; cnt = 0 })
  in
  let n = Array.length positions in
  (* Each slot owns a contiguous run of tile buffers. The pair scan walks
     the whole CSR cell structure and, through it, arbitrary positions. *)
  Exec.sweep ~phase:"nbuild" ~writes:[ "nlist.tiles" ]
    ~whole:[ ("cell.bin", n); ("state.positions", n) ]
    exec ~total:ntiles (fun _ tlo thi ->
      for tile = tlo to thi - 1 do
        let b = bufs.(tile) in
        let lo, hi = tile_ranges.(tile) in
        Cell_list.iter_range_pairs cl lo hi (fun i j ->
            (* [Pbc.dist2], inlined on the fields so that no [Vec3] is
               allocated per candidate. *)
            let pi = positions.(i) and pj = positions.(j) in
            let dx0 = pi.Vec3.x -. pj.Vec3.x in
            let dy0 = pi.Vec3.y -. pj.Vec3.y in
            let dz0 = pi.Vec3.z -. pj.Vec3.z in
            let dx = dx0 -. (lx *. Float.round (dx0 /. lx)) in
            let dy = dy0 -. (ly *. Float.round (dy0 /. ly)) in
            let dz = dz0 -. (lz *. Float.round (dz0 /. lz)) in
            if (dx *. dx) +. (dy *. dy) +. (dz *. dz) <= r2 then begin
              let skip =
                match t.exclusions with
                | Some ex -> Exclusions.excluded ex i j
                | None -> false
              in
              if not skip then buf_push b i j
            end)
      done);
  (* Concatenate in tile order (serial: a handful of blits). *)
  let total = Array.fold_left (fun a b -> a + b.cnt) 0 bufs in
  if Array.length t.is < total then begin
    let cap = max 64 total in
    t.is <- Array.make cap 0;
    t.js <- Array.make cap 0
  end;
  let off = ref 0 in
  Array.iter
    (fun b ->
      Array.blit b.bi 0 t.is !off b.cnt;
      Array.blit b.bj 0 t.js !off b.cnt;
      off := !off + b.cnt)
    bufs;
  t.npairs <- total;
  t.ref_positions <- Array.copy positions;
  t.rebuilds <- t.rebuilds + 1

let create ?exclusions ?(exec = Exec.serial) ~cutoff ~skin box positions =
  if cutoff <= 0. then invalid_arg "Neighbor_list.create: cutoff";
  if skin < 0. then invalid_arg "Neighbor_list.create: skin";
  let t =
    {
      cutoff;
      skin;
      exclusions;
      exec;
      box;
      ref_positions = [||];
      is = [||];
      js = [||];
      npairs = 0;
      rebuilds = -1;
    }
  in
  do_build t positions;
  t

let pairs t = Array.init t.npairs (fun k -> (t.is.(k), t.js.(k)))
let length t = t.npairs
let raw_pairs t = (t.is, t.js)

let iter t f =
  for k = 0 to t.npairs - 1 do
    f t.is.(k) t.js.(k)
  done

let tiles t ~ntiles = Exec.tile_bounds ~total:t.npairs ~ntiles

let iter_range t lo hi f =
  if lo < 0 || hi > t.npairs || lo > hi then
    invalid_arg "Neighbor_list.iter_range";
  for k = lo to hi - 1 do
    f t.is.(k) t.js.(k)
  done

let needs_rebuild t positions =
  let limit2 = t.skin *. t.skin /. 4. in
  let n = Array.length positions in
  if n <> Array.length t.ref_positions then true
  else begin
    let moved = ref false in
    let i = ref 0 in
    while (not !moved) && !i < n do
      if Pbc.dist2 t.box positions.(!i) t.ref_positions.(!i) > limit2 then
        moved := true;
      incr i
    done;
    !moved
  end

let rebuild ?box t positions =
  (match box with Some b -> t.box <- b | None -> ());
  do_build t positions;
  t.rebuilds

let maybe_rebuild ?box t positions =
  let box_changed =
    match box with
    | Some b -> b <> t.box
    | None -> false
  in
  if box_changed || needs_rebuild t positions then begin
    ignore (rebuild ?box t positions);
    true
  end
  else false

let rebuild_count t = t.rebuilds
let ref_positions t = Array.copy t.ref_positions
let cutoff t = t.cutoff
let skin t = t.skin
let box t = t.box
