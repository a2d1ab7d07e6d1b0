open Mdsp_util

(* A fused cluster is a set of constraints coupled through shared atoms,
   solved together by Gauss-Seidel iteration. Member constraints keep
   their topology order, so a per-cluster sweep performs exactly the
   updates the old global sweep performed on those atoms (a converged
   constraint writes nothing, and clusters are atom-disjoint), making the
   tiled solver bitwise identical to the historical serial one.

   The clusters are flattened into columns in sweep order: cluster [c]'s
   constraints are entries [c_start.(c), c_start.(c + 1)) of [ci], [cj]
   and [cd], and [li], [lj] are their endpoints' slots in the cluster's
   [cl_atoms]. A solver copies one cluster's coordinates into a float
   scratch indexed by those slots, iterates on unboxed floats there, and
   writes each atom's record back once. *)
type t = {
  units : Mdsp_ff.Topology.cluster array; (* sweep order, atom footprints *)
  c_start : int array; (* per cluster, then the column length *)
  ci : int array;
  cj : int array;
  cd : float array;
  li : int array;
  lj : int array;
  max_atoms : int; (* the largest cluster's atom count *)
  tol : float;
  max_iter : int;
}

type unconverged = {
  uc_solver : string; (* "SHAKE" or "RATTLE" *)
  uc_cluster : int; (* cluster id (topology order) *)
  uc_first_constraint : int; (* smallest constraint index in the cluster *)
  uc_iters : int;
  uc_max_violation : float; (* max |r^2 - d^2| / d^2 over the cluster *)
}

exception Unconverged of unconverged

let unconverged_message u =
  Printf.sprintf
    "Constraints.%s: cluster %d (first constraint %d) did not converge \
     after %d iterations (max relative violation %.3e)"
    (String.lowercase_ascii u.uc_solver)
    u.uc_cluster u.uc_first_constraint u.uc_iters u.uc_max_violation

let () =
  Printexc.register_printer (function
    | Unconverged u -> Some (unconverged_message u)
    | _ -> None)

(* The index of [a] in the sorted atom list [atoms], which holds it. *)
let slot_of atoms a =
  let rec go lo hi =
    let mid = (lo + hi) / 2 in
    if atoms.(mid) = a then mid
    else if atoms.(mid) < a then go (mid + 1) hi
    else go lo (mid - 1)
  in
  go 0 (Array.length atoms - 1)

let create ?(tol = 1e-8) ?(max_iter = 200) (topo : Mdsp_ff.Topology.t) =
  let units = Mdsp_ff.Topology.constraint_clusters topo in
  let nu = Array.length units and nc = Array.length topo.constraints in
  let c_start = Array.make (nu + 1) nc in
  let ci = Array.make nc 0 and cj = Array.make nc 0 in
  let cd = Array.make nc 0. in
  let li = Array.make nc 0 and lj = Array.make nc 0 in
  let k = ref 0 and max_atoms = ref 0 in
  Array.iteri
    (fun c (u : Mdsp_ff.Topology.cluster) ->
      c_start.(c) <- !k;
      max_atoms := max !max_atoms (Array.length u.cl_atoms);
      Array.iter
        (fun m ->
          let con = topo.constraints.(m) in
          ci.(!k) <- con.ci;
          cj.(!k) <- con.cj;
          cd.(!k) <- con.dist;
          li.(!k) <- slot_of u.cl_atoms con.ci;
          lj.(!k) <- slot_of u.cl_atoms con.cj;
          incr k)
        u.cl_constraints)
    units;
  { units; c_start; ci; cj; cd; li; lj; max_atoms = !max_atoms; tol; max_iter }

let none =
  {
    units = [||];
    c_start = [| 0 |];
    ci = [||];
    cj = [||];
    cd = [||];
    li = [||];
    lj = [||];
    max_atoms = 0;
    tol = 1e-8;
    max_iter = 1;
  }

let count t = Array.length t.ci
let clusters t = t.units

(* Pbc's minimum image, bit for bit, so that it inlines here (see
   Soa_kernels): a call across the module boundary boxes its argument and
   result when cross-module inlining is off. *)
let[@inline] mi1 l d =
  let q = d /. l in
  if q > -0.5 && q < 0.5 then d +. 0.
  else if q >= 0.5 && q < 1.5 then d -. l
  else if q <= -0.5 && q > -1.5 then d +. l
  else d -. (l *. Float.round q)

(* max |r^2 - d^2| / d^2 over column entries [lo, hi). *)
let violation t box positions lo hi =
  let v = ref 0. in
  for k = lo to hi - 1 do
    let d = t.cd.(k) in
    let d2 = d *. d in
    let r2 = Pbc.dist2 box positions.(t.ci.(k)) positions.(t.cj.(k)) in
    v := Float.max !v (abs_float (r2 -. d2) /. d2)
  done;
  !v

let unconverged t box positions ~solver ~iters cid =
  Unconverged
    {
      uc_solver = solver;
      uc_cluster = cid;
      uc_first_constraint = t.units.(cid).Mdsp_ff.Topology.cl_constraints.(0);
      uc_iters = iters;
      uc_max_violation =
        violation t box positions t.c_start.(cid) t.c_start.(cid + 1);
    }

(* Copy the vectors of [atoms] into [s] as (x, y, z) triples. *)
let gather (v : Vec3.t array) atoms (s : float array) =
  for l = 0 to Array.length atoms - 1 do
    let p = v.(atoms.(l)) in
    s.(3 * l) <- p.Vec3.x;
    s.((3 * l) + 1) <- p.Vec3.y;
    s.((3 * l) + 2) <- p.Vec3.z
  done

(* Write the triples back, one record literal per atom: [Vec3.make] across
   the module boundary would box its three arguments. *)
let scatter (s : float array) atoms (v : Vec3.t array) =
  for l = 0 to Array.length atoms - 1 do
    v.(atoms.(l)) <-
      { Vec3.x = s.(3 * l); y = s.((3 * l) + 1); z = s.((3 * l) + 2) }
  done

(* Gauss-Seidel over cluster [c]'s constraints on the scratch copy [s] of
   its positions, the boxed solver's expressions in its order. The
   positions are written back before anything is raised, so the arrays
   hold what the per-atom updates would have left. *)
let shake_cluster t (box : Pbc.t) ~(prev : Vec3.t array) positions
    ~(masses : float array) s c =
  let lo = t.c_start.(c) and hi = t.c_start.(c + 1) in
  let atoms = t.units.(c).Mdsp_ff.Topology.cl_atoms in
  let lx = box.Pbc.lx and ly = box.Pbc.ly and lz = box.Pbc.lz in
  let tol = t.tol in
  gather positions atoms s;
  let iter = ref 0 and converged = ref false and moved = ref false in
  while (not !converged) && !iter < t.max_iter do
    converged := true;
    for k = lo to hi - 1 do
      let i = t.ci.(k) and j = t.cj.(k) in
      let a = 3 * t.li.(k) and b = 3 * t.lj.(k) in
      let d = t.cd.(k) in
      let d2 = d *. d in
      let rx = mi1 lx (s.(a) -. s.(b)) in
      let ry = mi1 ly (s.(a + 1) -. s.(b + 1)) in
      let rz = mi1 lz (s.(a + 2) -. s.(b + 2)) in
      let diff = (rx *. rx) +. (ry *. ry) +. (rz *. rz) -. d2 in
      (* Negated so that a NaN difference counts as unconverged. *)
      if not (abs_float diff <= tol *. d2) then begin
        converged := false;
        (* Displace along the pre-step bond direction (classic SHAKE). *)
        let pi = prev.(i) and pj = prev.(j) in
        let px = mi1 lx (pi.Vec3.x -. pj.Vec3.x) in
        let py = mi1 ly (pi.Vec3.y -. pj.Vec3.y) in
        let pz = mi1 lz (pi.Vec3.z -. pj.Vec3.z) in
        let inv_mi = 1. /. masses.(i) and inv_mj = 1. /. masses.(j) in
        let denom =
          2. *. (inv_mi +. inv_mj) *. ((rx *. px) +. (ry *. py) +. (rz *. pz))
        in
        if abs_float denom < 1e-12 then begin
          if !moved then scatter s atoms positions;
          failwith "Constraints.shake: degenerate constraint geometry"
        end;
        let g = diff /. denom in
        let gi = g *. inv_mi and gj = g *. inv_mj in
        s.(a) <- s.(a) -. (gi *. px);
        s.(a + 1) <- s.(a + 1) -. (gi *. py);
        s.(a + 2) <- s.(a + 2) -. (gi *. pz);
        s.(b) <- s.(b) +. (gj *. px);
        s.(b + 1) <- s.(b + 1) +. (gj *. py);
        s.(b + 2) <- s.(b + 2) +. (gj *. pz);
        moved := true
      end
    done;
    incr iter
  done;
  if !moved then scatter s atoms positions;
  if not !converged then
    raise (unconverged t box positions ~solver:"SHAKE" ~iters:!iter c)

(* The same on a scratch copy of the cluster's velocities; positions are
   only read. *)
let rattle_cluster t (box : Pbc.t) (positions : Vec3.t array) velocities
    ~(masses : float array) s c =
  let lo = t.c_start.(c) and hi = t.c_start.(c + 1) in
  let atoms = t.units.(c).Mdsp_ff.Topology.cl_atoms in
  let lx = box.Pbc.lx and ly = box.Pbc.ly and lz = box.Pbc.lz in
  let tol = t.tol in
  gather velocities atoms s;
  let iter = ref 0 and converged = ref false and moved = ref false in
  (* Velocity tolerance scaled by constraint length. *)
  while (not !converged) && !iter < t.max_iter do
    converged := true;
    for k = lo to hi - 1 do
      let i = t.ci.(k) and j = t.cj.(k) in
      let a = 3 * t.li.(k) and b = 3 * t.lj.(k) in
      let pi = positions.(i) and pj = positions.(j) in
      let rx = mi1 lx (pi.Vec3.x -. pj.Vec3.x) in
      let ry = mi1 ly (pi.Vec3.y -. pj.Vec3.y) in
      let rz = mi1 lz (pi.Vec3.z -. pj.Vec3.z) in
      let vx = s.(a) -. s.(b) in
      let vy = s.(a + 1) -. s.(b + 1) in
      let vz = s.(a + 2) -. s.(b + 2) in
      let rv = (rx *. vx) +. (ry *. vy) +. (rz *. vz) in
      let inv_mi = 1. /. masses.(i) and inv_mj = 1. /. masses.(j) in
      let d = t.cd.(k) in
      let d2 = d *. d in
      (* Negated, as in [shake_cluster]: NaN counts as unconverged. *)
      if not (abs_float rv <= tol *. d2 *. 10.) then begin
        converged := false;
        let g = rv /. (d2 *. (inv_mi +. inv_mj)) in
        let gi = g *. inv_mi and gj = g *. inv_mj in
        s.(a) <- s.(a) -. (gi *. rx);
        s.(a + 1) <- s.(a + 1) -. (gi *. ry);
        s.(a + 2) <- s.(a + 2) -. (gi *. rz);
        s.(b) <- s.(b) +. (gj *. rx);
        s.(b + 1) <- s.(b + 1) +. (gj *. ry);
        s.(b + 2) <- s.(b + 2) +. (gj *. rz);
        moved := true
      end
    done;
    incr iter
  done;
  if !moved then scatter s atoms velocities;
  if not !converged then
    raise (unconverged t box positions ~solver:"RATTLE" ~iters:!iter c)

(* One sweep over the cluster ids: fused clusters are atom-disjoint (the
   Schedule certificate re-derives this from their footprints), so the
   list tiles freely over the pool. Cluster footprints are scattered atom
   sets, not contiguous ranges, so the sanitizer declarations cover
   cluster-index tiles under the cons.* labels — the atom-level
   disjointness across tiles is the statically certified part. Each tile
   allocates the one scratch its clusters share. *)
let sweep_clusters ~exec ~phase t ~read_label ~rw_label body =
  Exec.sweep ~phase ~reads:[ read_label; rw_label ] ~writes:[ rw_label ] exec
    ~total:(Array.length t.units) (fun _ lo hi ->
      let s = Array.make (3 * t.max_atoms) 0. in
      for c = lo to hi - 1 do
        body s c
      done)

let shake ?(exec = Exec.serial) t box ~prev positions ~masses =
  if prev == positions then
    invalid_arg "Constraints.shake: prev is the positions array";
  if count t > 0 then
    sweep_clusters ~exec ~phase:"constraints.shake" t ~read_label:"cons.prev"
      ~rw_label:"cons.pos" (fun s c ->
        shake_cluster t box ~prev positions ~masses s c)

let rattle ?(exec = Exec.serial) t box positions velocities ~masses =
  if count t > 0 then
    sweep_clusters ~exec ~phase:"constraints.rattle" t ~read_label:"cons.pos"
      ~rw_label:"cons.vel" (fun s c ->
        rattle_cluster t box positions velocities ~masses s c)

let max_violation t box positions = violation t box positions 0 (count t)
