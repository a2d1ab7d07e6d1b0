open Mdsp_util

(* A fused cluster is a set of constraints coupled through shared atoms,
   solved together by Gauss-Seidel iteration. Member constraints keep
   their topology order, so a per-cluster sweep performs exactly the
   updates the old global sweep performed on those atoms (a converged
   constraint writes nothing, and clusters are atom-disjoint), making the
   tiled solver bitwise identical to the historical serial one. *)
type t = {
  pairs : (int * int * float) array; (* all constraints, topology order *)
  units : Mdsp_ff.Topology.cluster array; (* sweep order, atom footprints *)
  cluster_pairs : (int * int * float) array array; (* per unit, (i, j, d) *)
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

let create ?(tol = 1e-8) ?(max_iter = 200) (topo : Mdsp_ff.Topology.t) =
  let pairs =
    Array.map
      (fun (c : Mdsp_ff.Topology.constraint_) -> (c.ci, c.cj, c.dist))
      topo.constraints
  in
  let units = Mdsp_ff.Topology.constraint_clusters topo in
  let cluster_pairs =
    Array.map
      (fun (u : Mdsp_ff.Topology.cluster) ->
        Array.map (fun k -> pairs.(k)) u.cl_constraints)
      units
  in
  { pairs; units; cluster_pairs; tol; max_iter }

let none =
  { pairs = [||]; units = [||]; cluster_pairs = [||]; tol = 1e-8; max_iter = 1 }

let count t = Array.length t.pairs
let clusters t = t.units

let violation box positions pairs =
  Array.fold_left
    (fun acc (i, j, d) ->
      let d2 = d *. d in
      let r2 = Pbc.dist2 box positions.(i) positions.(j) in
      Float.max acc (abs_float (r2 -. d2) /. d2))
    0. pairs

let unconverged t box positions ~solver ~iters cid =
  Unconverged
    {
      uc_solver = solver;
      uc_cluster = cid;
      uc_first_constraint = t.units.(cid).Mdsp_ff.Topology.cl_constraints.(0);
      uc_iters = iters;
      uc_max_violation = violation box positions t.cluster_pairs.(cid);
    }

let shake_cluster t box ~prev positions ~masses cid =
  let pairs = t.cluster_pairs.(cid) in
  let iter = ref 0 in
  let converged = ref false in
  while (not !converged) && !iter < t.max_iter do
    converged := true;
    Array.iter
      (fun (i, j, d) ->
        let d2 = d *. d in
        let rij = Pbc.min_image box positions.(i) positions.(j) in
        let diff = Vec3.norm2 rij -. d2 in
        (* Negated so that a NaN difference counts as unconverged. *)
        if not (abs_float diff <= t.tol *. d2) then begin
          converged := false;
          (* Displace along the pre-step bond direction (classic SHAKE). *)
          let rij_prev = Pbc.min_image box prev.(i) prev.(j) in
          let inv_mi = 1. /. masses.(i) and inv_mj = 1. /. masses.(j) in
          let denom = 2. *. (inv_mi +. inv_mj) *. Vec3.dot rij rij_prev in
          if abs_float denom < 1e-12 then
            failwith "Constraints.shake: degenerate constraint geometry";
          let g = diff /. denom in
          positions.(i) <-
            Vec3.sub positions.(i) (Vec3.scale (g *. inv_mi) rij_prev);
          positions.(j) <-
            Vec3.add positions.(j) (Vec3.scale (g *. inv_mj) rij_prev)
        end)
      pairs;
    incr iter
  done;
  if not !converged then
    raise (unconverged t box positions ~solver:"SHAKE" ~iters:!iter cid)

let rattle_cluster t box positions velocities ~masses cid =
  let pairs = t.cluster_pairs.(cid) in
  let iter = ref 0 in
  let converged = ref false in
  (* Velocity tolerance scaled by constraint length. *)
  while (not !converged) && !iter < t.max_iter do
    converged := true;
    Array.iter
      (fun (i, j, d) ->
        let rij = Pbc.min_image box positions.(i) positions.(j) in
        let vij = Vec3.sub velocities.(i) velocities.(j) in
        let rv = Vec3.dot rij vij in
        let inv_mi = 1. /. masses.(i) and inv_mj = 1. /. masses.(j) in
        let d2 = d *. d in
        (* Negated, as in [shake_cluster]: NaN counts as unconverged. *)
        if not (abs_float rv <= t.tol *. d2 *. 10.) then begin
          converged := false;
          let k = rv /. (d2 *. (inv_mi +. inv_mj)) in
          velocities.(i) <-
            Vec3.sub velocities.(i) (Vec3.scale (k *. inv_mi) rij);
          velocities.(j) <-
            Vec3.add velocities.(j) (Vec3.scale (k *. inv_mj) rij)
        end)
      pairs;
    incr iter
  done;
  if not !converged then
    raise (unconverged t box positions ~solver:"RATTLE" ~iters:!iter cid)

(* One sweep over the cluster ids: fused clusters are atom-disjoint (the
   Schedule certificate re-derives this from their footprints), so the
   list tiles freely over the pool. Cluster footprints are scattered atom
   sets, not contiguous ranges, so the sanitizer declarations cover
   cluster-index tiles under the cons.* labels — the atom-level
   disjointness across tiles is the statically certified part. *)
let sweep_clusters ~exec ~phase t ~read_label ~rw_label body =
  Exec.sweep ~phase ~reads:[ read_label; rw_label ] ~writes:[ rw_label ] exec
    ~total:(Array.length t.units) (fun _ lo hi ->
      for k = lo to hi - 1 do
        body k
      done)

let shake ?(exec = Exec.serial) t box ~prev positions ~masses =
  if Array.length t.pairs > 0 then
    sweep_clusters ~exec ~phase:"constraints.shake" t ~read_label:"cons.prev"
      ~rw_label:"cons.pos"
      (shake_cluster t box ~prev positions ~masses)

let rattle ?(exec = Exec.serial) t box positions velocities ~masses =
  if Array.length t.pairs > 0 then
    sweep_clusters ~exec ~phase:"constraints.rattle" t ~read_label:"cons.pos"
      ~rw_label:"cons.vel"
      (rattle_cluster t box positions velocities ~masses)

let max_violation t box positions = violation box positions t.pairs
