open Mdsp_util

(* One fused cluster: constraints coupled through shared atoms, solved
   together by Gauss-Seidel iteration. Member constraints keep their
   topology order, so a per-cluster sweep performs exactly the updates the
   old global sweep performed on those atoms (a converged constraint writes
   nothing, and clusters are atom-disjoint), making the batched solver
   bitwise identical to the historical serial one. *)
type cluster = {
  k_pairs : (int * int * float) array;
  k_first : int; (* smallest member constraint index, for diagnostics *)
}

type t = {
  pairs : (int * int * float) array; (* all constraints, topology order *)
  clusters : cluster array;
  batches : int array array; (* color -> cluster ids, ascending *)
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
  let tcls = Mdsp_ff.Topology.constraint_clusters topo in
  let clusters =
    Array.map
      (fun (tc : Mdsp_ff.Topology.cluster) ->
        {
          k_pairs = Array.map (fun k -> pairs.(k)) tc.cl_constraints;
          k_first =
            (if Array.length tc.cl_constraints = 0 then 0
             else tc.cl_constraints.(0));
        })
      tcls
  in
  (* Color the interference graph so same-batch clusters never share an
     atom; fused clusters are already disjoint (one color), but the solver
     trusts the coloring, not the fusion. *)
  let adj = Mdsp_ff.Topology.cluster_adjacency tcls in
  let colors = Coloring.dsatur ~n:(Array.length clusters) ~adj in
  let batches = Coloring.classes colors in
  { pairs; clusters; batches; tol; max_iter }

let none =
  { pairs = [||]; clusters = [||]; batches = [||]; tol = 1e-8; max_iter = 1 }

let count t = Array.length t.pairs
let n_clusters t = Array.length t.clusters
let n_batches t = Array.length t.batches

let max_cluster_size t =
  Array.fold_left
    (fun acc c -> max acc (Array.length c.k_pairs))
    0 t.clusters

let cluster_violation box positions (c : cluster) =
  Array.fold_left
    (fun acc (i, j, d) ->
      let d2 = d *. d in
      let r2 = Pbc.dist2 box positions.(i) positions.(j) in
      Float.max acc (abs_float (r2 -. d2) /. d2))
    0. c.k_pairs

let shake_cluster t box ~prev positions ~masses cid =
  let c = t.clusters.(cid) in
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
      c.k_pairs;
    incr iter
  done;
  if not !converged then
    raise
      (Unconverged
         {
           uc_solver = "SHAKE";
           uc_cluster = cid;
           uc_first_constraint = c.k_first;
           uc_iters = !iter;
           uc_max_violation = cluster_violation box positions c;
         })

let rattle_cluster t box positions velocities ~masses cid =
  let c = t.clusters.(cid) in
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
      c.k_pairs;
    incr iter
  done;
  if not !converged then
    raise
      (Unconverged
         {
           uc_solver = "RATTLE";
           uc_cluster = cid;
           uc_first_constraint = c.k_first;
           uc_iters = !iter;
           uc_max_violation = cluster_violation box positions c;
         })

(* Batch-by-batch sweep: clusters within one batch are atom-disjoint (the
   Schedule certificate), so a batch tiles freely over the pool; the
   barrier between batches orders the (potentially conflicting) colors.
   Cluster footprints are scattered atom sets, not contiguous ranges, so
   the sanitizer declarations cover cluster-index tiles under the cons.*
   labels — the atom-level disjointness inside a batch is the statically
   certified part. *)
let sweep_batches ~exec ~phase t ~read_label ~rw_label body =
  let reads = [ read_label; rw_label ] and writes = [ rw_label ] in
  Array.iter
    (fun batch ->
      Exec.sweep ~phase ~reads ~writes exec ~total:(Array.length batch)
        (fun _ lo hi ->
          for k = lo to hi - 1 do
            body batch.(k)
          done))
    t.batches

let shake ?(exec = Exec.serial) t box ~prev positions ~masses =
  if Array.length t.pairs > 0 then
    sweep_batches ~exec ~phase:"constraints.shake" t ~read_label:"cons.prev"
      ~rw_label:"cons.pos"
      (shake_cluster t box ~prev positions ~masses)

let rattle ?(exec = Exec.serial) t box positions velocities ~masses =
  if Array.length t.pairs > 0 then
    sweep_batches ~exec ~phase:"constraints.rattle" t ~read_label:"cons.pos"
      ~rw_label:"cons.vel"
      (rattle_cluster t box positions velocities ~masses)

let max_violation t box positions =
  Array.fold_left
    (fun acc (i, j, d) ->
      let d2 = d *. d in
      let r2 = Pbc.dist2 box positions.(i) positions.(j) in
      Float.max acc (abs_float (r2 -. d2) /. d2))
    0. t.pairs
