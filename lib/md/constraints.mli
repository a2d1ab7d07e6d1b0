(** Holonomic distance constraints: SHAKE (positions) and RATTLE
    (velocities).

    Constraints come from the topology (rigid waters, fixed X–H bonds),
    fused into atom-disjoint clusters
    ({!Mdsp_ff.Topology.constraint_clusters}). That cluster list is the one
    constraint schedule: {!shake} and {!rattle} sweep it in one
    {!Mdsp_util.Exec.sweep}, and the {!Mdsp_verify.Schedule} certifier
    proves the very list {!clusters} returns race-free. Each cluster is
    solved by Gauss–Seidel iteration to its own convergence; clusters share
    no atoms, so the list tiles over the pool and the parallel sweep is
    bitwise identical to the serial one.

    {!create} flattens the clusters into index and length columns in sweep
    order. A solver call copies each cluster's coordinates into a float
    scratch (one per tile of the sweep), iterates there on unboxed floats
    with the expressions of the per-atom boxed solver in its order, and
    writes each atom of the cluster back once, as a fresh vector, when
    anything in the cluster moved. So a call allocates 4 words per
    written-back atom plus a fixed overhead (the sweep's closures and one
    scratch per tile), and leaves the bits the boxed solver left, including
    when it raises. *)

open Mdsp_util

type t

(** [create topo ~tol ~max_iter] prepares the constraint solver: the
    topology's constraints fused into clusters. [tol] is the relative
    tolerance on squared distances (default 1e-8); [max_iter] defaults to
    200. *)
val create : ?tol:float -> ?max_iter:int -> Mdsp_ff.Topology.t -> t

(** No constraints at all (cheap no-op solver). *)
val none : t

val count : t -> int

(** The clusters in sweep order (cluster id = index), with their atom
    footprints — the list {!shake} and {!rattle} tile over the pool. *)
val clusters : t -> Mdsp_ff.Topology.cluster array

(** Carried by {!Unconverged}: which cluster failed, after how many
    iterations, and how badly its constraints are still violated. *)
type unconverged = {
  uc_solver : string;  (** ["SHAKE"] or ["RATTLE"] *)
  uc_cluster : int;  (** cluster id, topology order *)
  uc_first_constraint : int;  (** smallest constraint index in the cluster *)
  uc_iters : int;
  uc_max_violation : float;  (** max |r² − d²| / d² over the cluster *)
}

(** Raised when a cluster's iteration fails to converge within [max_iter].
    A cluster with a NaN coordinate (SHAKE) or velocity (RATTLE) never
    converges, so it ends here too instead of integrating on. Structured so the engine and CLI can report the offending cluster with
    workload context instead of a bare message. *)
exception Unconverged of unconverged

(** One-line rendering of an {!unconverged} payload (also registered as the
    exception printer). *)
val unconverged_message : unconverged -> string

(** [shake t box ~prev positions] adjusts [positions] so all constraints
    hold, applying displacements inversely weighted by mass along the
    constraint direction of the *previous* (pre-step) geometry [prev].
    [prev] must be a different array from [positions]: it is read while
    the moved coordinates are still in the scratch. Raises
    [Invalid_argument] when it is the same array.
    [exec] (default serial) tiles the cluster list over the pool with
    {!Mdsp_util.Exec.sweep} — bitwise identical at any slot count, with
    declared [cons.prev]/[cons.pos] read/write sets under phase
    ["constraints.shake"]. Raises {!Unconverged} if a cluster does not
    converge. *)
val shake :
  ?exec:Exec.t ->
  t ->
  Pbc.t ->
  prev:Vec3.t array ->
  Vec3.t array ->
  masses:float array ->
  unit

(** [rattle t box positions velocities] projects velocity components along
    the constraint directions out of [velocities]; phase
    ["constraints.rattle"], reads [cons.pos], read-modify-writes
    [cons.vel]. *)
val rattle :
  ?exec:Exec.t ->
  t ->
  Pbc.t ->
  Vec3.t array ->
  Vec3.t array ->
  masses:float array ->
  unit

(** Maximum relative violation max |r^2 - d^2| / d^2 over constraints. *)
val max_violation : t -> Pbc.t -> Vec3.t array -> float
