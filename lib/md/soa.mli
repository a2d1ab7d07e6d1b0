(** Flat (structure-of-arrays) particle store for the hot path.

    The boxed {!State.t} ([Vec3.t array]) stays the checkpoint and ensemble
    representation; this module holds the same data as unboxed
    [(float, float64_elt, c_layout) Bigarray.Array1.t] columns, which the
    tiled 1-4 and pair kernels ({!Soa_kernels}) walk without allocating.
    Synchronization between the two domains is explicit — load at a phase
    entry, store at a phase exit — and {!of_state}/{!to_state} round-trip
    exactly (every copy is a plain float move, no arithmetic). *)

open Mdsp_util

(** 1-D unboxed float column. *)
type fa = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  x : fa;
  y : fa;
  z : fa;  (** positions *)
  vx : fa;
  vy : fa;
  vz : fa;  (** velocities *)
  fx : fa;
  fy : fa;
  fz : fa;  (** force accumulator *)
  masses : float array;
  mutable box : Pbc.t;
  mutable time : float;
}

(** [create ?box n] allocates zeroed columns for [n] particles. *)
val create : ?box:Pbc.t -> int -> t

(** A fresh zeroed column of length [n] — scratch for per-slot force
    accumulators that share a store's position columns. *)
val make_fa : int -> fa

val n : t -> int

(** Zero the force columns. *)
val clear_forces : t -> unit

(** [sync_load ?exec ?forces t positions] copies boxed positions into the
    flat columns and seeds the force columns — the phase-entry sync. With
    [forces] the columns get a copy of it (the bonded forces the flat 1-4
    and pair phases accumulate on top of); without, zeros. It runs as the
    {!Exec.sweep} phase ["soa.load"] (reads ["state.positions"], and
    ["state.forces"] when [forces] is given; writes ["soa.positions"] and
    ["soa.forces"]; tiled over atoms); every copy is a plain float move,
    so the result is the same at any slot count. Raises [Invalid_argument]
    if [positions] or [forces] is not [n t] long. *)
val sync_load :
  ?exec:Exec.t -> ?forces:Vec3.t array -> t -> Vec3.t array -> unit

(** [sync_store ?exec t acc] overwrites the accumulator's forces with the
    flat force columns — the phase-exit sync, phase ["soa.store"] (reads
    ["soa.forces"], writes ["state.forces"]). The kernels accumulate in the
    boxed order, so storing into a freshly reset accumulator reproduces
    the boxed accumulator bit for bit. *)
val sync_store : ?exec:Exec.t -> t -> Mdsp_ff.Bonded.accum -> unit

(** Exact flat snapshot of a state (positions, velocities, masses, box,
    time). The position/velocity copy runs as phase ["soa.load"] (also
    reading/writing the velocity resources). *)
val of_state : ?exec:Exec.t -> State.t -> t

(** Inverse of {!of_state}: [to_state (of_state st)] equals [st]
    bit for bit (forces are scratch and not part of the state). The
    velocity copy runs as phase ["soa.store"] (resource
    ["state.velocities"]). *)
val to_state : ?exec:Exec.t -> t -> State.t
