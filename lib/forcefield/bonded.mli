(** Bonded-term evaluation: harmonic bonds, harmonic angles, periodic
    dihedrals.

    Forces are accumulated into the caller's array; each function returns the
    term's potential energy and adds its contribution to the scalar virial
    [W = sum_i f_i . r_i] (computed with minimum-image internal geometry so
    it is box-consistent). On the machine model these terms execute on the
    programmable (flexible) subsystem. *)

open Mdsp_util

type accum = {
  forces : Vec3.t array;
  mutable virial : float;
}

val make_accum : int -> accum
val reset : accum -> unit

(** [reduce_slots ?exec ~into slots] adds every slot's forces and virial
    into [into] using a fixed-shape pairwise tree over the slots, so the
    result is deterministic for a given slot count. The per-atom sums are
    themselves parallelized over [exec] (disjoint atom tiles). Slot contents
    are left untouched. [phase] names the barrier for the dataflow trace
    (default ["bonded.reduce"]); [reads] lists the (resource, extent)
    iteration spaces whose per-slot partials this reduction consumes, so
    the happens-before graph gets a producer → reduce edge. *)
val reduce_slots :
  ?exec:Exec.t -> ?phase:string -> ?reads:(string * int) list -> into:accum ->
  accum array -> unit

(** Evaluate all bonds; returns the total bond energy. *)
val bonds : Pbc.t -> Topology.t -> Vec3.t array -> accum -> float

(** Evaluate all angles; returns the total angle energy. *)
val angles : Pbc.t -> Topology.t -> Vec3.t array -> accum -> float

(** Evaluate all dihedrals; returns the total dihedral energy. *)
val dihedrals : Pbc.t -> Topology.t -> Vec3.t array -> accum -> float

(** Evaluate all harmonic improper torsions. *)
val impropers : Pbc.t -> Topology.t -> Vec3.t array -> accum -> float

(** All bonded terms. Returns (bond_e, angle_e, dihedral_e + improper_e).
    With a parallel [exec], each term array is cut into static contiguous
    tiles, each slot accumulates into its own freshly allocated scratch
    accumulator, and the partials are tree-reduced into [acc]
    deterministically. *)
val all :
  ?exec:Exec.t -> Pbc.t -> Topology.t -> Vec3.t array -> accum ->
  float * float * float

(** Count of bonded interactions, used by the machine performance model. *)
val term_count : Topology.t -> int
