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

(** [reduce_slots ?exec ~phase ~into slots] adds every slot's forces and
    virial into [into] using a fixed-shape pairwise tree over the slots, so
    the result is deterministic for a given slot count. The per-atom sums
    are themselves parallelized over [exec] (disjoint atom tiles), as the
    phase [phase]: ["bonded.reduce"] for {!all}, ["pair.reduce"] for the
    boxed pair kernels. Either phase read-modify-writes the accumulator's
    atom space (resource ["bonded.reduce"]). Slot contents are left
    untouched. [reads] lists the (resource, extent) iteration spaces whose
    per-slot partials this reduction consumes, so the happens-before graph
    gets a producer → reduce edge. The phase runs at every slot count:
    with no slots (the private partials of a one-slot phase, see
    {!slot_accums}) it folds nothing and leaves [into] alone. *)
val reduce_slots :
  ?exec:Exec.t -> ?reads:(string * int) list -> phase:string ->
  into:accum -> accum array -> unit

(** [slot_accums exec acc] is what each slot of a pool phase accumulates
    into, and the private partials {!reduce_slots} folds into [acc]: at one
    slot, slot 0 accumulates straight into [acc] and there is no private
    partial ([([| acc |], [||])]); at two or more, every slot has a fresh
    zeroed accumulator of its own (both arrays are the same). *)
val slot_accums : Exec.t -> accum -> accum array * accum array

(** Evaluate all bonds; returns the total bond energy. *)
val bonds : Pbc.t -> Topology.t -> Vec3.t array -> accum -> float

(** Evaluate all angles; returns the total angle energy. *)
val angles : Pbc.t -> Topology.t -> Vec3.t array -> accum -> float

(** Evaluate all dihedrals; returns the total dihedral energy. *)
val dihedrals : Pbc.t -> Topology.t -> Vec3.t array -> accum -> float

(** Evaluate all harmonic improper torsions. *)
val impropers : Pbc.t -> Topology.t -> Vec3.t array -> accum -> float

(** All bonded terms, the kernel every force calculation runs. Returns
    (bond_e, angle_e, dihedral_e + improper_e). Each term array is cut
    into static contiguous tiles, one per slot of [exec] (phase
    ["bonded"]); each slot accumulates into its {!slot_accums}
    accumulator, and the private partials are tree-reduced into [acc]
    deterministically (phase ["bonded.reduce"]; nothing to fold at one
    slot, where slot 0 accumulates into [acc]). At two or more slots,
    [slots] (one accumulator per slot, each as long as [acc] and none of
    them [acc]) are the private partials, zeroed by their slot at the
    start of the phase, so a caller that keeps them allocates none per
    call; without it, every call makes fresh ones. At one slot [slots] is
    ignored. Each term range sums its virial in a local and stores it
    into its slot's accumulator once. A topology without bonded terms
    runs no phase. Raises [Invalid_argument] when [slots] holds a number
    of accumulators other than the slot count. *)
val all :
  ?exec:Exec.t -> ?slots:accum array -> Pbc.t -> Topology.t -> Vec3.t array ->
  accum -> float * float * float

(** Count of bonded interactions, used by the machine performance model. *)
val term_count : Topology.t -> int
