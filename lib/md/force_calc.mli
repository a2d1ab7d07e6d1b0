(** Full force-field evaluation: bonded + short-range pairs + long-range
    electrostatics + externally registered biases.

    The short-range pair part goes through an abstract
    {!Mdsp_ff.Pair_interactions.evaluator}, which is the seam where the
    machine model substitutes its table-driven pipelines for the analytic
    reference. Biases (restraints, metadynamics hills, boost potentials...)
    are closures registered by the sampling methods. *)

open Mdsp_util

type longrange =
  | Lr_none
  | Lr_ewald of Mdsp_longrange.Ewald.t
  | Lr_gse of Mdsp_longrange.Gse.t

type energies = {
  bond : float;
  angle : float;
  dihedral : float;
  pair : float;  (** short-range nonbonded *)
  recip : float;  (** long-range reciprocal *)
  correction : float;  (** Ewald self + excluded-pair corrections *)
  bias : float;  (** all registered biases *)
}

val total : energies -> float
val zero_energies : energies

(** A bias sees the box and positions and adds forces into the accumulator,
    returning its energy. *)
type bias = {
  bias_name : string;
  bias_compute : Pbc.t -> Vec3.t array -> Mdsp_ff.Bonded.accum -> float;
}

(** A force transform rewrites the already-accumulated forces as a function
    of the pre-transform potential energy — the mechanism behind boost
    potentials (accelerated MD), where F' = F (1 - d(boost)/dV). It returns
    the boost energy to add to the bias total. Applied only by {!compute}
    (not the RESPA class-split path). *)
type transform = {
  tr_name : string;
  tr_apply : Pbc.t -> Vec3.t array -> Mdsp_ff.Bonded.accum -> float -> float;
}

type t

(** [create ?exec topo ~evaluator ~longrange ~nlist] builds the
    calculator. [exec] (default {!Mdsp_util.Exec.serial}) selects the
    execution backend for the pair and bonded phases; the flat particle
    store and the per-slot scratch are sized here and reused across steps.
    Every phase runs under its registered name on [exec], whose phase
    clock ({!Mdsp_util.Exec.phase_times}) times it, through one body at
    every slot count: at one slot, slot 0 accumulates straight into the
    shared accumulator and the fold ([bonded.reduce], [soa.reduce]) has
    nothing to add; at two or more, each slot keeps private partials that
    the fold tree-reduces into it. The serial bias and transform pass
    charges [bias], and a topology without bonded terms still charges
    [bonded].

    The bonded terms run {!Mdsp_ff.Bonded.all} into the boxed
    accumulator; [soa.load] then seeds a {!Soa} store's force columns and
    the running virial with them, and the 1-4 and short-range pair phases
    run the {!Soa_kernels} loops on top; the pair loop is the one
    {!Soa_kernels.pair_kernel} selects for [evaluator]. Results are bitwise
    identical to the boxed reference kernels ({!Mdsp_ff.Bonded.all},
    {!Mdsp_ff.Pair_interactions.compute_pairs14} at the evaluator's cutoff,
    then {!Mdsp_ff.Pair_interactions.compute}), which the test suites keep
    as the oracle. Long-range, biases and transforms add into the boxed
    accumulator after the store syncs back at the pair-phase boundary.

    The long-range handle follows the box: when {!compute} or
    {!compute_class} is passed a box other than the one the handle was
    built for (a barostat rescaled it), the calculator rebuilds the handle
    for that box with {!Mdsp_longrange.Gse.with_box} or
    {!Mdsp_longrange.Ewald.with_box}. The calculator owns its handle; do
    not share one GSE handle between calculators that run at the same
    time. *)
val create :
  ?exec:Exec.t ->
  Mdsp_ff.Topology.t ->
  evaluator:Mdsp_ff.Pair_interactions.evaluator ->
  longrange:longrange ->
  nlist:Mdsp_space.Neighbor_list.t ->
  t

val topology : t -> Mdsp_ff.Topology.t
val nlist : t -> Mdsp_space.Neighbor_list.t

(** The execution backend the calculator runs on. *)
val exec : t -> Exec.t

(** Which long-range solver is installed ([`Gse] carries its grid dims) —
    lets front ends report the configuration without matching on
    {!longrange}. *)
val longrange_kind : t -> [ `None | `Ewald | `Gse of int * int * int ]

(** The installed pair evaluator. *)
val evaluator : t -> Mdsp_ff.Pair_interactions.evaluator

(** Replace the pair evaluator (FEP lambda switching, machine
    substitution) and the flat pair loop it selects
    ({!Soa_kernels.pair_kernel}): an
    {!Mdsp_ff.Pair_interactions.of_topology} evaluator built from this
    calculator's topology runs the specialised analytic loop, every other
    evaluator runs through its [eval]. Either way the forces are the ones
    {!Mdsp_ff.Pair_interactions.compute} gives for the evaluator. *)
val set_evaluator : t -> Mdsp_ff.Pair_interactions.evaluator -> unit

val add_bias : t -> bias -> unit

(** Remove a bias by name; returns true if one was removed. *)
val remove_bias : t -> string -> bool

val biases : t -> string list

(** Install or clear the force transform. *)
val set_transform : t -> transform option -> unit

(** [compute t box positions acc] refreshes the neighbor list if needed,
    accumulates all forces and the virial into [acc] (which is reset first)
    and returns the energy breakdown. *)
val compute : t -> Pbc.t -> Vec3.t array -> Mdsp_ff.Bonded.accum -> energies

(** Like {!compute} but restricted to a force class, for RESPA splitting:
    [`Fast] = bonded + 1-4 + biases, [`Slow] = neighbor-list pairs (+
    long-range). Both run {!compute}'s sequence with the other class's
    terms left out, and neither applies the transform. *)
val compute_class :
  t -> [ `Fast | `Slow ] -> Pbc.t -> Vec3.t array -> Mdsp_ff.Bonded.accum ->
  energies
