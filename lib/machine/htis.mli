(** Functional model of the high-throughput interaction subsystem.

    The HTIS evaluates tabulated radial functions for every in-range pair:
    one table per LJ type pair, plus a single charge-scaled electrostatic
    shape table ([q_i q_j *\ table(r^2)]). Forces are accumulated in exact
    fixed point, which makes the result independent of pair order — the
    machine's bit-reproducibility property, exercised by the E3 experiment
    and the determinism tests. *)

open Mdsp_util

type table_set = {
  lj : Interp_table.t array array;  (** indexed by (type_i, type_j) *)
  electrostatic : Interp_table.t option;
      (** shape table for qq * f(r2); [None] for chargeless systems *)
}

(** Build a pair evaluator backed by the tables — a drop-in replacement for
    the analytic evaluator, letting the whole MD engine "run on the
    machine". *)
val evaluator :
  table_set -> types:int array -> charges:float array ->
  cutoff:float -> Mdsp_ff.Pair_interactions.evaluator

type result = {
  forces : Vec3.t array;
  energy : float;
  saturations : int;
      (** number of fixed-point conversions or additions that clamped —
          zero on any run the datapath certifier proved safe *)
}

(** The (force, energy) accumulation formats a run with [?format] uses:
    forces accumulate per atom in [format] itself, the whole-system energy
    in [Fixed.widen format]. The datapath certifier calls this so its
    verdicts cover exactly the formats the runtime executes. *)
val formats_used :
  ?format:Mdsp_util.Fixed.format -> unit ->
  Mdsp_util.Fixed.format * Mdsp_util.Fixed.format

(** One node's fixed-point accumulators: per-atom forces in the force
    format and the energy in the widened one ({!formats_used}), with the
    count of clamps they hit. [make_accum ?format n] is a zeroed one for
    [n] atoms. *)
type accum

val make_accum : ?format:Mdsp_util.Fixed.format -> int -> accum

(** [add_pair ts ~types ~charges ~cutoff box positions a i j] runs one pair
    through the pipeline into [a]: within the cutoff, its table force and
    energy convert to fixed point and accumulate (+ on [i], - on [j]). *)
val add_pair :
  table_set -> types:int array -> charges:float array -> cutoff:float ->
  Pbc.t -> Vec3.t array -> accum -> int -> int -> unit

(** [merge ~into a] adds [a]'s forces, energy and clamps into [into] in
    fixed point: one combine of the network reduction. *)
val merge : into:accum -> accum -> unit

(** The accumulated forces, energy and clamp count. *)
val totals : accum -> result

(** [compute_forces ?perm ?format ts ~types ~charges ~cutoff box nlist
    positions] evaluates all neighbor-list pairs in the order given by
    [perm] (a permutation of pair indices; identity if omitted) and
    accumulates each force component in [format] (default
    {!Mdsp_util.Fixed.force_format}; exposed for the accumulation-width
    ablation) and the energy in [Fixed.widen format]. Because fixed-point
    addition is exact, the forces are bitwise identical for every [perm] —
    the determinism property. [result.saturations] counts every silent
    clamp the run hit. It is {!add_pair} over the list on one {!accum}. *)
val compute_forces :
  ?perm:int array ->
  ?format:Mdsp_util.Fixed.format ->
  table_set ->
  types:int array ->
  charges:float array ->
  cutoff:float ->
  Pbc.t ->
  Mdsp_space.Neighbor_list.t ->
  Vec3.t array ->
  result

(** Pipeline cycles to process [pairs] pair interactions on one node. *)
val cycles : Config.t -> pairs:int -> float

(** Total SRAM footprint of a table set, in bytes (every node stores the
    full set). *)
val table_set_bytes : table_set -> int

(** True if the set fits one node's table SRAM
    ({!Config.t.table_sram_bytes}). *)
val tables_fit : Config.t -> table_set -> bool
