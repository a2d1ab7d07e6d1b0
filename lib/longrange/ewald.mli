(** Classic Ewald summation — the long-range electrostatics reference.

    The Coulomb sum is split with parameter [beta]: the short-range part
    [qq erfc(beta r)/r] is evaluated by the pair machinery
    ([Mdsp_ff.Pair_interactions] with [Ewald_real]); this module provides the
    reciprocal-space part (direct sum over k vectors), the self-energy
    correction, and the correction for excluded pairs. Exact up to the [kmax]
    truncation; used as the oracle the grid-based GSE solver is tested
    against and to compute Madelung constants in the test suite.

    {2 Units}

    Positions and the box are in Angstrom, charges in elementary charge
    units, [beta] in 1/Angstrom; energies are returned in kcal/mol and
    forces accumulated in kcal/mol/Angstrom (the Coulomb constant is
    applied internally, as everywhere in the force field).

    {2 Execution and determinism}

    This reference implementation is deliberately serial: every sum runs on
    the calling domain in a fixed order, so results are bitwise reproducible
    across runs and independent of any {!Mdsp_util.Exec} backend the rest of
    the force pipeline uses. For the pool-parallel production solver, use
    [Mdsp_longrange.Gse]. *)

open Mdsp_util

type t

(** [create ~beta ~kmax box] prepares the k-vector list: all integer triples
    with 0 < |n|^2 <= kmax^2. *)
val create : beta:float -> kmax:int -> Pbc.t -> t

(** [with_box t box] is a fresh handle for [box] with [t]'s [beta] and
    [kmax]. {!reciprocal} uses the box the handle was built for;
    [Mdsp_md.Force_calc] calls this whenever it is passed a box that
    differs, so an engine's handle follows the box under a barostat. *)
val with_box : t -> Pbc.t -> t

(** [reciprocal t charges positions acc] adds reciprocal-space forces and
    virial and returns the reciprocal energy. *)
val reciprocal :
  t -> float array -> Vec3.t array -> Mdsp_ff.Bonded.accum -> float

(** [self_energy ~beta charges] is the self-energy correction
    [-beta/sqrt(pi) * sum q_i^2]: no forces, and constant for fixed charges
    and [beta], so a caller can compute it once. *)
val self_energy : beta:float -> float array -> float

(** [excluded_correction ~beta box charges positions exclusions acc] removes
    the reciprocal-space interaction of the excluded pairs: subtracts
    [qq erf(beta r)/r] for each pair of {!Mdsp_space.Exclusions.pairs}, in
    that order, with forces and virial into [acc]. Both corrections depend
    on the splitting parameter alone, not on a k list or a grid, so they
    serve the Ewald and the GSE solvers alike. *)
val excluded_correction :
  beta:float -> Pbc.t -> float array -> Vec3.t array ->
  Mdsp_space.Exclusions.t -> Mdsp_ff.Bonded.accum -> float

(** Total energy of a neutral point-charge system: reciprocal + self +
    real-space (computed internally over all pairs with minimum image; for
    testing on small systems only). *)
val total_reference :
  t -> Pbc.t -> float array -> Vec3.t array -> float

val beta : t -> float

(** The box the handle was built for. *)
val box : t -> Pbc.t

val k_count : t -> int
