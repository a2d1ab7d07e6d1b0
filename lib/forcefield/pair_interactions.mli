(** Short-range nonbonded evaluation over a neighbor list.

    The central abstraction is an {!evaluator}: a function from an atom pair
    and squared distance to (energy, f_over_r). The reference evaluator is
    built analytically from the topology; the machine model substitutes an
    evaluator backed by quantized interpolation tables. Everything downstream
    (energies, forces, virial) is agnostic to which one it is given.

    The force calculator runs flat mirrors of {!compute} and
    {!compute_pairs14} (Mdsp_md.Soa_kernels); these boxed kernels are the
    reference the mirrors are tested against, bit for bit. *)

open Mdsp_util

(** How the electrostatic part of the short-range sum is handled. *)
type electrostatics =
  | No_coulomb
  | Cutoff_coulomb
  | Reaction_field of { epsilon_rf : float }
      (** Tironi reaction field with the given dielectric beyond the cutoff *)
  | Ewald_real of { beta : float }
      (** real-space part of an Ewald decomposition *)

(** The analytic form an {!of_topology} evaluator was built from. *)
type analytic = {
  topo : Topology.t;
  trunc : Nonbonded.truncation;
  elec : electrostatics;
}

(** Private so that [analytic] always describes [eval]: only {!of_topology}
    builds an evaluator with [analytic = Some], and no record copy can swap
    the [eval] under it. *)
type evaluator = private {
  eval : int -> int -> float -> float * float;
      (** [eval i j r2] is [(energy, f_over_r)] for the atom pair *)
  cutoff : float;
  analytic : analytic option;
      (** [Some] for {!of_topology}, which records its topology, truncation
          and electrostatics so a consumer can specialise on them; [None]
          for {!of_eval} (table, FEP and custom evaluators), known only
          through [eval] *)
}

(** [of_eval ~cutoff eval] wraps a pair function known only through
    [eval]; [analytic] is [None]. *)
val of_eval : cutoff:float -> (int -> int -> float -> float * float) -> evaluator

(** Analytic reference evaluator for a topology. [trunc] applies to the LJ
    part; electrostatics are handled per the [electrostatics] choice. *)
val of_topology :
  Topology.t ->
  cutoff:float ->
  trunc:Nonbonded.truncation ->
  elec:electrostatics ->
  evaluator

(** [compute eval box nlist positions acc] accumulates forces and virial for
    all neighbor-list pairs and returns the potential energy. The pair list
    is cut into static contiguous tiles, one per slot of [exec]
    ({!Mdsp_space.Neighbor_list.tiles}); each slot accumulates into its
    {!Bonded.slot_accums} accumulator, and the private partial
    forces/virial/energy are tree-reduced into [acc] deterministically
    (phase ["pair.reduce"]; nothing to fold at one slot, where slot 0
    accumulates into [acc]). *)
val compute :
  ?exec:Exec.t ->
  evaluator -> Pbc.t -> Mdsp_space.Neighbor_list.t -> Vec3.t array ->
  Bonded.accum -> float

(** Scaled 1-4 interactions: for each pair in [topo.pairs14], evaluates
    Lorentz-Berthelot LJ scaled by [topo.scale14_lj] plus shifted-cutoff
    Coulomb scaled by [topo.scale14_coul]. Returns the energy; forces and
    virial go into the accumulator. On the machine these terms run with the
    bonded work on the programmable cores. Parallelizes over [exec] like
    {!compute}, tiling the 1-4 pair array, with the same ["pair.reduce"]
    fold. *)
val compute_pairs14 :
  ?exec:Exec.t ->
  Topology.t -> cutoff:float -> Pbc.t -> Vec3.t array -> Bonded.accum -> float

(** All-pairs O(N^2) version used as a test oracle (ignores no pairs; applies
    exclusions from the topology if given). *)
val compute_all_pairs :
  ?exclusions:Mdsp_space.Exclusions.t ->
  evaluator -> Pbc.t -> Vec3.t array -> Bonded.accum -> float
