(** Flat (SoA) pair kernels: batched per-tile loops over {!Soa} columns.
    {!Force_calc} runs them for the 1-4 and neighbor-list pairs; the
    bonded terms run {!Mdsp_ff.Bonded.all} on the boxed accumulator, which
    seeds the flat store.

    Each kernel is an expression-for-expression mirror of the boxed
    reference kernels ({!Mdsp_ff.Pair_interactions},
    {!Mdsp_ff.Nonbonded}): same parse trees, same guards, same accumulation
    order, so the results are bitwise identical to the boxed results — not
    merely close. The boxed kernels are kept as the test oracle for that
    identity.

    The analytic loop is one [[@inline]] body that each call site
    specialises with literal selectors: {!pair_range} selects one small
    function per electrostatics kind, each with one call, and
    {!pairs14_range} has one for the scaled 1-4 form. The
    compiler inlines every call and folds the selector tests, so each call
    site is an allocation-free loop of its own form (no closures, no boxed
    floats, no tuples, no per-pair test of the form). [test_parallel] meters
    the allocation, [bench e21] asserts it, and [scripts/ci.sh] fails if a
    call to the body is left in the object code.

    Kernels accumulate energy and virial into a caller-owned {!scratch} and
    forces into flat columns; the caller (Force_calc) owns phase ordering,
    per-slot column management and the energy bookkeeping between terms.
    A kernel call sums energy and virial in locals seeded from the scratch
    and stores them into it once, when the range is done: the slots of a
    pool phase own scratch records that sit side by side in memory, and a
    store per pair would make them share a cache line. *)

open Mdsp_util

(** All-float mutable accumulator: field updates never allocate. *)
type scratch = { mutable energy : float; mutable virial : float }

val make_scratch : unit -> scratch
val reset_scratch : scratch -> unit

(** Analytic pair evaluator flattened into arrays: per-type-pair LJ
    constants (Lorentz-Berthelot precombined, shifts included), per-atom
    charges with the Coulomb prefactor folded in, 1-4 index arrays, and the
    electrostatics kind. Built once per (topology, cutoff, trunc, elec). *)
type pair_params

(** [pair_params_of_topology topo ~cutoff ~trunc ~elec] flattens the
    analytic evaluator. Returns [None] for [Switch] truncation, which has no
    specialised loop ({!pair_kernel} runs it through its [eval]). *)
val pair_params_of_topology :
  Mdsp_ff.Topology.t ->
  cutoff:float ->
  trunc:Mdsp_ff.Nonbonded.truncation ->
  elec:Mdsp_ff.Pair_interactions.electrostatics ->
  pair_params option

(** [pair_range pp box s ~is ~js lo hi sc] runs the nonbonded pair kernel
    over pair-list entries [lo, hi) of the flat index arrays [is]/[js]
    (from {!Mdsp_space.Neighbor_list.raw_pairs}), reading positions from and
    accumulating forces into [s]'s columns. It selects the analytic loop's
    specialisation for [pp]'s electrostatics kind once per call, not per
    pair. Allocation-free. *)
val pair_range :
  pair_params ->
  Pbc.t ->
  Soa.t ->
  is:int array ->
  js:int array ->
  int ->
  int ->
  scratch ->
  unit

(** The pair loop an evaluator selects, with the 1-4 constants at the
    evaluator's cutoff. *)
type pair_kernel

(** [pair_kernel topo ev] specialises on what [ev] records: a [Shift] or
    [Truncate] evaluator that {!Mdsp_ff.Pair_interactions.of_topology}
    built from [topo] itself (physically the same value) gets the
    allocation-free loop of {!pair_range} for its electrostatics. Every
    other evaluator — tables, FEP lambdas, [Switch], custom forms, or an
    analytic one built from another topology — gets one loop that calls
    [ev.eval i j r2] per pair within the cutoff, the mirror of
    {!Mdsp_ff.Pair_interactions.compute}; it allocates what [eval]
    allocates. The 1-4 constants always come from [topo]. *)
val pair_kernel :
  Mdsp_ff.Topology.t -> Mdsp_ff.Pair_interactions.evaluator -> pair_kernel

(** [kernel_range k box s ~is ~js lo hi sc] is {!pair_range} for the loop
    [k] selected. *)
val kernel_range :
  pair_kernel ->
  Pbc.t ->
  Soa.t ->
  is:int array ->
  js:int array ->
  int ->
  int ->
  scratch ->
  unit

(** The 1-4 constants of the kernel: the topology's 1-4 list at the
    evaluator's cutoff, as [Pair_interactions.compute_pairs14
    ~cutoff:ev.cutoff] evaluates it. *)
val kernel_pairs14 : pair_kernel -> pair_params

(** Number of 1-4 pairs in the parameter set. *)
val pairs14_count : pair_params -> int

(** Mirrors the boxed skip condition: some 1-4 pairs exist and at least one
    of the two 1-4 scale factors is positive. *)
val pairs14_active : pair_params -> bool

(** [pairs14_range pp box s lo hi sc] runs the scaled 1-4 kernel over
    entries [lo, hi) of the topology's 1-4 pair list: the analytic loop
    with Shift-truncated LJ and cutoff Coulomb, both times the topology's
    1-4 scales, as [Pair_interactions.compute_pairs14] evaluates them.
    Allocation-free. *)
val pairs14_range : pair_params -> Pbc.t -> Soa.t -> int -> int -> scratch -> unit

(** [reduce_slots ~exec ~into ~slot_fx ~slot_fy ~slot_fz ~slot_virial sc]
    merges per-slot force columns into [into]'s force columns with the same
    fixed-shape pairwise tree as [Bonded.reduce_slots] (resource
    ["soa.reduce"], the flat mirror of the accumulator's atom space), and
    adds the tree-summed slot virials to [sc.virial]. [reads] lists the
    (resource, extent) iteration spaces whose per-slot partials the
    reduction consumes, for the dataflow graph. The phase runs at every
    slot count: with no private columns ([slot_fx] empty — one slot, whose
    phase accumulated straight into [into] and [sc]) it folds nothing and
    leaves [sc] alone. *)
val reduce_slots :
  exec:Exec.t ->
  ?reads:(string * int) list ->
  into:Soa.t ->
  slot_fx:Soa.fa array ->
  slot_fy:Soa.fa array ->
  slot_fz:Soa.fa array ->
  slot_virial:float array ->
  scratch ->
  unit
