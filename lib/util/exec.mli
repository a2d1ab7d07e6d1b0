(** Execution backends: where force-pipeline work runs.

    The special-purpose machine routes each force class onto a dedicated
    resource (hardwired pair pipelines, programmable cores). On commodity
    hardware the analogous seam is an execution backend: [Serial] runs
    everything on the calling domain, [Domains] fans tiled work out over a
    persistent pool of OCaml 5 domains.

    Scheduling is static (no work stealing): a task index set is cut into
    contiguous tiles, one per slot, and slot [s] always receives tile [s].
    Combined with reduction trees whose shape is fixed for a given slot
    count ({!sum_tree} for per-slot scalars; the halving trees of the
    force and grid slot reductions), this makes parallel runs bit-for-bit
    deterministic: two runs on the same pool size produce identical
    floating-point results. Serial and parallel results differ only by
    summation order (relative differences at rounding level).

    A pool is cheap to keep around and is reused across steps; workers block
    on a condition variable between jobs. Pools are shut down explicitly with
    {!shutdown} or automatically at program exit.

    Phases that run on the pool when an executor with [n >= 2] slots is
    threaded through the engine ([mdsp run --domains N]): the flat force
    phases of [Mdsp_md.Force_calc] (pair tiles, 1-4 pairs, bonded terms)
    and their slot reductions, the whole GSE grid pipeline — charge
    spreading over per-slot scratch grids, both 3D FFT passes (tiled over
    independent 1-D lines), the k-space convolution, and the per-particle
    force gather ([Mdsp_longrange.Gse.reciprocal],
    [Mdsp_longrange.Fft.fft_3d]) — the neighbor-list rebuild, the boxed↔SoA
    sync, the integrator position/velocity sweeps, the SHAKE/RATTLE sweeps
    over the fused constraint-cluster list the [Mdsp_verify.Schedule]
    certificate covers, and the thermostat sweeps — the Langevin O-step on
    per-atom derived streams and the velocity rescales
    ([Mdsp_md.Engine.step]). *)

type backend =
  | Serial  (** everything on the calling domain *)
  | Domains of { n : int }
      (** a persistent pool of [n] slots: the caller plus [n - 1] spawned
          domains; [n <= 1] degrades to [Serial] behavior *)

type t

(** The shared serial executor (no pool, no spawned domains, no
    sanitizer, no phase clock). It keeps no state at all, so replica and
    job engines built on it may run on several domains at once. *)
val serial : t

(** Raised by the access-set sanitizer (see {!create}, {!declare_write} and
    {!declare_read}) at the barrier when a parallel schedule is unsound:
    two slots declared overlapping writes to the same resource, a read on
    one slot overlaps a write on another slot (a read-write race), a
    declared range falls outside the resource, slots disagree about a
    resource's extent, or the declared writes fail to cover a resource
    whose full extent was announced. The message names the resource, the
    slots involved and the offending index ranges. *)
exception Race of string

(** [create ?sanitize backend] builds an executor. For [Domains { n }] with
    [n >= 2] this spawns [n - 1] worker domains that persist until
    {!shutdown} (or program exit, via an [at_exit] hook). Every created
    executor, [Serial] included, carries its own phase clock
    ({!phase_times}).

    With [sanitize:true] (default false) the executor runs in instrumented
    mode: slot bodies passed to {!parallel_run} register the index ranges
    they write via {!declare_write} and read via {!declare_read}, and after
    every barrier the executor checks the full conflict matrix — per
    resource, write ranges from different slots must be pairwise disjoint,
    no read range on one slot may overlap a write range on another slot
    (same-slot read-modify-write is allowed, overlapping reads are always
    allowed), and when an extent was declared the writes must cover it
    completely — turning a silent determinism violation into an immediate,
    attributed {!Race}. Sanitizing costs a per-barrier scan of the declared
    ranges (not of the data), so it is cheap enough for tests and
    verification runs but off by default in production.

    Phases run through {!parallel_run} — per-index phases through
    {!sweep} — at every slot count: without a pool that is the body on the
    calling domain between a no-op reset and a no-op validate, so one code
    path serves serial and pooled runs alike, and the sanitized sweep and
    the {!set_observer} dataflow trace see every phase at every slot
    count. No exception remains. The reductions whose pooled form needs
    per-slot partials and a tree combine ([Mdsp_ff.Bonded.all], the bonded
    phase every force calculation runs; [Mdsp_md.Force_calc]'s flat 1-4
    and pair phases; their boxed oracles
    [Mdsp_ff.Pair_interactions.compute] and [compute_pairs14]; and
    [Mdsp_longrange.Gse]'s charge spread) keep one body too: at one slot,
    slot 0 accumulates straight into the shared accumulator and their fold
    phase runs with nothing to fold; at two or more, each slot keeps
    private partials. The accumulator follows from {!n_slots}; no phase
    chooses its path by the slot count or by whether the executor
    sanitizes. *)
val create : ?sanitize:bool -> backend -> t

(** [declare_write ~slot ~resource ?total ~lo ~hi t] registers, from inside
    a {!parallel_run} slot body, that slot [slot] writes the half-open index
    range [lo, hi) of the named [resource] during the current parallel
    region. [total], when given, declares the resource's full extent
    [0, total): after the barrier the union of all declared write ranges
    must equal it exactly (no gaps, nothing out of bounds). No-op on
    executors built without [sanitize:true], so phases declare
    unconditionally.

    Each slot must only declare its own accesses ([slot] is the index the
    slot body received); declarations are buffered per slot without
    locking and validated on the caller after the barrier. *)
val declare_write :
  slot:int -> resource:string -> ?total:int -> lo:int -> hi:int -> t -> unit

(** [declare_read ~slot ~resource ?total ~lo ~hi t] registers, from inside
    a {!parallel_run} slot body, that slot [slot] reads [lo, hi) of the
    named [resource] during the current parallel region. Reads may overlap
    each other freely; a read overlapping another slot's declared write in
    the same barrier is a {!Race}. Same API and buffering as
    {!declare_write}. *)
val declare_read :
  slot:int -> resource:string -> ?total:int -> lo:int -> hi:int -> t -> unit

(** One declared access, as delivered to the barrier observer. *)
type access = {
  acc_slot : int;
  acc_resource : string;
  acc_lo : int;
  acc_hi : int;
  acc_total : int option;
}

(** Everything one barrier declared: the phase label passed to
    {!parallel_run} and the read/write access lists in slot order. *)
type barrier_record = {
  br_phase : string option;
  br_reads : access list;
  br_writes : access list;
}

(** [set_observer t (Some f)] installs a barrier observer on a sanitizing
    executor: after each successfully validated barrier that declared at
    least one access, [f] receives the {!barrier_record}. The dataflow
    analysis ([Mdsp_verify.Dataflow]) uses this to accumulate per-phase
    read/write footprints and derive the happens-before graph. No-op on
    executors built without [sanitize:true]. [None] uninstalls. *)
val set_observer : t -> (barrier_record -> unit) option -> unit

val backend : t -> backend

(** Number of parallel slots: 1 for [Serial], [max 1 n] for [Domains]. *)
val n_slots : t -> int

(** [parallel_run ?phase t f] runs [f s] for every slot [s] in
    [0 .. n_slots - 1], slot 0 on the calling domain, and returns when all
    slots finish. Slots must write to disjoint state, and an executor made
    by {!create} must have its phases run from one domain at a time: its
    phase clock is charged by that domain without a lock (see below).
    Exceptions raised by
    any slot are re-raised on the caller after the barrier. Serial
    executors just call [f 0]. [phase] names the barrier for the sanitizer
    observer, the dataflow phase graph and the phase clock ({!timed});
    every production phase passes its registered name. *)
val parallel_run : ?phase:string -> t -> (int -> unit) -> unit

(** {2 Phase clock}

    An executor made by {!create} accumulates wall seconds per phase name;
    {!serial} keeps no clock and charges nothing.

    - A {!parallel_run} with [~phase] — and so every {!sweep} and
      {!map_slots} — charges the caller's wall time from job start to the
      end of the barrier (its barrier-to-barrier time) to that name. A
      barrier without [~phase] is not charged.
    - {!timed} charges a region that runs on the calling domain without a
      barrier, through the same path. Its users are the serial bias and
      transform pass ([bias]) and the [bonded] charge of a topology
      without bonded terms, which runs no phase.
    - Storage is one cell per distinct name, so the clock stays bounded
      however long the executor runs.
    - The clock is charged without a lock: like the sanitizer buffers, it
      is written only by the domain that runs the executor's phases (the
      one calling {!parallel_run}, never a slot body). Engines that run on
      several domains at once must each have their own executor, or share
      {!serial}. *)

(** [timed ~phase t f] runs [f ()] on the calling domain and charges its
    wall time to [phase]. On {!serial} it is just [f ()]. *)
val timed : phase:string -> t -> (unit -> 'a) -> 'a

(** Cumulative wall seconds per charged phase name since {!create} or the
    last {!reset_phase_times}, sorted by name. [[]] on {!serial}. *)
val phase_times : t -> (string * float) list

(** Clear the phase clock. *)
val reset_phase_times : t -> unit

(** [sweep ~phase ?reads ?writes ?whole t ~total body] is the per-index
    phase: it cuts [0, total) with {!tile_bounds} into one tile per slot
    and runs [body s lo hi] on slot [s] with that slot's tile [(lo, hi)]
    through {!parallel_run} (so at one slot without a pool it is
    [body 0 0 total] on the calling domain). Before the body, slot [s]
    declares, in this order: a read of [lo, hi) for each resource in
    [reads]; a write of [lo, hi) with extent [total] for each resource in
    [writes]; and a read of [0, n) for each [(resource, n)] in [whole]
    (the parts of other index spaces every slot reads, e.g. positions
    reached through pair indices). The declared footprint is therefore
    the iterated tile by construction. The body must touch only what
    those declarations cover; it may keep per-slot results in an array
    indexed by [s]. [sweep] keeps no state of its own in [t], so the
    shared {!serial} executor serves sweeps on several domains at once
    (replica engines do). *)
val sweep :
  phase:string ->
  ?reads:string list ->
  ?writes:string list ->
  ?whole:(string * int) list ->
  t ->
  total:int ->
  (int -> int -> int -> unit) ->
  unit

(** [map_slots t f] runs [f s] on every slot (like {!parallel_run}, with the
    same barrier) and returns the results as a slot-indexed array — the
    collective primitive the ensemble layer schedules replicas with. The
    array order depends only on the slot count, never on timing. Each slot
    declares both the read and the write of its own result cell, so the
    collective passes the conflict matrix without a special case. [phase]
    defaults to ["exec.map_slots"]. *)
val map_slots : ?phase:string -> t -> (int -> 'a) -> 'a array

(** [tile_bounds ~total ~ntiles] statically partitions [0 .. total - 1] into
    [ntiles] contiguous half-open ranges [(lo, hi)] whose sizes differ by at
    most one. Empty ranges are possible when [total < ntiles]. *)
val tile_bounds : total:int -> ntiles:int -> (int * int) array

(** Fixed-shape pairwise tree sum (stride doubling): neighbours are paired,
    then the pairs are paired, so 3 slots sum as [(a + b) + c]. The
    combination order depends only on the array length, never on timing,
    so the result is deterministic. Raises [Invalid_argument] on an empty
    array. *)
val sum_tree : float array -> float

(** Stop the pool's workers and join them. Idempotent; [Serial] executors
    are unaffected. Using {!parallel_run} after shutdown raises. *)
val shutdown : t -> unit

(** [Domain.recommended_domain_count], clamped to at least 1 — a sensible
    default for [Domains { n }]. *)
val recommended_domains : unit -> int
