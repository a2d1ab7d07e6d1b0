(** Batched round-robin scheduler over the {!Mdsp_util.Exec} pool.

    Each {!run_slice} takes up to one runnable job per pool slot from the
    {!Queue}, advances every job in the batch concurrently (one job per
    slot, via [Exec.map_slots]) by at most one step quantum, then — at the
    barrier, back on the caller — checkpoints and requeues the unfinished
    jobs and finalizes the finished ones. Because preemption happens only
    through {!Mdsp_md.Engine} / {!Mdsp_core.Remd} snapshots, which restore
    bit-for-bit, a job preempted any number of times (including across a
    server restart, when the instance is rebuilt from its [.ckpt] file)
    produces final state and observables bitwise identical to an
    uninterrupted run — at any slot count. The slot bodies declare their
    per-job write-sets (resource ["service.jobs"]) so a sanitizing pool
    audits the slice like any other parallel phase. *)

type t

(** Steps per slice before a job yields its slot (REMD jobs round to whole
    exchange sweeps). The registered default is 250. *)
val default_quantum : int

(** [create ?quantum ~exec queue]. Raises [Invalid_argument] when
    [quantum < 1]. *)
val create : ?quantum:int -> exec:Mdsp_util.Exec.t -> Queue.t -> t

val quantum : t -> int

(** [remd_ladder ~preset ~dt_fs ~seed ~replicas ~temp_min ~temp_max
    ~stride] builds the replica-exchange ladder that REMD jobs and
    [mdsp ensemble] both run: [replicas] geometrically spaced temperatures
    from [temp_min] to [temp_max], one Langevin (γ = 0.02 fs⁻¹) engine per
    rung built from the named preset and seeded [seed + i], exchanging
    every [stride] steps from seed [seed]. Raises [Failure] on an unknown
    preset and [Invalid_argument] on a malformed ladder
    ({!Mdsp_core.Remd.create}). *)
val remd_ladder :
  preset:string ->
  dt_fs:float ->
  seed:int ->
  replicas:int ->
  temp_min:float ->
  temp_max:float ->
  stride:int ->
  Mdsp_core.Remd.t

(** Run one slice; returns the number of jobs advanced (0 when nothing is
    runnable — the queue is empty or all jobs are terminal). Jobs whose
    preset is unknown or whose checkpoint fails to load (missing, torn,
    malformed or mismatched) become [Failed] with the underlying message
    instead of raising, and their slots go to the next runnable jobs. *)
val run_slice : t -> int

(** Slice until nothing is runnable. *)
val drain : t -> unit

(** The identity reference: build the job fresh, advance its whole budget
    in one go with no preemption, write the final checkpoint to [ckpt] and
    return the observables. Tests and [bench e24] compare the scheduler's
    output against this byte-for-byte. *)
val uninterrupted : Job.spec -> ckpt:string -> (string * float) list
