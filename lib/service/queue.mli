(** Persistent on-disk job queue.

    The queue is a spool directory: each job owns up to four files, all
    updated atomically (staged to [.tmp], renamed into place — the
    {!Mdsp_util.Atomic_file} discipline):

    - [<id>.job] — the {!Job.encode} spec, written once at submission;
    - [<id>.state] — the current status / seq / progress record, rewritten
      on every transition;
    - [<id>.ckpt] — the preemption checkpoint ({!Mdsp_ensemble.Checkpoint}
      format), while the job is in flight and after completion;
    - [<id>.result] — one JSON line of final observables, for done jobs.

    Because every record is replaced atomically, a crash at any point
    leaves the directory loadable: {!create} rebuilds the queue from the
    spool, demoting jobs caught in [Running] back to [Paused] (checkpoint
    present — they resume from it) or [Pending] (no checkpoint yet — they
    restart from scratch). A record damaged some other way is never read
    as a default: a [.job] that does not decode to its own id is skipped,
    and a [.state] that exists but does not parse leaves its job
    [Failed], the file untouched; {!orphans} names both. *)

type status =
  | Pending  (** never run *)
  | Running  (** in a scheduler slice right now *)
  | Paused  (** preempted at a checkpoint, waiting for its next slice *)
  | Done
  | Failed of string  (** terminal error, including ["cancelled"] *)

type entry = {
  id : string;
  spec : Job.spec;
  mutable seq : int;  (** dispatch order; bumped on requeue *)
  mutable status : status;
  mutable steps_done : int;
}

type t

val status_to_string : status -> string

(** Open (creating if needed) the spool directory and load every job in
    it, applying restart recovery to jobs left [Running]. A job without a
    [.state] record is [Pending] (the crash between {!submit}'s two
    writes). A job whose [.state] exists but does not parse — bad header,
    missing or cut field, unknown status, another job's id — is
    [Failed] with a message naming [<id>.state] and what is wrong; the
    file is not rewritten, so deleting it requeues the job (from its
    [.ckpt] when one exists). *)
val create : dir:string -> t

val dir : t -> string

(** All jobs, dispatch (seq) order. *)
val entries : t -> entry list

val find : t -> string -> entry option

(** Validate, assign the deterministic id, and spool. Submitting a spec
    already in the queue returns the existing entry unchanged
    (idempotent). *)
val submit : t -> Job.spec -> (entry, string) result

(** Jobs eligible for a slice ([Pending] or [Paused]), dispatch order. *)
val runnable : t -> entry list

(** The first [n] runnable jobs (fewer when the queue is shorter). *)
val take_batch : t -> int -> entry list

(** Move a preempted job to the back of the dispatch order (persisted) —
    this is what makes scheduling round-robin. *)
val requeue : t -> entry -> unit

val set_status : t -> entry -> status -> unit
val record_progress : t -> entry -> steps_done:int -> unit

(** Cancel a non-terminal job (it becomes [Failed "cancelled"]). *)
val cancel : t -> string -> (entry, string) result

val ckpt_path : t -> entry -> string
val result_path : t -> entry -> string

(** Store / fetch the one-line JSON result record. *)
val write_result : t -> entry -> string -> unit

val read_result : t -> string -> string option

(** Spool-hygiene scan: leftover [.tmp] staging files, state/checkpoint/
    result records without a matching [.job], unreadable specs and state
    records, and unexpected files. Empty on a healthy spool;
    [mdsp jobs --check] and the CI smoke gate on it. *)
val orphans : dir:string -> string list
