(** Exact text checkpoints: the one save/resume format for a single
    engine ([mdsp run], a single-engine service job) and for a replica
    ladder ([mdsp ensemble], an REMD service job).

    A checkpoint holds one {!Mdsp_md.Engine.snapshot} per engine —
    everything it needs to continue bit-for-bit (state, in-flight forces,
    RNG stream, thermostat internals, neighbor-list reference) — plus,
    for a ladder, the {!Mdsp_core.Remd.snapshot} exchange bookkeeping.

    The format is line-oriented text, version 2: a header, a [preset]
    provenance line ("-" when unrecorded), the replica count, then either
    "remd none" or the exchange section, then the replicas. Floats are
    written with [%.17g], which round-trips IEEE binary64 exactly, and the
    RNG words as decimal [int64], so {!resume} rebuilds the snapshots
    bit-identically and the resumed run replays the uninterrupted one
    exactly. Version 1 files (no preset line, exchange section mandatory)
    still load. *)

(** [save ?preset path ?remd engines] writes every engine's snapshot and,
    for a ladder, [remd]'s exchange bookkeeping ([engines] are then
    [Remd.engines remd]). The write is crash-safe: staged to
    [path ^ ".tmp"] and renamed into place, so an interrupt mid-write
    never destroys an existing checkpoint. [preset] records the workload
    the engines were built from; {!resume} can verify it. *)
val save :
  ?preset:string ->
  string ->
  ?remd:Mdsp_core.Remd.t ->
  Mdsp_md.Engine.t array ->
  unit

(** [resume ?expect_preset path ?remd engines] rewinds [engines] (and
    [remd]) to the checkpoint, so continuing reproduces the saved run
    exactly; the file's step counters, temperatures and RNG streams win
    over the engines' own. The whole file is parsed and checked before
    any engine changes. Raises [Failure] naming the file (and the line,
    for content errors) when the file is missing, truncated or malformed;
    when [expect_preset] disagrees with a recorded preset; when the
    replica count differs from [Array.length engines] or a replica's atom
    count from its engine's; or when [remd] is given and the file has no
    exchange section. *)
val resume :
  ?expect_preset:string ->
  string ->
  ?remd:Mdsp_core.Remd.t ->
  Mdsp_md.Engine.t array ->
  unit
