(** Ensemble orchestration: run a ladder of replicas concurrently on the
    {!Mdsp_util.Exec} pool with exchange at the barrier.

    The runner reuses the sequential {!Mdsp_core.Remd} machinery for all
    acceptance math: replicas are stepped for one exchange stride inside a
    {!Shard} collective (one engine per pool slot, slots multiplex when
    there are more replicas than slots), then the exchange sweep runs on
    the calling domain at the barrier via {!Mdsp_core.Remd.exchange_sweep}.
    Because each engine owns its RNG stream and exchange decisions draw
    from dedicated per-pair streams (see the draw-order contract in
    [remd.mli]), the sharded run is {e bitwise identical} to the
    sequential {!Mdsp_core.Remd.run} path for any slot count — the
    property [bench e22] and [test_ensemble] enforce. A ladder saves and
    resumes through {!Checkpoint} with [~remd:(remd t)]. *)

type t

(** [create ~exec remd] shards the ladder's replicas over [exec]'s slots.
    The replica engines should be serial (they each occupy one slot; the
    pool parallelism is across replicas, not within one). *)
val create : exec:Mdsp_util.Exec.t -> Mdsp_core.Remd.t -> t

val remd : t -> Mdsp_core.Remd.t
val shard : t -> Shard.t

(** [run t ~sweeps] advances every replica [sweeps * stride] steps,
    stepping concurrently and exchanging at each barrier. *)
val run : t -> sweeps:int -> unit

(** {2 Per-replica metrics} *)

type replica_metrics = {
  replica : int;  (** ladder rung index *)
  slot : int;  (** pool slot the replica is pinned to *)
  temp : float;  (** rung temperature, K *)
  steps : int;  (** MD steps advanced under the runner *)
  wall_s : float;  (** wall seconds spent stepping this replica *)
  attempts_up : int;  (** exchange attempts with the rung above *)
  accepts_up : int;  (** accepted exchanges with the rung above *)
  config_at : int;  (** rung currently holding this replica's initial
                        configuration (ladder-mixing diagnostic) *)
}

val metrics : t -> replica_metrics list

(** The metrics as a rendered {!Mdsp_util.Table_text} table (one row per
    replica, [Perf.resource_rows]-style model-vs-measured presentation). *)
val metrics_table : t -> string

(** {2 Simulated-tempering walkers}

    An ensemble of independent tempering walkers: each engine carries its
    own {!Mdsp_core.Tempering} ladder (attached by {!create_tempering}),
    so walkers never share state and the concurrent run is bitwise
    identical to stepping them one after another. *)

type walkers

(** [create_tempering ~exec ~engines ~ladders] attaches ladder [i] to
    engine [i] and shards the walkers over [exec]. Raises
    [Invalid_argument] when the array lengths differ or are empty. *)
val create_tempering :
  exec:Mdsp_util.Exec.t ->
  engines:Mdsp_md.Engine.t array ->
  ladders:Mdsp_core.Tempering.t array ->
  walkers

val walker_shard : walkers -> Shard.t

(** [run_tempering w ~strides] advances every walker [strides] of its own
    ladder stride (rung moves fire from each engine's post-step hook). *)
val run_tempering : walkers -> strides:int -> unit

(** Per-walker rung visit counts, walker-major (copy). *)
val occupancy : walkers -> int array array
