(** Static constraint-schedule analysis: a machine-checkable certificate
    that the parallel SHAKE/RATTLE sweeps in [Mdsp_md.Constraints] are
    race-free.

    Constraints sharing an atom fuse into clusters
    ({!Mdsp_ff.Topology.constraint_clusters}), and the solver sweeps that
    cluster list tiled over the pool. The plan certified here is that very
    list, read off {!Mdsp_md.Constraints.clusters}, not a second schedule
    built beside it. The certificate re-derives everything from the units'
    atom footprints and trusts no fusion step. It checks three things: no
    two units share an atom, every constraint is covered exactly once, and
    the atom footprints stay disjoint across slots under the exact static
    tiling the solver uses. So a planted conflict ({!seed_conflict_plan},
    [mdsp check --seed-conflict]) cannot pass. *)

type plan = {
  pl_name : string;
  pl_n_constraints : int;
  pl_units : Mdsp_ff.Topology.cluster array;
      (** the units in sweep order, with their atom footprints *)
}

(** [plan ~name topo] is the schedule the solver runs on [topo]: its units
    are {!Mdsp_md.Constraints.clusters} of
    {!Mdsp_md.Constraints.create}[ topo]. Deterministic. *)
val plan : name:string -> Mdsp_ff.Topology.t -> plan

type certificate = {
  crt_proper : bool;  (** no two units share an atom *)
  crt_once : bool;  (** the units partition the constraint set exactly *)
  crt_disjoint : bool;
      (** per slot count, the statically tiled atom footprints are
          pairwise disjoint across slots *)
  crt_slots : int list;  (** slot counts the disjointness was checked at *)
  crt_violations : string list;  (** human-readable failures *)
}

(** [certify p] checks [p] against its own unit footprints (the
    certificate does not trust the fusion step). Violations name the
    shared atom. [slots] defaults to [[1; 2; 4]], matching the identity
    tests. *)
val certify : ?slots:int list -> plan -> certificate

val cert_ok : certificate -> bool

(** A deliberately broken plan, built by hand: two single-constraint units
    sharing atom 1. {!certify} must fail [proper] at any slot count and
    [disjoint] from 2 slots up. *)
val seed_conflict_plan : unit -> plan

type report = {
  rp_name : string;
  rp_n_constraints : int;
  rp_n_clusters : int;
  rp_max_cluster : int;  (** constraints in the largest cluster *)
  rp_max_cluster_atoms : int;
  rp_cert : certificate;
  rp_env_ok : bool;  (** within the registered envelope *)
  rp_env_notes : string list;
}

val report_ok : report -> bool

(** A registered constraint envelope: the largest cluster a workload's
    schedule is allowed to have (the ROADMAP maintenance rule — a topology
    change that grows a cluster is a schedule regression the gate
    catches). *)
type envelope = {
  env_name : string;
  env_topo : unit -> Mdsp_ff.Topology.t;
  env_max_cluster_size : int;
}

(** The shipped envelopes: water6k (2197 rigid waters — 3-constraint
    clusters) and chain10k (no constraints — the empty schedule). *)
val builtin_envelopes : unit -> envelope list

(** Certify one plan, checking the envelope bound if given. *)
val report_of_plan : ?slots:int list -> ?env:envelope -> plan -> report

(** [run ()] certifies the solver's schedule for every builtin envelope;
    [seed_conflict:true] appends the planted-conflict plan, which must
    fail. *)
val run : ?slots:int list -> ?seed_conflict:bool -> unit -> report list

val ok : report list -> bool
val pp_report : Format.formatter -> report -> unit

(** Flat verdict rows for the [mdsp check] JSON: ["constraints.ok"] plus
    per-workload [".ok"/".proper"/".once"/".disjoint"/".envelope"] rows. *)
val json_rows : report list -> (string * bool) list
