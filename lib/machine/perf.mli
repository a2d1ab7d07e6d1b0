(** Per-step performance model.

    Converts a workload description into per-step times for each machine
    resource (pair pipelines, flexible subsystem, network, long-range FFT)
    and an aggregate ns/day figure. The machine overlaps communication with
    computation; a step is bounded by its slowest resource plus a global
    synchronization term. All per-resource costs are exposed so the E7
    cycle-breakdown experiment can report them. *)

type workload = {
  n_atoms : int;
  density : float;  (** atoms per cubic angstrom *)
  cutoff : float;
  dt_fs : float;
  bonded_terms : int;
  n_constraints : int;
  flex_ops_per_step : float;
      (** extra programmable-core work added by methods (kernel DSL cost) *)
  pair_passes : float;
      (** multiplier on the pair workload; 1.0 for plain MD, e.g. 2.0 for a
          dual-topology FEP pass *)
  fft_grid : (int * int * int) option;
  method_bytes_per_step : float;
      (** extra per-step communication a method needs (e.g. REMD exchange) *)
}

val plain_workload :
  n_atoms:int -> density:float -> cutoff:float -> dt_fs:float -> workload

(** Derive a workload from an actual system. *)
val of_system :
  ?dt_fs:float -> ?fft_grid:int * int * int ->
  Mdsp_ff.Topology.t -> Mdsp_util.Pbc.t -> workload

type breakdown = {
  htis_s : float;  (** pair pipelines *)
  flex_s : float;  (** programmable cores: bonded + integration + methods *)
  comm_s : float;  (** import/export + method communication *)
  fft_s : float;  (** long-range grid work incl. transposes *)
  lr_spread_s : float;  (** long-range sub-phase: charge spreading *)
  lr_fft_s : float;  (** long-range sub-phase: FFT passes + transposes *)
  lr_convolve_s : float;  (** long-range sub-phase: k-space scale-by-Ghat *)
  lr_gather_s : float;  (** long-range sub-phase: force interpolation *)
  sync_s : float;  (** global synchronization *)
  step_s : float;  (** resulting step time *)
}

val step_time : Config.t -> workload -> breakdown

(** Nanoseconds of simulated time per wall-clock day. *)
val ns_per_day : Config.t -> workload -> float

(** [step_time_decomposed cfg w ~comm] is {!step_time} with the network
    terms taken from a priced {!Comm_model.step} (a real decomposition
    frame's import/force-return wire times and, when present, its
    transpose phase replacing the analytic transpose estimate) instead of
    the analytic half-shell import volume. [cfg.nodes] should match the
    node grid [comm] was priced on for the compute terms to be
    consistent. *)
val step_time_decomposed :
  Config.t -> workload -> comm:Comm_model.step -> breakdown

(** ns/day from {!step_time_decomposed}. *)
val ns_per_day_decomposed :
  Config.t -> workload -> comm:Comm_model.step -> float

(** Pairs within the cutoff per step (half counting), from density. *)
val pair_count : workload -> float

(** One line of the model-vs-measurement comparison: the analytic per-step
    time {!step_time} assigns to a machine resource next to the measured
    per-step wall time of the host phases that play the same role. *)
type resource_row = {
  resource : string;
  model_s : float;  (** analytic per-step seconds from {!step_time} *)
  measured_s : float option;  (** measured per-step seconds, when mapped *)
}

(** [resource_rows ?comm breakdown ~steps phases] pairs each modeled
    resource with the host phases that would run on it. [phases] is an
    executor's phase clock ({!Mdsp_util.Exec.phase_times}) over a run of
    [steps] steps; each measured value is the sum of the row's phases
    divided by [steps]. This is the one place that maps phase names to
    machine resources:

    - pair pipelines <- [pair] + [pair14];
    - flex cores <- [bonded] + [bias] (the serial bias and transform
      pass, where the paper's method biases run);
    - long-range <- every [gse.*] phase, with indented sub-rows spread
      ([gse.spread] + [gse.combine]), fft ([gse.fft_*]), convolve
      ([gse.convolve] + [gse.phi_scale]) and gather ([gse.gather]);
    - network <- [cell.bin] + [nbuild], with an indented [nbuild] sub-row;
    - step <- every charged phase.

    A row none of whose phases was charged has [measured_s = None]; so
    does every row when [phases] is empty or [steps <= 0]. [sync] has no
    host analogue and is always [None].

    [?comm] appends the priced torus phases (import / force return /
    grid transpose, from {!Comm_model.phases}) as indented sub-rows of
    the network row; wire times have no host analogue, so their
    [measured_s] is [None]. *)
val resource_rows :
  ?comm:Comm_model.step ->
  breakdown ->
  steps:int ->
  (string * float) list ->
  resource_row list
