(** The simulation driver.

    A velocity-Verlet core with optional Langevin (BAOAB), Berendsen, or
    Nosé–Hoover-chain thermostatting, Berendsen or Monte-Carlo barostatting,
    SHAKE/RATTLE constraints, and optional RESPA multiple-time-stepping.

    The driver exposes the plugin surface the generality layer builds on:
    force biases are registered on the {!Force_calc.t}, and per-step logic
    (hill deposition, exchange attempts, pulling schedules) registers as
    post-step hooks. All times at this API are femtoseconds. *)

open Mdsp_util

type thermostat =
  | No_thermostat
  | Langevin of { gamma_fs : float }  (** friction, inverse femtoseconds *)
  | Berendsen of { tau_fs : float }
  | Nose_hoover of { tau_fs : float }

type barostat =
  | No_barostat
  | Berendsen_baro of { tau_fs : float; pressure_atm : float }
      (** isotropic position/box scaling; pair best with constraints-free or
          SHAKE-corrected systems *)
  | Monte_carlo_baro of { interval : int; pressure_atm : float; max_dlnv : float }
      (** stochastic volume moves; intended for unconstrained systems *)

type config = {
  dt_fs : float;
  temperature : float;  (** kelvin; thermostat target *)
  thermostat : thermostat;
  barostat : barostat;
  respa_inner : int option;
      (** when [Some k], bonded (fast) forces are integrated with k inner
          steps per outer step of the nonbonded (slow) forces. A step
          evaluates the fast class k + 1 times, at its start and after each
          inner drift, and the slow class once at its end, plus once at its
          start when the engine was just created, refreshed or restored
          (its forces then hold every class, which the outer half-kick must
          not reuse). The Nosé–Hoover half-steps bracket the step as they
          bracket velocity Verlet; Langevin applies one O-step and
          Berendsen one rescale per outer step. {!pressure_atm} adds the
          virials of both classes. *)
  remove_com_interval : int;  (** steps between COM-motion removal; 0 = off *)
}

val default_config : config

type t

(** [create ?seed topo force_calc state config] initializes the engine. The
    state should already be thermalized if nonzero initial velocities are
    wanted. *)
val create :
  ?seed:int -> Mdsp_ff.Topology.t -> Force_calc.t -> State.t -> config -> t

val state : t -> State.t
val force_calc : t -> Force_calc.t

val config : t -> config
val rng : t -> Rng.t

(** Number of completed steps. *)
val steps_done : t -> int

(** Energies from the most recent force evaluation. *)
val energies : t -> Force_calc.energies

val potential_energy : t -> float
val kinetic_energy : t -> float
val total_energy : t -> float

(** Instantaneous temperature (constraint-corrected dof). *)
val temperature : t -> float

(** Instantaneous pressure from the virial (atm). *)
val pressure_atm : t -> float

(** Change the thermostat's target temperature (simulated tempering, REMD
    after an exchange). *)
val set_temperature : t -> float -> unit

(** Steepest-descent energy minimization with an adaptive step and a
    per-atom displacement cap of [max_step] (default 0.2 A); constraints are
    re-satisfied after every move. Use before dynamics on systems built with
    overlaps. *)
val minimize : ?max_step:float -> t -> steps:int -> unit

(** Advance one step. The kick, drift, constraint ([constraints.shake],
    [constraints.rattle], [constraints.fold]) and thermostat
    ([thermo.langevin], [thermo.scale]) sweeps run on the force
    calculator's executor as {!Mdsp_util.Exec.sweep} phases. None of them
    reduces across atoms: same-batch constraint clusters are atom-disjoint
    (the [Mdsp_verify.Schedule] certificate) and the O-step draws from
    per-atom derived streams. So under forces that do not depend on the
    slot count, the trajectory is bitwise identical at every slot count. *)
val step : t -> unit

(** Advance [n] steps. *)
val run : t -> int -> unit

(** Force a fresh force/energy evaluation at the current positions (after
    external position edits, evaluator swaps, or bias changes). *)
val refresh_forces : t -> unit

(** Everything needed to continue a run bit-for-bit: a deep copy of the
    dynamic {!State}, the step counter, the thermostat target and
    Nosé–Hoover chain velocities, Monte-Carlo barostat counters, the
    engine's RNG stream, the in-flight forces/energies/virial, and the
    neighbor list's reference positions and box. Post-step hooks are not
    captured — re-register them after {!restore}. *)
type snapshot = {
  snap_state : State.t;
  snap_steps : int;
  snap_temperature : float;
  snap_rng : Rng.snapshot;
  snap_nhc : (float * float) option;  (** chain velocities (v1, v2) *)
  snap_mc_baro : int * int;  (** MC barostat (accepts, attempts) *)
  snap_energies : Force_calc.energies;
  snap_forces : Vec3.t array;
  snap_virial : float;
  snap_nlist_box : Pbc.t;
  snap_nlist_ref : Vec3.t array;
}

val snapshot : t -> snapshot

(** [restore t s] rewinds (or fast-forwards) [t] to the snapshot: continuing
    with [step]/[run] afterwards reproduces the run the snapshot was taken
    from exactly, step for step and bit for bit, because the forces in
    flight and the neighbor-list reference are reinstated rather than
    recomputed. Under RESPA the first step evaluates the slow class again,
    a function of the restored positions and list, so it reproduces the
    forces the interrupted run held. [t] must have been built for the same
    system (atom count, topology, thermostat/barostat configuration).
    Raises [Invalid_argument] on an atom-count mismatch. *)
val restore : t -> snapshot -> unit

(** Register a callback run after every completed step. *)
val add_post_step : t -> name:string -> (t -> unit) -> unit

val remove_post_step : t -> string -> bool

(** Degrees of freedom used for temperature (3N - constraints - 3). *)
val dof : t -> int

(** Constraint solver in use (for violation checks in tests). *)
val constraints : t -> Constraints.t
