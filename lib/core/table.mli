(** The interpolation-table compiler — half of the generality story.

    Any radial interaction, analytic or user-supplied, is fitted into the
    hardwired pipelines' piecewise-cubic format ({!Mdsp_machine.Interp_table}).
    Once compiled, the pipelines evaluate it at full speed: the cost of a
    pair interaction is independent of the functional form. The compiler
    reports the accuracy achieved so users can trade table width against
    error (the E1/E2 experiments).

    Fitting is cubic-Hermite per interval in squared distance, matching
    values and derivatives at the knots, so the table is C^1 — important
    because force discontinuities pump energy into a simulation. *)


(** A radial interaction to compile: [f r2 = (energy, f_over_r)]. *)
type radial = float -> float * float

(** [of_form ?shift form ~cutoff] is the radial function of an analytic
    form, energy-shifted to zero at the cutoff when [shift] (default true). *)
val of_form : ?shift:bool -> Mdsp_ff.Nonbonded.form -> cutoff:float -> radial

(** [compile ~r_min ~r_cut ~n ~quantize f] fits [f] on [n] intervals.
    [quantize] (default true) applies the hardware's block fixed-point
    coefficient quantization. *)
val compile :
  r_min:float -> r_cut:float -> n:int -> ?quantize:bool -> radial ->
  Mdsp_machine.Interp_table.t

type error_report = {
  max_abs_energy : float;
  max_abs_force : float;  (** on f_over_r *)
  max_rel_force : float;
      (** relative to local |f_over_r| with an absolute floor *)
  rms_force : float;
  samples : int;
}

(** [accuracy table f ~samples] compares the compiled table against the
    analytic radial on a dense grid of squared distances spanning the table
    domain. *)
val accuracy :
  Mdsp_machine.Interp_table.t -> radial -> ?samples:int -> unit -> error_report

(** [width_for_accuracy ~r_min ~r_cut ~target f] is the smallest
    power-of-two interval count whose max relative force error is below
    [target], or [None] if 65536 intervals still miss it. *)
val width_for_accuracy :
  r_min:float -> r_cut:float -> target:float -> radial -> int option

(** Compile the standard table set for a topology: one LJ table per type
    pair and one shared erfc-Coulomb (or plain/RF) shape table. This is how
    an entire force field boards the machine. *)
val table_set_of_topology :
  Mdsp_ff.Topology.t ->
  cutoff:float ->
  elec:Mdsp_ff.Pair_interactions.electrostatics ->
  n:int ->
  ?quantize:bool ->
  unit ->
  Mdsp_machine.Htis.table_set

(** [machine_evaluator ev] boards an analytic evaluator onto the machine:
    the {!table_set_of_topology} set (2048 intervals per table) for the
    topology, cutoff and electrostatics [ev] records, behind an
    {!Mdsp_machine.Htis.evaluator}. Reading them from [ev] keeps the tables
    on the model the engine runs — Ewald real-space pairs under a grid
    solver, reaction field otherwise. The LJ tables are shifted at the
    cutoff whatever truncation [ev] records. Fails if [ev] records no
    analytic form (table, FEP and custom evaluators). *)
val machine_evaluator :
  Mdsp_ff.Pair_interactions.evaluator ->
  Mdsp_ff.Pair_interactions.evaluator
