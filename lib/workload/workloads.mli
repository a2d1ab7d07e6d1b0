(** Workload generators: synthetic systems that exercise the same code paths
    as the paper's biomolecular benchmarks (bonded + nonbonded + long-range +
    constraints) at controllable sizes.

    Each builder returns a {!system}: topology + initial coordinates + box.
    Use {!make_engine} to assemble a ready-to-run {!Mdsp_md.Engine.t}. *)

open Mdsp_util

type system = {
  topo : Mdsp_ff.Topology.t;
  positions : Vec3.t array;
  box : Pbc.t;
  label : string;
}

(** Lennard-Jones fluid (argon-like: eps 0.238 kcal/mol, sigma 3.405 A,
    mass 39.948) on a cubic lattice at reduced density [rho_star]
    (default 0.8). *)
val lj_fluid : ?rho_star:float -> n:int -> unit -> system

(** Kob–Andersen 80:20 binary Lennard-Jones mixture at the canonical
    glass-forming density (rho* = 1.2 in A-A units) — the standard
    supercooled-liquid benchmark. Types: 0 = A (80%), 1 = B (20%). Returns
    the system; note the non-additive cross interactions are installed via
    the returned evaluator maker rather than Lorentz–Berthelot. *)
val kob_andersen : n:int -> unit -> system

(** The Kob–Andersen evaluator with the canonical non-additive parameters
    (AA: 1.0/1.0, AB: 1.5/0.8, BB: 0.5/0.88 in (eps, sigma) relative
    units), scaled to argon-like absolute units. *)
val kob_andersen_evaluator :
  system -> cutoff:float -> Mdsp_ff.Pair_interactions.evaluator

(** Rigid 3-site water box: [n_side]^3 molecules on a lattice at liquid
    density. *)
val water_box : ?seed:int -> n_side:int -> unit -> system

(** Rigid 4-site (TIP4P-class) water box: like {!water_box} but with the
    negative charge on a massless virtual M site — exercises the
    virtual-site machinery end to end. *)
val water_box_tip4p : ?seed:int -> n_side:int -> unit -> system

(** A bead-spring "protein" surrogate: a chain of [n_beads] residues with
    bonds, angles and dihedrals, solvated in an LJ fluid so that the total
    atom count is [n_total] (chain + solvent). Charges alternate +/-q on
    sidechain-like beads when [charged] (default true). *)
val bead_chain :
  ?seed:int -> ?charged:bool -> n_beads:int -> n_total:int -> unit -> system

(** A +q/-q ion pair (default q = 1) solvated in LJ particles; the ions
    start [separation] apart. Used by the umbrella-sampling and steered-MD
    experiments. *)
val ion_pair :
  ?seed:int -> ?separation:float -> ?charge:float -> n_solvent:int -> unit ->
  system

(** The parameters of the double-well potentials {!make_engine} installs
    for {!double_well} and {!double_well_2d}: the barrier height
    (kcal/mol) and the well half-width (Angstrom) both share, and the 2-D
    channel's bow (Angstrom). The verification registry
    ([Mdsp_verify.Check]) certifies its kernel-DSL copies of the two
    biases at these values. *)
val double_well_barrier : float

val double_well_half_width : float
val double_well_2d_bow : float

(** One particle in a quartic double-well external potential
    [v(x) = barrier * ((x/half_width)^2 - 1)^2] along x (y, z harmonic),
    with {!double_well_barrier} and {!double_well_half_width}. The bias
    implementing the well is registered automatically by {!make_engine}
    when the system was built here. Minima sit at [x = +- half_width]
    relative to the box center; the particle starts in the left one. *)
val double_well : unit -> system

(** The external-potential bias for {!double_well} (also used standalone by
    the metadynamics and TAMD experiments). Coordinates are relative to the
    box center. *)
val double_well_bias :
  barrier:float -> half_width:float -> Mdsp_md.Force_calc.bias

(** Analytic free energy of the double well along x at temperature [temp]:
    F(x) = v(x) (the y/z parts separate); useful as the metadynamics
    reference. *)
val double_well_energy : barrier:float -> half_width:float -> float -> float

(** One particle in a 2D double-well external potential
    [v = barrier ((x/a)^2 - 1)^2 + ky (y - bow (1 - (x/a)^2))^2 + kz z^2]
    whose minimum free-energy path bows away from the straight line: minima
    at (+-a, 0), saddle near (0, bow). Used by the string-method experiment.
    [make_engine] registers the bias automatically, with
    {!double_well_barrier}, [a =] {!double_well_half_width} and
    [bow =] {!double_well_2d_bow}, [ky = 1] and [kz = 2]; the particle
    starts in the left well. *)
val double_well_2d : unit -> system

val double_well_2d_bias :
  barrier:float -> half_width:float -> bow:float -> Mdsp_md.Force_calc.bias

(** The minimum-energy path of {!double_well_2d}: y as a function of x. *)
val double_well_2d_path : half_width:float -> bow:float -> float -> float

(** Named benchmark systems of paper-era sizes. *)
type preset = { name : string; atoms : int; build : unit -> system }

val presets : preset list

(** [of_name s] builds the preset named [s], or parses the parametric
    families [lj<N>] (N atoms) and [water<S>] (S molecules per box edge).
    Raises [Failure] with a descriptive message on an unknown name — the
    single place preset spellings are resolved, shared by the CLI and the
    job service. *)
val of_name : string -> system

(** Assemble an engine with sensible defaults: cutoff 9 A (or less for small
    boxes), reaction-field electrostatics for charged systems, Verlet skin 1
    A. [config] defaults to {!Mdsp_md.Engine.default_config}; [exec]
    (default serial) selects the execution backend the force pipeline runs
    on.

    [gse_grid] switches a charged system to grid electrostatics: real-space
    Ewald pairs ([Ewald_real], beta = 3/cutoff) plus the GSE reciprocal
    solver on the given power-of-two grid, all phases of which run on
    [exec]. Ignored for uncharged systems; an explicit [elec] still wins
    for the pair part.

    [soa] is ignored: every engine runs its force phases on the flat
    store ({!Mdsp_md.Force_calc.create}). The label is kept so that
    callers passing it still compile. *)
val make_engine :
  ?config:Mdsp_md.Engine.config ->
  ?cutoff:float ->
  ?elec:Mdsp_ff.Pair_interactions.electrostatics ->
  ?gse_grid:int * int * int ->
  ?seed:int ->
  ?exec:Exec.t ->
  ?soa:bool ->
  system ->
  Mdsp_md.Engine.t
