(** Gaussian-split Ewald (GSE)–style grid electrostatics.

    This is the machine-friendly long-range solver — the stage the
    special-purpose machine backs with dedicated hardware. Charges are
    spread onto a regular grid with Gaussians of width [sigma_s], the
    Poisson equation is solved in k-space by FFT with a modified influence
    function, and forces are interpolated back with the gradient of the
    same Gaussians. Combined with the real-space [erfc] pair term this
    reproduces classic Ewald up to controllable grid/spreading error —
    which is what the E3 experiment quantifies. The reciprocal scalar
    virial is accumulated (the total k-space kernel equals Ewald's, so the
    same per-mode formula applies), enabling constant-pressure runs with
    grid electrostatics.

    {2 Units}

    Positions and box lengths are in Angstrom, charges in elementary
    charges, [beta] in 1/Angstrom; energies returned in kcal/mol and forces
    in kcal/mol/Angstrom (the Coulomb constant is applied internally via
    {!Mdsp_util.Units.coulomb}).

    {2 Execution and determinism}

    Every stage of {!reciprocal} can run on an execution backend
    ({!Mdsp_util.Exec.t}): charge spreading uses one private scratch grid
    per pool slot combined by a fixed-shape tree reduction (at one slot,
    slot 0 spreads straight into the grid and the combine folds nothing),
    the FFT sweeps
    tile their independent 1-D lines over the pool, the k-space convolution
    tiles grid points with tree-combined energy/virial partials, and force
    gathering tiles particles (disjoint per-particle writes, no reduction).
    Consequences:

    - for a fixed slot count, parallel runs are {e bitwise reproducible}
      (static tiles, fixed reduction shapes);
    - serial and parallel results differ only by floating-point summation
      order in the spread and convolve reductions — relative differences at
      rounding level (the test suite enforces <= 1e-10).

    {2 Separable kernels}

    The spreading Gaussian factorises per axis. For each charge, spread and
    gather fill per-axis tables once — wrapped grid index, displacement,
    squared displacement and the 1-D factor [exp (-d^2 / 2 sigma^2)] at
    each of the [2s + 1] stencil offsets — and then walk the stencil with
    multiplies only, without allocating. The stencil is truncated at
    4 [sigma_s] by a spherical cut on [(dx^2 + dy^2) + dz^2].

    - Results agree with the direct form (one [exp] of the full squared
      distance per stencil point) to rounding: the two visit the same grid
      points and differ only in how each weight is rounded (the test suite
      enforces 1e-12 relative).
    - A handle owns its grids (the charge/potential grid, per-slot scratch
      grids and stencils, reused across calls), so two callers must not use
      one handle at the same time.
    - A handle is built for one box ({!box}); {!with_box} rebuilds it for
      another. [Mdsp_md.Force_calc] does so whenever it is passed a box
      that differs, so an engine's handle follows the box under a
      barostat.

    Grid dimensions must be powers of two. *)

open Mdsp_util

type t

(** Wall-clock seconds spent in each grid-pipeline stage of one or more
    {!reciprocal} calls; both FFT passes charge [fft_s], the Ghat scaling,
    energy/virial accumulation and potential-grid rescale charge
    [convolve_s]. Fields are {e incremented} by each call, so a zeroed
    record passed to a single call reads back that call's times. *)
type phases = {
  mutable spread_s : float;  (** charge spreading onto the grid *)
  mutable fft_s : float;  (** forward + inverse 3D FFT *)
  mutable convolve_s : float;  (** k-space scale-by-Ghat + energy/virial *)
  mutable gather_s : float;  (** per-particle force interpolation *)
}

(** A fresh all-zero {!phases} record. *)
val zero_phases : unit -> phases

(** Sum of the four phase buckets. *)
val phases_total : phases -> float

(** [create ~beta ~grid:(nx, ny, nz) ?sigma_s box]. [sigma_s] defaults to
    [1 / (2 sqrt 2 beta)] (must be <= 1/(2 beta)); charges spread to
    4 [sigma_s]. Precomputes the influence function; cost O(nx ny nz). *)
val create :
  beta:float -> grid:int * int * int -> ?sigma_s:float -> Pbc.t -> t

(** [with_box t box] is a fresh handle for [box] with [t]'s [beta],
    [sigma_s] and grid — what {!create} gives with those arguments. *)
val with_box : t -> Pbc.t -> t

(** [reciprocal ?exec ?phases t charges positions acc] adds
    reciprocal-space forces and the reciprocal virial into [acc] and
    returns the reciprocal energy in kcal/mol (self/excluded corrections
    not included — use {!Ewald.self_energy} and
    {!Ewald.excluded_correction}, which depend only on [beta]).

    [exec] (default {!Mdsp_util.Exec.serial}) runs every stage — spread,
    FFT, convolve, gather — on the pool as described above, and its phase
    clock times each stage by phase name ([gse.spread], [gse.combine],
    [gse.fft_fwd.*], [gse.convolve], [gse.fft_inv.*], [gse.phi_scale],
    [gse.gather]); [phases] additionally accumulates per-stage wall time
    when provided. The grid, the per-slot scratch grids (two or more
    slots only) and stencils are cached inside [t] and reused across
    calls. Positions may lie anywhere; each is wrapped into [t]'s box. *)
val reciprocal :
  ?exec:Exec.t -> ?phases:phases ->
  t -> float array -> Vec3.t array -> Mdsp_ff.Bonded.accum -> float

(** The Ewald splitting parameter (1/Angstrom) this solver was built for. *)
val beta : t -> float

(** Grid dimensions [(nx, ny, nz)]. *)
val grid : t -> int * int * int

(** The box the handle was built for. *)
val box : t -> Pbc.t
