(** Metadynamics: history-dependent Gaussian bias over k collective
    variables.

    Hills of height [height] and per-CV widths [sigmas] are deposited at the
    current CV point every [stride] steps; the accumulated bias discourages
    revisiting sampled regions, and its negative converges to the free
    energy over the CVs (up to a constant). [well_tempered] enables height
    decay with an effective delta-T, giving the well-tempered variant whose
    estimate is scaled by (T + dT)/dT.

    One hill at center c with height h contributes, at CV point s,
    [w = h exp(-q/2)] with [q = sum_k d_k^2] and [d_k = (s_k - c_k)/sigma_k]
    (summed over k in CV order), and [w * (-d_k/sigma_k)] to dV/ds_k. The
    force pass visits each hill once, newest first, computing its weight
    and its gradient share together into per-instance scratch, so it
    allocates nothing per hill; {!bias_energy} sums the same weights in the
    same order.

    The read-outs depend on k: {!free_energy_estimate} needs one CV,
    {!free_energy_surface} and {!ridge_path} need two; on any other k they
    raise [Invalid_argument].

    On the machine, the hill sum evaluates on the programmable cores;
    {!flex_ops_per_step} feeds the mapping layer. *)

type t

(** [create ?well_tempered ~cvs ~sigmas ~height ~stride ~temp ()] biases
    the CVs [cvs], with hill width [sigmas.(k)] along [cvs.(k)]. Raises
    [Invalid_argument] when there is no CV, when [cvs] and [sigmas] differ
    in length, or when a sigma, [height] or [stride] is not positive. *)
val create :
  ?well_tempered:float ->
  cvs:Cv.t array ->
  sigmas:float array ->
  height:float ->
  stride:int ->
  temp:float ->
  unit ->
  t

(** Register the bias and the deposition hook on an engine, both named
    ["metadynamics"]. *)
val attach : t -> Mdsp_md.Engine.t -> unit

(** Current bias potential at a CV point (one value per CV; raises
    [Invalid_argument] otherwise). *)
val bias_energy : t -> float array -> float

(** Hills deposited so far. *)
val n_hills : t -> int

(** [free_energy_estimate t ~lo ~hi ~bins] is [(s, F(s))] with
    [F = -bias] (scaled appropriately if well-tempered), not yet shifted.
    One CV only. *)
val free_energy_estimate :
  t -> lo:float -> hi:float -> bins:int -> (float * float) array

(** [free_energy_surface t ~lo1 ~hi1 ~bins1 ~lo2 ~hi2 ~bins2] is the grid
    of (s1, s2, F) with F = -bias (scaled if well-tempered), not shifted.
    Two CVs only. *)
val free_energy_surface :
  t ->
  lo1:float -> hi1:float -> bins1:int ->
  lo2:float -> hi2:float -> bins2:int ->
  (float * float * float) array array

(** Minimum-free-energy value of s2 for each s1 column of the surface —
    a path estimate comparable to the string method's. Two CVs only. *)
val ridge_path :
  t ->
  lo1:float -> hi1:float -> bins1:int ->
  lo2:float -> hi2:float -> bins2:int ->
  (float * float) array

(** Programmable-core cost for the mapping layer: the CVs' own costs plus
    100 ops per CV and 100 for the hill sum. *)
val flex_ops_per_step : t -> float
