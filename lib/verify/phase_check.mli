(** Exec race sanitization driver — the third verification pass.

    Runs representative workloads through every parallel phase in the force
    stack and the engine — pair tiles, 1-4 pairs, bonded tiles, per-atom
    reductions (of the flat store, and of the boxed oracle kernels), the
    GSE grid pipeline (spread / combine / FFT sweeps / convolve / phi
    scale / gather), the boxed<->SoA sync, the integrator
    kick/drift sweeps, the SHAKE/RATTLE cluster sweeps with the
    constraint velocity fold, the thermostat sweeps (Langevin O-step,
    velocity rescale), the decomposition scans, service-scheduler batches
    and the bare collective — on a pool created with
    [Exec.create ~sanitize:true]. In that mode each slot declares the index
    ranges it writes and reads, and every barrier checks the full conflict
    matrix: write ranges from different slots must be pairwise disjoint, no
    read range on one slot may overlap a write range on another slot, and
    declared extents must be covered. Any violation raises
    {!Mdsp_util.Exec.Race} naming the resource and the offending slots.

    A clean run is evidence that the static tiling really partitions the
    work: no two slots can race on any cell, at this slot count, on these
    phases. *)

open Mdsp_util

(** The named workload windows, shared with {!Dataflow}. Each window's
    function performs its setup (engine or queue construction — including
    the force evaluation engine creation runs) immediately, and returns the
    body to execute as the recorded unit of work. Recording setup in the
    same window as the body would thread stale cross-evaluation orderings
    through the per-name happens-before graph, so {!Dataflow} installs its
    observer only around the body. *)
val windows : (string * (exec:Exec.t -> unit -> unit -> unit)) list

(** [make_exec ~slots] builds a sanitizing executor: a serial one at one
    slot, a domains pool otherwise. Raises [Invalid_argument] for
    [slots < 1]. The caller must [Exec.shutdown] it. *)
val make_exec : slots:int -> Exec.t

(** [run_phases ~slots] drives every window, setup included, on a
    sanitizing pool of [slots] domains. Returns the distinct phase names
    the validated barriers carried, read through
    {!Mdsp_util.Exec.set_observer} and sorted. Raises
    {!Mdsp_util.Exec.Race} on any conflict-matrix violation. *)
val run_phases : slots:int -> string list
