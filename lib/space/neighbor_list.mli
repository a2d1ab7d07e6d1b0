(** Verlet neighbor lists with a skin radius.

    The list stores all non-excluded pairs within [cutoff + skin]; it stays
    valid until some particle has moved more than [skin / 2] since the last
    rebuild, at which point [maybe_rebuild] rebuilds it. This is the standard
    trade-off the A3 ablation experiment sweeps.

    A rebuild bins the positions ({!Cell_list.update}: CSR counting sort
    plus cell-sorted coordinate columns), then runs {!Cell_list.iter_within}
    over a fixed number of tiles of home cells — the load-balancing grain,
    independent of the executor width. The scan reads the flat columns
    without a call per candidate; only the pairs within [cutoff + skin]
    reach the exclusion check and the append. [Exec.sweep] hands each slot
    a contiguous run of tiles, slot 0 the first: slot 0 appends straight
    into the list's own arrays, every other slot into a private buffer,
    and those are appended in slot order after the sweep. The result is the
    serial scan order, so the stored pair list (content and order) is a
    pure function of the positions — bitwise identical across serial and
    any pool size — while the work runs as sanitized parallel [Exec] phases
    (resources ["cell.bin"] and ["nlist.tiles"]). The executor's phase
    clock times a rebuild as its [cell.bin] and [nbuild] phases.

    The cell structure, the coordinate columns, the reference positions
    and the pair buffers are kept across rebuilds, so a rebuild on a system
    whose list does not grow allocates no storage, and {!needs_rebuild}
    allocates nothing. *)

open Mdsp_util

(** [create ?exclusions ?exec ~cutoff ~skin box positions] builds the list.
    [exec] (default serial) is the executor every rebuild runs on; the pair
    list content does not depend on it. *)

type t

val create :
  ?exclusions:Exclusions.t -> ?exec:Exec.t -> cutoff:float -> skin:float ->
  Pbc.t -> Vec3.t array -> t

(** Number of stored pairs. *)
val length : t -> int

(** The underlying flat index arrays ([i]s and [j]s, parallel, i < j; only
    indices below {!length} are meaningful). Shared with the list and
    invalidated by the next rebuild; read-only by convention. The SoA pair
    kernels iterate these directly so their inner loop stays closure- and
    allocation-free, and the machine model's pair passes
    ([Mdsp_machine.Htis], [Mdsp_machine.Machine_sim]) index them by pair
    id without building a tuple per pair. *)
val raw_pairs : t -> int array * int array

(** [iter t f] applies [f i j] to every stored pair. *)
val iter : t -> (int -> int -> unit) -> unit

(** Tiled view of the pair list for static domain-parallel scheduling:
    [tiles t ~ntiles] cuts the pairs into [ntiles] contiguous half-open
    ranges of near-equal size (see {!Mdsp_util.Exec.tile_bounds}). The
    ranges are only valid until the next rebuild. *)
val tiles : t -> ntiles:int -> (int * int) array

(** [iter_range t lo hi f] applies [f i j] to the stored pairs with indices
    in [lo, hi) — one tile of {!tiles}. *)
val iter_range : t -> int -> int -> (int -> int -> unit) -> unit

(** True if some particle moved more than skin/2 since the last build:
    [Pbc.dist2] against the reference positions, on the same bits.
    Allocates nothing. *)
val needs_rebuild : t -> Vec3.t array -> bool

(** Rebuild unconditionally for the given positions (and possibly new box,
    for barostats). Returns the number of rebuilds performed so far. *)
val rebuild : ?box:Pbc.t -> t -> Vec3.t array -> int

(** Rebuild only if [needs_rebuild]; returns true if a rebuild happened. *)
val maybe_rebuild : ?box:Pbc.t -> t -> Vec3.t array -> bool

(** Total rebuild count (for the ablation bench). *)
val rebuild_count : t -> int

(** A fresh array of the positions the list was last built from (the list
    keeps them as flat columns). Checkpoints record these so a restart can
    {!rebuild} from the same reference and reproduce both the pair list
    (content and order) and the displacement tracking of the interrupted
    run exactly. *)
val ref_positions : t -> Vec3.t array

val cutoff : t -> float
val skin : t -> float
val box : t -> Pbc.t
