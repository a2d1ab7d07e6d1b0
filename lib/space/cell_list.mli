(** Spatial binning over an orthorhombic periodic box, stored compressed
    (CSR): particles are counting-sorted by cell, so each cell is a
    contiguous slice of one flat index array, and their coordinates are
    copied into flat columns in that same cell-sorted order — the layout
    the tiled neighbor-list rebuild scans directly.

    Particles are binned into cells of edge at least the interaction cutoff,
    so all pairs within the cutoff are found by scanning each cell and its 26
    periodic neighbors (half of them, for half-enumeration). Binning uses
    floored division and a positive modulo, so coordinates outside the
    primary box (constraint drift, chain random walks) land in the correct
    periodic cell instead of being clamped to a boundary cell. *)

open Mdsp_util

type t

(** [build ?exec box positions ~cutoff] bins the positions (wrapped or not).
    The cell edge is the smallest length >= cutoff that divides each box
    edge evenly; if a box edge is shorter than [3 * cutoff] the structure
    still works but degenerates toward all-pairs in that dimension.

    The per-atom bin phase runs tiled on [exec] (default serial) and
    declares its write-set (resource ["cell.bin"]) plus its per-tile read
    of the positions for the race sanitizer; [positions_resource] (default
    ["state.positions"]) names the position array in the dataflow graph —
    the decomposition layer passes its own working copy's name. The counting
    sort that follows, and the copy of the coordinates into the cell-sorted
    columns, run serially on the calling domain.
    The result is a pure function of [box], [positions] and [cutoff] —
    identical for any executor or slot count. *)
val build :
  ?exec:Exec.t -> ?positions_resource:string -> Pbc.t -> Vec3.t array ->
  cutoff:float -> t

(** An empty structure (no particles), to be filled by {!update}. *)
val create : unit -> t

(** [update ?exec ?positions_resource t box positions ~cutoff] rebuilds [t]
    in place: the result is the structure {!build} would return, and [t]'s
    storage is reused, so an update with no more particles and cells than
    any earlier one allocates nothing. *)
val update :
  ?exec:Exec.t -> ?positions_resource:string -> t -> Pbc.t -> Vec3.t array ->
  cutoff:float -> unit

(** Number of cells along each axis. *)
val dims : t -> int * int * int

(** True if some axis has fewer than 3 cells, forcing the all-pairs
    fallback. *)
val degenerate : t -> bool

(** Number of tiling units for {!iter_within}: the cell count, or the
    particle count for degenerate boxes. Every unordered candidate pair is
    owned by exactly one unit, so a partition of [0, tile_units t) into
    ranges partitions the pair enumeration. *)
val tile_units : t -> int

(** [tile_start t ~ntiles k], for [0 <= k <= ntiles], is the first unit of
    tile [k] when [0, tile_units t) is cut into [ntiles] contiguous runs
    that own near-equal numbers of candidate pairs; tile [k] is
    [[tile_start t ~ntiles k, tile_start t ~ntiles (k + 1))]. The cuts are
    equal runs of home cells, or — in the all-pairs fallback, where unit [i]
    owns the [n - 1 - i] pairs [(i, j > i)] — equal shares of the
    [n (n - 1) / 2] candidates. A pure function of the particle count, the
    cell grid and [ntiles]; allocates nothing. *)
val tile_start : t -> ntiles:int -> int -> int

(** [iter_within t lo hi f] calls [f i j] exactly once for every pair owned
    by a unit in [lo, hi) whose minimum-image distance is within the build
    cutoff: [(dx dx + dy dy) + dz dz <= cutoff²] with [Pbc.min_image]'s
    components, bit for bit, on the positions last binned. The candidates
    are scanned over the flat columns without a call; [f] runs only for
    the pairs in range. Order: home cells ascending; in each, intra-cell
    pairs first, then the 13 half-space neighbor cells in a fixed order;
    within a cell pair, the home particle's slot, then the other's,
    ascending (so ascending particle index in each cell). In the all-pairs
    fallback, [(i, j)] for [i] in [lo, hi) and [j > i], both ascending.
    [iter_within t 0 (tile_units t)] yields every pair in range once. *)
val iter_within : t -> int -> int -> (int -> int -> unit) -> unit

(** [iter_neighbors t i f] calls [f j] for each candidate neighbor [j <> i]
    of particle [i] (both orders; a given unordered pair appears in both
    particles' neighbor scans). *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** Cell index assigned to particle [i]. *)
val cell_of : t -> int -> int
