(** Spatial binning over an orthorhombic periodic box, stored compressed
    (CSR): particles are counting-sorted by cell, so each cell is a
    contiguous slice of one flat index array — the layout the SoA force
    kernels and the tiled neighbor-list rebuild consume directly.

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
    the decomposition layer passes its own working copy's name.
    The result is a pure function of [box], [positions] and [cutoff] —
    identical for any executor or slot count. *)
val build :
  ?exec:Exec.t -> ?positions_resource:string -> Pbc.t -> Vec3.t array ->
  cutoff:float -> t

(** Number of cells along each axis. *)
val dims : t -> int * int * int

(** True if some axis has fewer than 3 cells, forcing the all-pairs
    fallback. *)
val degenerate : t -> bool

(** Number of tiling units for {!iter_range_pairs}: the cell count, or the
    particle count for degenerate boxes. Every unordered candidate pair is
    owned by exactly one unit, so a partition of [0, tile_units t) into
    ranges partitions the pair enumeration. *)
val tile_units : t -> int

(** [tile_bounds t ~ntiles] cuts [0, tile_units t) into [ntiles]
    contiguous half-open ranges that own near-equal numbers of candidate
    pairs: equal runs of home cells, or — in the all-pairs fallback, where
    unit [i] owns the [n - 1 - i] pairs [(i, j > i)] — cuts at equal shares
    of the [n (n - 1) / 2] candidates. A pure function of the particle
    count, the cell grid and [ntiles]. *)
val tile_bounds : t -> ntiles:int -> (int * int) array

(** [iter_range_pairs t lo hi f] calls [f i j] exactly once for every
    candidate pair owned by a unit in [lo, hi) — the tile primitive the
    parallel neighbor-list rebuild is built on. [iter_range_pairs t 0
    (tile_units t)] enumerates every pair exactly once. *)
val iter_range_pairs : t -> int -> int -> (int -> int -> unit) -> unit

(** [iter_pairs t f] calls [f i j] exactly once for every unordered pair of
    distinct particles whose minimum-image distance may be within the cutoff
    (i.e. all pairs in the same or neighboring cells, i < j not guaranteed,
    but each unordered pair exactly once). *)
val iter_pairs : t -> (int -> int -> unit) -> unit

(** [iter_neighbors t i f] calls [f j] for each candidate neighbor [j <> i]
    of particle [i] (both orders; a given unordered pair appears in both
    particles' neighbor scans). *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** Cell index assigned to particle [i]. *)
val cell_of : t -> int -> int
