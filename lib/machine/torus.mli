(** 3D-torus topology of the multi-node machine.

    Pure geometry: node naming and hop distances on an [nx * ny * nz]
    wrap-around grid. Ranks are linearized x-fastest
    ([rank = x + nx * (y + ny * z)]), matching the home-box owner
    convention of {!Decomp}, so a decomposition
    owner index is directly a torus rank.

    All functions are total over valid ranks and allocation-free; results
    depend only on the grid dimensions, never on timing or executor
    state. *)

type t

(** [create (nx, ny, nz)] builds a torus with the given dimensions.
    Raises [Invalid_argument] unless all three are positive. *)
val create : int * int * int -> t

val dims : t -> int * int * int

(** [nx * ny * nz]. *)
val node_count : t -> int

(** [rank t (x, y, z)] linearizes coordinates (each taken modulo its
    dimension, so out-of-range and negative coordinates wrap). *)
val rank : t -> int * int * int -> int

(** Inverse of {!rank} for ranks in [0, node_count). Raises
    [Invalid_argument] outside that range. *)
val coords : t -> int -> int * int * int

(** [axis_hops n a b] is the wrap-around distance between positions [a]
    and [b] on a ring of [n] nodes: [min (|a - b| mod n, n - |a - b| mod
    n)]. Hops are link traversals (dimensionless counts). *)
val axis_hops : int -> int -> int -> int

(** [hops t a b] is the minimal number of link traversals between ranks
    [a] and [b]: the Manhattan sum of per-axis wrap-around distances
    (dimension-ordered routing is minimal on a torus). Symmetric:
    [hops t a b = hops t b a]; zero iff [a = b]. *)
val hops : t -> int -> int -> int

(** Maximum of {!hops} over all node pairs: [nx/2 + ny/2 + nz/2]. *)
val diameter : t -> int
