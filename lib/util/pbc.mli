(** Orthorhombic periodic boundary conditions.

    The machine model, the force fields, and the neighbor search all agree on
    this representation: an orthorhombic box with edge lengths [lx, ly, lz]
    and coordinates wrapped into [0, l). *)

type t = { lx : float; ly : float; lz : float }

val cubic : float -> t
val make : lx:float -> ly:float -> lz:float -> t
val volume : t -> float

(** Scale all edges by a factor (used by barostats). *)
val scale : t -> float -> t

(** Wrap a position into the primary cell [0, l)^3. *)
val wrap : t -> Vec3.t -> Vec3.t

(** Minimum-image displacement [a - b]. Correct for separations up to half
    the shortest edge. Each component is [d -. l *. Float.round (d /. l)]
    with [d] the raw difference and [l] the edge, bit for bit for every
    float [d] (signed zeros, ties at [+-l/2], NaN and infinities included);
    the common cases [|d / l| < 1.5] take a branch instead of the rounding
    call. The flat pair loops and the neighbor search compute the same
    expression on unboxed coordinates, so every path agrees on which pairs
    are in range. *)
val min_image : t -> Vec3.t -> Vec3.t -> Vec3.t

(** Minimum-image squared distance. *)
val dist2 : t -> Vec3.t -> Vec3.t -> float

val dist : t -> Vec3.t -> Vec3.t -> float

(** Shortest box edge. *)
val min_edge : t -> float

(** Fractional coordinates in [0,1)^3 of a wrapped position. *)
val to_fractional : t -> Vec3.t -> Vec3.t

val of_fractional : t -> Vec3.t -> Vec3.t
val pp : Format.formatter -> t -> unit
