(** Molecular topology: atoms, bonded terms, exclusions, constraints.

    A topology is the static description of a system; particle positions and
    velocities live in [Mdsp_md.State]. Indices refer to the global atom
    array. *)

type atom = {
  mass : float;  (** amu *)
  charge : float;  (** units of e *)
  type_id : int;  (** index into the nonbonded type table *)
  name : string;
}

type bond = { i : int; j : int; k : float; r0 : float }
    (** harmonic: k (r - r0)^2 (k includes the 1/2 by convention: energy is
        k*(r-r0)^2) *)

type angle = { i : int; j : int; k : int; k_theta : float; theta0 : float }
    (** harmonic in the angle at j: k_theta (theta - theta0)^2 *)

type dihedral = {
  i : int;
  j : int;
  k : int;
  l : int;
  k_phi : float;
  mult : int;
  phase : float;
}
    (** periodic: k_phi (1 + cos(mult*phi - phase)) *)

type improper = {
  ii : int;
  ij : int;
  ik : int;
  il : int;
  k_xi : float;
  xi0 : float;
}
    (** harmonic improper torsion: k_xi (xi - xi0)^2 with xi the
        i-j-k-l dihedral angle, used to keep planar centers planar *)

type constraint_ = { ci : int; cj : int; dist : float }
    (** holonomic distance constraint solved by SHAKE/RATTLE *)

type virtual_site = {
  vs : int;  (** the massless site *)
  vparents : (int * float) array;
      (** (parent atom, weight); weights sum to 1. The site's position is
          the weighted combination of its parents' positions, and forces on
          it are spread back with the same weights — the linear
          ("TIP4P-style") virtual-site construction. *)
}

type t = {
  atoms : atom array;
  bonds : bond array;
  angles : angle array;
  dihedrals : dihedral array;
  impropers : improper array;
  constraints : constraint_ array;
  virtual_sites : virtual_site array;
  exclusions : Mdsp_space.Exclusions.t;
  pairs14 : (int * int) array;
      (** atom pairs exactly three bonds apart, for scaled 1-4 terms *)
  scale14_lj : float;  (** LJ scale on 1-4 pairs (0 = fully excluded) *)
  scale14_coul : float;  (** Coulomb scale on 1-4 pairs *)
  lj_types : (float * float) array;
      (** per-type (epsilon, sigma); combined by Lorentz–Berthelot *)
}

val n_atoms : t -> int
val masses : t -> float array
val charges : t -> float array

(** Total number of constrained degrees of freedom (one per constraint). *)
val n_constraints : t -> int

val n_virtual_sites : t -> int

(** True if atom [i] is a virtual site. *)
val is_virtual : t -> int -> bool

(** Degrees of freedom for temperature:
    3 (N - n_virtual_sites) - n_constraints - 3 (COM). *)
val dof : t -> int

(** A maximal set of constraints coupled through shared atoms (a rigid
    water is one 3-constraint, 3-atom cluster). [cl_constraints] indexes
    into [constraints], ascending; [cl_atoms] is the sorted union of the
    member endpoints — the cluster's SHAKE/RATTLE read/write footprint. *)
type cluster = { cl_constraints : int array; cl_atoms : int array }

(** Fuse constraints sharing an atom into clusters (union-find). Clusters
    are returned in topology order (by smallest member constraint index),
    so the decomposition is deterministic. Distinct clusters are
    atom-disjoint by construction. *)
val constraint_clusters : t -> cluster array

(** A builder for assembling topologies incrementally. *)
module Builder : sig
  type topo = t
  type t

  val create : unit -> t

  (** Returns the new atom's index. *)
  val add_atom :
    t -> mass:float -> charge:float -> type_id:int -> name:string -> int

  val add_bond : t -> i:int -> j:int -> k:float -> r0:float -> unit
  val add_angle : t -> i:int -> j:int -> k:int -> k_theta:float -> theta0:float -> unit

  val add_dihedral :
    t -> i:int -> j:int -> k:int -> l:int -> k_phi:float -> mult:int ->
    phase:float -> unit

  val add_improper :
    t -> i:int -> j:int -> k:int -> l:int -> k_xi:float -> xi0:float -> unit

  val add_constraint : t -> i:int -> j:int -> dist:float -> unit

  (** [add_virtual_site t ~site ~parents] declares [site] (which must have
      been added as an atom, conventionally with a tiny placeholder mass)
      to be a massless interaction site at the weighted combination of
      [parents]. Weights must sum to 1 (within 1e-9). The site is excluded
      from integration; the engine places it and spreads its forces. *)
  val add_virtual_site : t -> site:int -> parents:(int * float) array -> unit

  (** [set_lj_types t types] supplies the per-type (epsilon, sigma) table. *)
  val set_lj_types : t -> (float * float) array -> unit

  (** [set_scale14 t ~lj ~coul] enables scaled 1-4 interactions (AMBER-style
      fudge factors): 1-4 pairs stay out of the nonbonded sum but are
      evaluated separately at these scales. Default 0 (fully excluded). *)
  val set_scale14 : t -> lj:float -> coul:float -> unit

  (** [finish t ~exclude_through] derives exclusions from the bond +
      constraint graph ([exclude_through] bonds deep, typically 3) and
      returns the immutable topology, recording 1-4 pairs for the scaled
      path when [exclude_through >= 3]. *)
  val finish : ?exclude_through:int -> t -> topo
end
