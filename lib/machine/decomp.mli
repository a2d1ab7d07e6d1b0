(** Multi-node spatial decomposition with midpoint-cell pair assignment.

    Splits a workload's periodic box into an [nx * ny * nz] grid of home
    boxes, one per node of the machine's 3D torus ({!Torus}; owner rank
    linearization is x-fastest, identical to [Torus.rank]). Each node owns
    the atoms inside its home box and {e imports} the atoms within
    [cutoff / 2] of it — the neutral-territory (midpoint) import region,
    which is smaller than a half shell of full-cutoff depth.

    {2 Exactly-once pair assignment}

    An interacting pair [(i, j)] is assigned to the node whose home box
    contains the minimum-image midpoint of [i] and [j] (GENESIS
    SPDYN-style midpoint-cell rule). Because the midpoint is a pure
    function of the two positions, every pair has exactly one owner; and
    because each endpoint lies within [cutoff / 2] of the midpoint, both
    endpoints are guaranteed resident (home or import) on that owner.
    {!analyze} checks both properties on real coordinates: the per-node
    assignment totals must reproduce an independent single-node cell-list
    pair count ([singlenode_pairs]), and every assigned pair's endpoints
    must be resident on its owner ([residency_violations = 0]); the
    conjunction is [pair_once_ok].

    {2 Determinism contract}

    [analyze] runs its three phases on the {!Mdsp_util.Exec} pool
    (per-atom owner scan, per-atom resident-set scan, tiled pair
    assignment over the cell list's units), each declaring its write-set
    for the race sanitizer (resources ["decomp.owner"],
    ["decomp.resident"], ["decomp.pairs"]; the cell-list build itself
    declares ["cell.bin"]). Per-slot partial counts are merged by integer
    addition, so the resulting {!stats} is a pure function of the box,
    node grid, cutoff, and positions — bit-identical for any executor or
    slot count.

    Distances are in angstroms throughout; counts are atoms or pairs. *)

open Mdsp_util

type t

(** [create box ~nodes ~cutoff] prepares a decomposition of [box] over a
    [nodes = (nx, ny, nz)] torus with interaction cutoff [cutoff]
    (angstroms). Raises [Invalid_argument] if any dimension or the cutoff
    is non-positive. *)
val create : Pbc.t -> nodes:int * int * int -> cutoff:float -> t

val dims : t -> int * int * int
val node_count : t -> int

(** The torus the decomposition maps onto (same rank numbering). *)
val torus : t -> Torus.t

(** Home-box edge lengths [(hx, hy, hz)], angstroms. *)
val edges : t -> float * float * float

(** Rank of the node whose home box contains the (wrapped) position. *)
val owner : t -> Vec3.t -> int

(** [pair_owner t a b] is the rank owning the minimum-image midpoint of
    [a] and [b] — the node that computes this pair. *)
val pair_owner : t -> Vec3.t -> Vec3.t -> int

(** Everything {!analyze} measures on one set of coordinates. *)
type stats = {
  nodes : int * int * int;  (** the torus dims the frame was decomposed on *)
  n_atoms : int;
  owner_of_atom : int array;  (** home rank per atom index *)
  home_atoms : int array;  (** per rank: atoms whose home box it is *)
  import_atoms : int array;
      (** per rank: remote atoms within [cutoff / 2] of its home box
          (the midpoint import region), i.e. atoms it must receive *)
  pairs_per_node : int array;
      (** per rank: interacting pairs assigned by the midpoint rule *)
  imports : (int * int * int) array;
      (** per directed import edge [(dst, src, atoms)]: node [src] sends
          [atoms] of its home atoms to node [dst]; sorted, counts > 0 *)
  n_pairs : int;  (** total pairs assigned across all nodes *)
  singlenode_pairs : int;
      (** independent serial single-node cell-list count of interacting
          pairs — the reference for the exactly-once check *)
  residency_violations : int;
      (** assigned pairs with an endpoint not resident on the owner
          (must be 0) *)
  pair_once_ok : bool;
      (** [n_pairs = singlenode_pairs && residency_violations = 0] *)
}

(** [analyze ?exec t positions] decomposes one frame: owners, resident
    sets, per-node pair assignment, import traffic, and the exactly-once
    validation. Positions may be wrapped or not (wrapping is applied).
    See the determinism contract above; [exec] defaults to
    {!Exec.serial}. Raises [Invalid_argument] if the cutoff exceeds half
    the shortest box edge (the minimum-image regime the midpoint rule
    relies on). *)
val analyze : ?exec:Exec.t -> t -> Vec3.t array -> stats

(** Largest per-node pair count — the quantity the {!Mdsp_verify}
    datapath envelopes pin per-node accumulator budgets with. *)
val max_pairs_per_node : stats -> int

(** O(n{^ 2}) reference: interacting pair count by brute-force
    minimum-image distance test. For tests on small boxes. *)
val brute_pairs : t -> Vec3.t array -> int

(** {2 Analytic import model}

    The counting and volume view of three import policies, for the
    performance model and the A5 communication ablation:

    - [Full_shell]: import everything within the cutoff of the home box
      (each pair computed twice, no pair-result communication);
    - [Half_shell]: import only the half-space shell (each pair computed
      once; forces for imported particles are communicated back);
    - [Midpoint]: neutral-territory — the region {!analyze} realizes atom
      by atom, everything within [cutoff / 2] of the home box (a full
      shell of half the depth, the smallest of the three when home boxes
      are small against the cutoff; forces are returned like
      [Half_shell]).

    Half-shell-class methods are what Anton-class machines use. *)

type policy = Full_shell | Half_shell | Midpoint

(** [assign t positions] returns [home.(node)] = indices owned by each
    node, ascending. *)
val assign : t -> Vec3.t array -> int array array

(** Volume of a single home box. *)
val home_volume : t -> float

(** Analytic import volume per node: the volume of the import region
    around one home box under [policy]. *)
val import_volume : t -> policy:policy -> float

(** [import_counts t ~policy positions] returns, per node, the number of
    remote particles the node must import under [policy] (Half_shell
    halves the ordered count, rounding up). *)
val import_counts : t -> policy:policy -> Vec3.t array -> int array
