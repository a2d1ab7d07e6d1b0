(** Nonbonded exclusion bookkeeping.

    Bonded atoms (1-2), atoms separated by two bonds (1-3), and optionally
    three bonds (1-4) are excluded from — or scaled in — the nonbonded sum.
    Exclusions are stored as sorted per-atom arrays for O(log k) lookup. *)

type t

(** [of_pairs ~n pairs] builds the exclusion set for [n] atoms from a list of
    excluded (i, j) pairs. Symmetric; self-pairs and duplicates ignored. *)
val of_pairs : n:int -> (int * int) list -> t

(** [from_bonds ~n ~bonds ~through] derives exclusions from the bond graph:
    [through = 2] excludes 1-2 and 1-3; [through = 3] also excludes 1-4. *)
val from_bonds : n:int -> bonds:(int * int) list -> through:int -> t

val excluded : t -> int -> int -> bool
val count : t -> int

(** All excluded pairs (i < j), in ascending order. Built once with the
    set, which is immutable, so every call returns the same list. *)
val pairs : t -> (int * int) list

(** The empty exclusion set for [n] atoms. *)
val empty : n:int -> t
