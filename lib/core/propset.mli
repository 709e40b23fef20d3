(** Property sets — the common currency of queries and classifiers.

    A query {e is} its set of properties, and so is a classifier
    (Section 2.1: [Q ⊆ 2^P], [CL ⊆ 2^P]).  Sets are stored as sorted,
    duplicate-free int arrays; query length is bounded (the paper caps
    it at 6), so all per-set operations are effectively constant
    time. *)

type t

val empty : t
val singleton : int -> t
val of_list : int list -> t
(** Sorts and deduplicates. *)

val of_array : int array -> t
val to_list : t -> int list
val to_array : t -> int array
(** Fresh array, ascending. *)

val length : t -> int
val is_empty : t -> bool
val mem : int -> t -> bool
val subset : t -> t -> bool
(** [subset a b]: is [a ⊆ b]? *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** [Stdlib.compare]'s order on the underlying arrays: shorter sets
    first, then elementwise. *)

val hash : t -> int
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val subsets : t -> t list
(** All non-empty subsets — the relevant classifiers [CL_q] of a query
    (Section 2.1).  @raise Invalid_argument above 16 properties. *)

val strict_subsets : t -> t list
(** {!subsets} minus the set itself. *)

val positions_in : t -> t -> int
(** [positions_in c q] = bitmask over [q]'s sorted positions marking
    where [c]'s members sit; members of [c] outside [q] are ignored.
    The solvers read these masks precomputed from
    {!Instance.containing_masks}; this is their reference. *)

val pp : ?names:Symtab.t -> Format.formatter -> t -> unit
val to_string : ?names:Symtab.t -> t -> string

module Tbl : Hashtbl.S with type key = t
