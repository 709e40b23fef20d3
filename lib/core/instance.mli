(** A BCC problem instance ⟨Q, U, C, B⟩ (Section 2.1).

    Queries are property sets with utilities; the classifier universe
    [CL] is derived as the union of the (non-empty) power sets of all
    queries, with costs supplied by a cost oracle at construction time.
    Classifiers the oracle prices at [infinity] are "impractical to
    construct" and are omitted from the universe (as in Example 2.1's
    [C(XY) = ∞]).

    The instance also materializes two indexes every solver and baseline
    in this library relies on: the containment index (for every
    classifier, which queries contain it, and where) and the subset
    table (for every query, which classifier each of its subsets is).
    Both come out of the one pass that enumerates the queries' power
    sets to build [CL]. *)

type t

val max_query_length : int
(** 16: the most properties a query may have.  Its subsets are indexed
    by int position masks, and a query of length [k] stores [2^k - 1]
    of them. *)

val create :
  ?name:string ->
  ?names:Symtab.t ->
  budget:float ->
  queries:(Propset.t * float) array ->
  cost:(Propset.t -> float) ->
  unit ->
  t
(** Duplicate queries are merged (utilities summed); empty queries are
    dropped.  @raise Invalid_argument on a negative utility, negative
    cost, negative budget or a query longer than {!max_query_length}. *)

val patch :
  ?name:string ->
  budget:float ->
  changes:(Propset.t * float option) list ->
  repriced:Propset.t list ->
  cost:(Propset.t -> float) ->
  t ->
  t
(** [patch ~budget ~changes ~repriced ~cost prev] is the instance one
    workload step after [prev], derived from it instead of from the
    whole workload.  [changes] lists changed query keys, each with its
    new utility or [None] for a removal (keys must be distinct; empty
    keys are ignored, as {!create} drops empty queries); [repriced]
    lists every set whose price under [cost] may differ from the price
    [prev] was built with.  [cost] is consulted only for [repriced] and
    for subsets of inserted queries that are not classifiers of
    [prev].  [name]
    defaults to [prev]'s; the symbol table is [prev]'s.

    Exactness: when [prev] is [create ~queries:qs ~cost:c0] and [cost]
    agrees with [c0] outside [repriced], the result equals
    [create ~budget ~queries:qs' ~cost] on the changed query set [qs']
    through every accessor: the same queries and utilities in the same
    order, the same classifiers with the same ids and costs, the same
    [classifier_id], [subset_id], [queries_containing],
    [containing_masks], [num_properties] and [max_length].  The same
    holds for a chain of patches.

    [prev] is never mutated and stays valid.  The cost is linear in the
    size of [prev]'s tables (int passes, and one hash per classifier
    for the id table; kept queries' subsets are not hashed) plus the
    hashing of inserted queries' subsets and of [repriced].
    @raise Invalid_argument as {!create} does, or on a duplicate key. *)

val name : t -> string
val names : t -> Symtab.t option
val budget : t -> float
val with_budget : t -> float -> t
(** Same instance under a different budget (O(1), structure shared). *)

(** {1 Queries} *)

val num_queries : t -> int
val query : t -> int -> Propset.t
val utility : t -> int -> float
val total_utility : t -> float
val max_length : t -> int
(** The length parameter [l]. *)

val num_properties : t -> int
(** [n = |P|], the number of distinct properties. *)

(** {1 Classifiers} *)

val num_classifiers : t -> int
val classifier : t -> int -> Propset.t
val cost : t -> int -> float
val classifier_id : t -> Propset.t -> int option
val cost_of : t -> Propset.t -> float
(** [infinity] when the classifier is not in the universe. *)

val queries_containing : t -> int -> int array
(** Query ids whose property set contains the classifier — the
    classifiers relevant to covering those queries.  Ascending. *)

val containing_masks : t -> int -> int array
(** Parallel to {!queries_containing}: the classifier's position mask
    in each of those queries (bit [i] = the query's [i]-th smallest
    property), as {!Propset.positions_in} would compute it. *)

val subset_id : t -> int -> int -> int
(** [subset_id t qi mask] = the id of the classifier made of query
    [qi]'s properties at the positions set in [mask]
    ([1 <= mask < 2^length]), or [-1] when that subset costs
    [infinity].  Constant time: no hashing, no allocation. *)

(** {1 Derived instances} *)

val restrict : t -> int list -> t
(** Sub-instance on the given query ids (deduplicated); classifier
    costs are inherited.  Used for residual problems, GMC3 iterations
    and brute-force comparisons on sub-domains. *)

val pp_summary : Format.formatter -> t -> unit
