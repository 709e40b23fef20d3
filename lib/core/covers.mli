(** Per-query cover enumeration and the cheapest-cover dynamic program.

    A query's residual (the properties not yet covered by the current
    selection) lives on at most 6 properties, so exact set-cover DP over
    bitmasks is constant-time per query.  These helpers back the IG1
    baseline ("the least costly set of classifiers that covers it, by
    checking all O(1) relevant sets"), the BCC(1)/BCC(2) decomposition
    and the brute-force solver. *)

type candidate = { id : int;  (** classifier id *) bits : int  (** residual positions it covers *) }

val candidates : Cover.t -> ?allowed:(int -> bool) -> int -> candidate list * int
(** [candidates state qi] returns the unselected finite-cost classifiers
    contained in query [qi] that cover at least one residual property,
    together with the residual target bitmask, in descending position
    mask.  Selected classifiers never appear (their properties are
    already out of the residual).  Reads {!Instance.subset_id}. *)

val cheapest_cover : Cover.t -> ?allowed:(int -> bool) -> int -> (float * int list) option
(** Minimum-cost set of new classifiers completing query [qi]'s cover,
    by exact DP over residual bitmasks; among equal-cost covers the
    first found in {!candidates}' order wins.  [None] if the query is
    uncoverable (or already covered — there is nothing to buy). *)

type scratch
(** Work buffers for the cover DP, grown on demand to the largest query
    seen.  A scratch must not be shared by concurrent calls: use one per
    engine task. *)

val scratch : unit -> scratch

val cheapest_cost : scratch -> Cover.t -> ?allowed:(int -> bool) -> int -> float
(** The cost {!cheapest_cover} would return, bit for bit (the same DP
    over the same candidates), or [infinity] where it returns [None].
    It runs on [scratch]'s buffers and skips recording the cover, so
    once the buffers fit it builds no arrays, lists or options.  Under
    a build without cross-module inlining (dune's default dev profile)
    the costs it reads and the float it returns are still boxed. *)

val one_covers : candidate list -> target:int -> candidate list
(** Candidates that cover the whole residual alone — residual 1-covers
    (Section 4.2). *)

val two_covers : candidate list -> target:int -> (candidate * candidate) list
(** Pairs covering the residual together with neither side sufficient
    alone — residual 2-covers. *)
