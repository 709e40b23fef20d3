(** Per-tenant in-flight admission — the router-side half of fair
    share.

    The cluster router forwards to shards that each run a full
    {!Sched} of their own, so the router does not schedule; it bounds
    how many forwards any one tenant may have outstanding, with the
    same weight vocabulary the scheduler's deficit round-robin uses.  A
    tenant at its limit is refused (the router answers 429 +
    retry-after) {e before} the forward would consume a shard
    connection and queue slot — the budget-feasibility framing: spend
    admission budget where it cannot be wasted. *)

type t

val create : ?weights:(string * int) list -> depth:int -> unit -> t
(** [depth] is the per-weight-unit bound (clamped to >= 1); a tenant of
    weight [w] may hold [depth * w] slots.  [weights] uses the same
    [(name, weight)] pairs as {!Sched}; absent tenants weigh 1. *)

val limit : t -> tenant:string -> int
(** [depth * weight tenant] — the tenant's concurrent-forward cap. *)

val inflight : t -> tenant:string -> int
(** Currently held slots. *)

val try_acquire : t -> tenant:string -> bool
(** Take a slot; [false] when the tenant is at its limit. *)

val release : t -> tenant:string -> unit
(** Return a slot (no-op when none is held — releases never go
    negative). *)

val with_slot : t -> tenant:string -> (unit -> 'a) -> 'a option
(** Acquire around [f], releasing on any exit; [None] when the tenant
    is at its limit. *)
