(** Thread-safe single-flight LRU cache with string keys — the server's
    one place where a result is deduplicated.

    Backs parsed+pruned instances keyed by content digest, solve results
    keyed by (digest, endpoint, budget/target), and in-flight workload
    solves, so a budget sweep over a fixed workload re-pays neither the
    instance parse nor the solve, and N concurrent identical requests
    compute once.

    A key is either finished (a value in the LRU) or in flight (a
    promise held by the caller computing it, its {e leader}).  Finished
    entries are bounded by [capacity] and evicted least recently used
    first; in-flight entries are not evictable and leave the table when
    their leader resolves them.  LRU operations are O(1) (Hashtbl +
    intrusive doubly-linked recency list) and lock-protected. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** A finished entry; bumps recency on hit and counts a hit or a miss. *)

val put : 'a t -> string -> 'a -> unit
(** Inserts or refreshes; evicts the least recently used entry when at
    capacity. *)

val find_or_compute :
  'a t ->
  ?flight:string ->
  ?keep:('a -> bool) ->
  string ->
  (unit -> ('a, 'e) result) ->
  ('a * bool, 'e) result
(** [find_or_compute t ~flight ~keep key compute] answers from the
    finished entry at [key] ([was_hit = true]) when there is one.
    Otherwise, when a leader is computing [flight] (default [key]), the
    caller blocks until it resolves and gets the leader's value
    ([was_hit = false]) or re-raises the leader's exception.  Otherwise
    the caller becomes the leader: [compute] runs once, outside the
    lock, and
    - [Ok v] is handed to every joiner and stored at [key] when
      [keep v] (default: always);
    - [Error e] goes to the leader alone — its joiners retry as fresh
      arrivals (e.g. the leader's admission was refused);
    - an exception reaches the leader and every current joiner, and
      nothing is stored. *)

val length : 'a t -> int
(** Finished entries. *)

(** {1 Statistics} — fed into {!Metrics} by the server *)

val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int

val joins : 'a t -> int
(** Callers that joined an in-flight leader instead of computing. *)

val keys_mru : 'a t -> string list
(** Finished keys most-recently-used first (test/debug aid). *)
