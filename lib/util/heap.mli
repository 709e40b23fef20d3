(** Indexed binary min-heap over integer keys with float priorities.

    Keys are integers in [0, capacity).  Each key is present at most
    once; its priority can be updated in O(log n), which is what the
    greedy-peeling solvers need (degree updates as neighbours leave the
    graph).  Use [Heap.max_heap] semantics by negating priorities at the
    call site, or the dedicated [create ~max:true]. *)

type t

val create : ?max:bool -> int -> t
(** [create capacity] makes an empty heap for keys [0 .. capacity-1].
    With [~max:true] the heap pops the highest priority first. *)

val size : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool

val priority : t -> int -> float
(** Current priority of a member key.  @raise Not_found otherwise. *)

val insert : t -> int -> float -> unit
(** @raise Invalid_argument if the key is already present or out of
    range. *)

val update : t -> int -> float -> unit
(** Set the priority of a present key (any direction), or insert it if
    absent. *)

val add_to : t -> int -> float -> unit
(** [add_to h k d] adds [d] to the priority of present key [k]; inserts
    with priority [d] if absent. *)

val add_to_present : t -> int array -> float array -> int -> int -> unit
(** [add_to_present h keys deltas lo hi] runs
    [if mem h keys.(i) then add_to h keys.(i) deltas.(i)] for
    [i = lo .. hi - 1] in order, without boxing each delta. *)

val peek : t -> (int * float) option
val pop : t -> (int * float) option

(** {1 Allocation-free access to the top}

    [pop_key] removes exactly what {!pop} would, the same way, so a
    drain through [top_priority] and [pop_key] visits keys and
    priorities in {!pop}'s order, ties included. *)

val top : t -> int
(** The key {!pop} would return next.
    @raise Invalid_argument on an empty heap. *)

val top_priority : t -> float
(** The priority of {!top}.  @raise Invalid_argument on an empty heap. *)

val pop_key : t -> int
(** Remove the top and return its key.
    @raise Invalid_argument on an empty heap. *)

val remove : t -> int -> bool
(** [remove h k] removes [k] if present; returns whether it was. *)

val to_sorted_list : t -> (int * float) list
(** Non-destructive: members sorted by pop order. *)
