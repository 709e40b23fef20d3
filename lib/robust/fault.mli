(** Fault-injection registry: named injection points armed from tests or
    the [BCC_FAULTS] environment variable.

    Production code drops {!hit} at the points worth breaking —
    ["engine.task"] (a portfolio task body, i.e. a dying worker),
    ["server.read"] (the daemon's request read), ["cache.get"] (a cache
    lookup), ["qk.restart"] (each QK bipartition restart),
    ["io.load"] (each parse of instance text by [Bcc_data.Io.load_string]),
    ["store.append"] (a workload-store journal commit, before any bytes
    reach the file), ["pipeline.artifact"] (an incremental-pipeline
    artifact-cache lookup — a throw or corruption there must degrade to
    recomputing the component, never to a wrong answer), and
    ["sched.enqueue"] (admission into the batch scheduler — a throw
    there must fail only that submission, never wedge the queue), and
    ["cluster.forward"] (each forwarding attempt the cluster router
    makes — a throw stands in for a dead or unreachable shard, so the
    failover path is exercised without killing a process) — and
    the test harness arms them to {e throw}, {e delay}, or {e corrupt}.  Firing
    can be probabilistic, driven by a seeded {!Bcc_util.Rng} stream so a
    failing fuzz run reproduces from its seed.

    When nothing is armed (the production default) {!hit} is one atomic
    load; arming is process-global and lock-protected.

    {2 [BCC_FAULTS] syntax}

    Comma-separated arms, each [point:kind] with optional [:]-separated
    parameters:

    {[BCC_FAULTS="engine.task:throw:1,cache.get:throw,qk.restart:delay:0.05"]}

    - [point:throw] — raise {!Injected} at the point, every time
    - [point:throw:N] — only the first [N] hits throw
    - [point:delay:S] — sleep [S] seconds at the point ([:N] optional)
    - [point:corrupt] — mark the point corrupting ([{!corrupting}]
      returns [true]; the call site decides what corruption means)
    - any arm may append [p=P] (fire with probability [P]) and [seed=S]
      (the RNG stream behind [p]) *)

exception Injected of string
(** Raised by {!hit} at a point armed to throw; the payload is the
    point name. *)

type action =
  | Throw
  | Delay of float  (** seconds *)
  | Corrupt

val known_points : string list
(** Every injection point compiled into the library — [arm]/[load_env]
    reject names outside this list to catch typos. *)

val arm : ?count:int -> ?prob:float -> ?seed:int -> string -> action -> unit
(** Arm [point] with [action].  [count] bounds how many times it fires
    (default unlimited); [prob] fires each hit with that probability
    (default 1.0) using a stream seeded by [seed] (default the point
    name's hash, so runs are reproducible).
    @raise Invalid_argument on an unknown point. *)

val disarm : string -> unit
val reset : unit -> unit
(** Disarm everything and zero the fired counters. *)

val enabled : unit -> bool
(** Any point currently armed. *)

val hit : string -> unit
(** The injection point: no-op unless [point] is armed, else throw or
    delay per its action.  A [Corrupt] arm counts the hit but does not
    throw — pair it with {!corrupting} at the call site. *)

val corrupting : string -> bool
(** [true] when the point is armed with {!Corrupt} and fires on this
    hit (consumes a fire, honoring [count] and [prob]). *)

val fired : string -> int
(** How many times the point has actually fired since the last
    {!reset}. *)

val load_env : ?var:string -> unit -> unit
(** Parse [var] (default ["BCC_FAULTS"]) and arm accordingly; silently a
    no-op when unset or empty.  Only entry points opt in (the daemon,
    the CLI, the bench harness) — libraries never read the environment
    on their own.
    @raise Failure on malformed syntax or an unknown point. *)

val summary : unit -> string
(** One line per armed point, for startup logs; [""] when nothing is
    armed. *)
