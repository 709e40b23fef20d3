(** Multi-tenant solve scheduler: weighted fair-share admission between
    the daemon's accept loop and the engine.

    Two layers:

    - {!Core} is the deterministic scheduling state machine — per-tenant
      deadline-ordered queues of single jobs and deficit round-robin
      across tenants — with explicit [~now] parameters and no threads,
      locks or clocks, so a fake-clock reference model can be driven
      against it op for op.
    - The threaded wrapper ({!submit}) owns a mutex/condvar around one
      [Core.t] and is {e work-conserving}: there is no dispatcher
      thread; any blocked submitter may claim and execute any
      dispatchable job, so every pending job always has at least one
      thread able to run it and the wrapper cannot deadlock (nested
      solver portfolios drain through the engine's caller
      participation).

    The scheduler does not deduplicate work: concurrent identical
    requests are folded into one computation {e before} admission, by
    the server's single-flight result cache, so only a computation's
    leader is ever submitted here.

    {2 Fair share}

    Each job names a tenant.  Tenants get weighted service via deficit
    round-robin: a tenant at the head of the rotation spends one deficit
    unit per dispatched job and earns its weight when its turn comes up
    empty-handed, so any tenant's deficit never exceeds its weight (the
    fairness bound the model test asserts).  Per-tenant queue depth is
    bounded; overflow is rejected with a retry-after hint
    ({!retry_after_s} clamps sub-second estimates up to 1 s — a 0 s
    retry-after is a thundering herd).  Queues are deadline-ordered so a
    near-expiry job is not parked behind jobs it cannot survive, and
    jobs already past their deadline are pruned (not run) at dispatch
    time. *)

val fault_point : string
(** ["sched.enqueue"] — {!Bcc_robust.Fault.hit} runs at the top of every
    {!submit}; an armed throw fails only that submission. *)

val retry_after_s : float -> int
(** Seconds to advertise in a 429 [retry-after] for an estimated wait.
    Clamped to [\[1, 3600\]]: sub-second estimates previously truncated
    to 0, telling clients to hammer immediately. *)

(** Deterministic scheduling core (no threads, no clock). *)
module Core : sig
  type config = {
    weights : (string * int) list;
        (** tenant name -> weight; absent tenants weigh 1 *)
    tenant_depth : int;  (** max queued jobs per tenant *)
    concurrency : int;  (** max concurrently running jobs *)
  }

  val default_config : config

  type t

  val create : config -> t

  type enqueue_result =
    | Queued of int  (** job id *)
    | Rejected of { retry_after_s : int }  (** tenant queue full *)

  val enqueue :
    t -> tenant:string -> deadline:float -> est_batch_s:float -> enqueue_result
  (** [deadline] is an absolute time ([infinity] = none); [est_batch_s]
      feeds the retry-after estimate on rejection. *)

  type dispatch = { d_wid : int; d_tenant : string }

  val next : t -> now:float -> int list * dispatch option
  (** DRR pick.  Returns jobs found expired during the scan (pruned,
      never run — deliver them a timeout) and, when a concurrency slot
      is free and a live job is queued, that job. *)

  val complete : t -> unit
  (** Release the concurrency slot of a dispatched job. *)

  type tenant_info = {
    ti_tenant : string;
    ti_weight : int;
    ti_deficit : int;
    ti_queued : int;
    ti_dispatched : int;
  }

  type counters = {
    batches_total : int;  (** jobs dispatched *)
    rejected_total : int;
    expired_total : int;  (** jobs pruned past their deadline *)
  }

  val tenants : t -> tenant_info list
  (** Sorted by tenant name. *)

  val counters : t -> counters
  val queued : t -> int
  val running : t -> int
end

(** {2 Threaded wrapper} *)

type error =
  | Busy of { retry_after_s : int }  (** tenant queue full — 429 *)
  | Expired  (** deadline passed before the work ran — 503 *)
  | Faulted of exn  (** the job (or an armed fault) raised — 500 *)

type 'r t

val create :
  ?weights:(string * int) list -> ?tenant_depth:int -> ?concurrency:int -> unit -> 'r t
(** Defaults: weights 1, tenant_depth 32, concurrency 1. *)

val submit :
  'r t ->
  tenant:string ->
  ?deadline_s:float ->
  ?corr:string ->
  (unit -> 'r) ->
  ('r, error) result
(** Enqueue one job and block until its result is available — possibly
    executing other tenants' jobs while waiting (work conserving).
    [deadline_s] is absolute ({!Bcc_util.Timer.now_s} scale).  [corr]
    (the submitter's correlation id) is carried into the [sched_batch]
    wide event; the callback itself is responsible for re-installing any
    ambient scopes it needs, since it may run on another submitter's
    thread.  An exception from the callback fails only its own
    submission. *)

type stats = {
  batches_total : int;
  rejected_total : int;
  expired_total : int;
  queued : int;
  running : int;
  est_batch_s : float;  (** EWMA of observed job wall times *)
  tenants : Core.tenant_info list;
}

val stats : 'r t -> stats
