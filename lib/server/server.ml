module Instance = Bcc_core.Instance
module Propset = Bcc_core.Propset
module Symtab = Bcc_core.Symtab
module Solution = Bcc_core.Solution
module Solver = Bcc_core.Solver
module Gmc3 = Bcc_core.Gmc3
module Ecc = Bcc_core.Ecc
module Io = Bcc_data.Io
module Timer = Bcc_util.Timer
module Trace = Bcc_obs.Trace
module Stage = Bcc_obs.Stage
module Event = Bcc_obs.Event
module Progress = Bcc_obs.Progress
module Recorder = Bcc_obs.Recorder
module Engine = Bcc_engine.Engine
module Deadline = Bcc_robust.Deadline
module Fault = Bcc_robust.Fault
module Store = Bcc_store.Store
module Delta = Bcc_store.Delta
module Sched = Bcc_sched.Sched
module Curve_cache = Bcc_sched.Curve_cache

type config = {
  host : string;
  port : int;
  workers : int;
  queue_depth : int;
  cache_entries : int;
  timeout_s : float;
  preload : (string * string) list;
  trace_spans : int;
  state_dir : string option;
  event_log : string option;  (* JSONL wide-event log, one line per event *)
  debug_dir : string option;  (* flight-recorder dumps of slow/degraded solves *)
  sched_concurrency : int;  (* concurrent solve jobs; 0 = workers - 1 *)
  tenant_depth : int;  (* max queued solve requests per tenant *)
  tenant_weights : (string * int) list;  (* fair-share weights; default 1 *)
  curve_cache_mb : int;  (* byte budget of the shared curve cache *)
  forward : Http.request -> Http.response option;
      (* cluster hook, consulted before local handling: [Some resp]
         means another shard owns the request and [resp] is its (or the
         failover path's) answer.  The daemon wires Bcc_cluster.Router
         in here; [fun _ -> None] (the default) serves everything
         locally.  A function field rather than a Router value keeps
         lib/server free of a dependency cycle with lib/cluster. *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    workers = 0;
    queue_depth = 64;
    cache_entries = 256;
    timeout_s = 30.0;
    preload = [];
    trace_spans = 4096;
    state_dir = None;
    event_log = None;
    debug_dir = None;
    sched_concurrency = 0;
    tenant_depth = 32;
    tenant_weights = [];
    curve_cache_mb = 64;
    forward = (fun _ -> None);
  }

type loaded = { digest : string; inst : Instance.t }

(* A computed /solve, /gmc3 or /ecc answer: the response fields before
   the per-request suffix, and [Some degraded] when the request carried
   a deadline. *)
type answer = { fields : (string * Json.t) list; degraded : bool option }

type t = {
  cfg : config;
  sock : Unix.file_descr;
  actual_port : int;
  num_workers : int;
  pool : Engine.Pool.t;  (* connection handlers AND solver-internal portfolios *)
  pending : int Atomic.t;  (* accepted connections not yet picked up by a worker *)
  stop : bool Atomic.t;
  named : (string, loaded) Hashtbl.t;
  inst_cache : loaded Cache.t;  (* raw body digest -> parsed instance *)
  sol_cache : answer Cache.t;  (* canonical digest + endpoint + params -> result *)
  wl_flights : Http.response Cache.t;  (* in-flight workload solves, never stored *)
  store : Store.t;  (* versioned workloads, durable under [state_dir] *)
  curve_cache : Curve_cache.t;  (* curve artifacts shared across workloads *)
  sched : unit Sched.t;  (* fair-share admission of solve leaders *)
  metrics : Metrics.t;
}

(* Content-addressed identity: the serialized instance minus its header
   comment, so the digest depends on budget/queries/costs but not on the
   (arbitrary) instance name — an inline body and a preloaded file with
   the same content share cache entries. *)
let canonical_digest inst =
  let s = Io.to_string inst in
  let body =
    match String.index_opt s '\n' with
    | Some i when String.length s > 0 && s.[0] = '#' ->
        String.sub s (i + 1) (String.length s - i - 1)
    | _ -> s
  in
  Digest.to_hex (Digest.string body)

let create cfg =
  let named = Hashtbl.create 8 in
  List.iter
    (fun (name, file) ->
      let inst = Io.load file in
      Hashtbl.replace named name { digest = canonical_digest inst; inst })
    cfg.preload;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (try Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port))
   with e -> (try Unix.close sock with _ -> ()); raise e);
  Unix.listen sock 128;
  let actual_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let num_workers =
    if cfg.workers > 0 then cfg.workers else Domain.recommended_domain_count ()
  in
  (* Always the [Domains] backend, even at one worker, so the accept loop
     stays responsive while a solve is in flight.  Installing it as the
     engine default makes solver-internal portfolios (QK/HkS/solver arms)
     run on the same domains as the connection handlers — a worker that
     opens a sub-portfolio drains it itself, so this cannot deadlock. *)
  let pool = Engine.Pool.domains ~jobs:num_workers in
  Engine.install_default pool;
  let curve_cache =
    Curve_cache.create ~max_bytes:(max 1 cfg.curve_cache_mb * 1024 * 1024) ()
  in
  (* Solve concurrency below the worker count keeps a worker free for
     cache hits and the accept path while solves run; the wrapper is
     work-conserving, so blocked submitters execute the jobs
     themselves. *)
  let sched =
    Sched.create
      ~weights:cfg.tenant_weights ~tenant_depth:cfg.tenant_depth
      ~concurrency:
        (if cfg.sched_concurrency > 0 then cfg.sched_concurrency
         else max 1 (num_workers - 1))
      ()
  in
  let t =
    {
      cfg;
      sock;
      actual_port;
      num_workers;
      pool;
      pending = Atomic.make 0;
      stop = Atomic.make false;
      named;
      inst_cache = Cache.create ~capacity:(max 1 cfg.cache_entries);
      sol_cache = Cache.create ~capacity:(max 1 cfg.cache_entries);
      wl_flights = Cache.create ~capacity:1;
      store = Store.create ?dir:cfg.state_dir ~curve_cache ();
      curve_cache;
      sched;
      metrics = Metrics.create ();
    }
  in
  if cfg.trace_spans > 0 then begin
    Trace.set_tracing ~capacity:cfg.trace_spans true;
    Trace.set_profiling true;
    (* Solver stages run well below the default request-latency buckets;
       start at 10 µs. *)
    let stage_buckets = [| 1e-5; 1e-4; 1e-3; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 30.0 |] in
    Stage.set_observer (fun stage dt ->
        Metrics.observe t.metrics "bcc_stage_duration_seconds"
          ~labels:[ ("stage", stage) ] ~buckets:stage_buckets
          ~help:"Wall time per solver pipeline stage." dt)
  end;
  (* Wide-event telemetry rides the same switch as tracing: every
     request gets a correlation id, the solver's anytime progress stream
     lands in the event ring, and the flight recorder groups it per
     solve for [GET /debug/solves]. *)
  if cfg.trace_spans > 0 then begin
    Event.set_enabled ~capacity:(max 1024 cfg.trace_spans) true;
    Recorder.enable ();
    Recorder.set_debug_dir cfg.debug_dir;
    (match cfg.event_log with Some path -> Event.log_to_file path | None -> ());
    (* Metrics bridge: fold the progress stream into the Prometheus
       registry as it happens (counters here are event-driven, not the
       scrape-time delta-inc pattern — each event is seen exactly
       once). *)
    Event.add_sink ~name:"metrics" (fun e ->
        match e.Event.name with
        | "incumbent_update" ->
            Metrics.inc t.metrics "bcc_incumbent_improvements_total"
              ~help:"Incumbent updates emitted by the solver's anytime stream."
        | "solve_report" -> (
            match Progress.report_of_event e with
            | Some r ->
                Metrics.inc t.metrics "bcc_solve_rounds_total"
                  ~help:"Residual rounds run, summed over solves."
                  ~by:(float_of_int r.Progress.rounds);
                Metrics.set t.metrics "bcc_solve_utility_ratio"
                  ~help:
                    "Last solve's utility as a share of the instance's total \
                     utility."
                  r.Progress.utility_ratio
            | None -> ())
        | _ -> ())
  end;
  t

let port t = t.actual_port
let num_workers t = t.num_workers
let metrics t = t.metrics
let store t = t.store
let request_stop t = Atomic.set t.stop true

(* --- request handling --- *)

let prop_name inst p =
  match Instance.names inst with
  | Some tbl -> Symtab.name tbl p
  | None -> string_of_int p

let classifiers_json inst (sol : Solution.t) =
  Json.List
    (List.map
       (fun c ->
         Json.List
           (List.map (fun p -> Json.Str (prop_name inst p)) (Propset.to_list c)))
       sol.Solution.classifiers)

let solution_fields inst (sol : Solution.t) =
  [
    ("cost", Json.Num sol.Solution.cost);
    ("utility", Json.Num sol.Solution.utility);
    ("classifiers", classifiers_json inst sol);
    ("verified", Json.Bool (Solution.verify inst sol));
  ]

type endpoint = E_solve | E_gmc3 | E_ecc

let endpoint_name = function
  | E_solve -> "solve"
  | E_gmc3 -> "gmc3"
  | E_ecc -> "ecc"

let fmt_opt = function None -> "-" | Some x -> Printf.sprintf "%.17g" x

(* A /solve, /gmc3 or /ecc request, parsed once. *)
type solve_req = {
  src : [ `Named of string | `Inline of string ];
  budget : float option;
  target : float option;
  timeout_ms : float option;  (* explicit, from the body or the query *)
  tenant : string;
}

(* Tenant identity for fair-share admission: ?tenant= query param, then
   the [x-bcc-tenant] header, then [body_tenant] (a "tenant" field of a
   JSON body); anonymous traffic shares the "default" tenant. *)
let tenant_of ?body_tenant (req : Http.request) =
  let nonempty = function Some "" | None -> None | Some s -> Some s in
  match nonempty (Http.query_param req "tenant") with
  | Some t -> t
  | None -> (
      match nonempty (Http.header req "x-bcc-tenant") with
      | Some t -> t
      | None -> Option.value ~default:"default" (nonempty body_tenant))

(* Instance source + optional budget/target/timeout_ms/tenant from the
   body (raw instance text, or a JSON object) merged with
   ?budget=/?target=/?timeout_ms= query params (query wins, so a
   raw-text body can still be swept over budgets). *)
let parse_solve (req : Http.request) =
  let body = req.Http.body in
  let trimmed = String.trim body in
  let from_body =
    if trimmed = "" then Error "empty body: send instance text or a JSON object"
    else if trimmed.[0] = '{' then
      match Json.of_string trimmed with
      | Error msg -> Error ("bad JSON body: " ^ msg)
      | Ok j -> (
          let field name get = Option.bind (Json.member name j) get in
          let p src =
            {
              src;
              budget = field "budget" Json.get_num;
              target = field "target" Json.get_num;
              timeout_ms = field "timeout_ms" Json.get_num;
              tenant = tenant_of ?body_tenant:(field "tenant" Json.get_string) req;
            }
          in
          match (field "instance" Json.get_string, field "text" Json.get_string) with
          | Some n, None -> Ok (p (`Named n))
          | None, Some s -> Ok (p (`Inline s))
          | Some _, Some _ -> Error {|provide either "instance" or "text", not both|}
          | None, None -> Error {|JSON body needs an "instance" name or inline "text"|})
    else
      Ok
        { src = `Inline body; budget = None; target = None; timeout_ms = None;
          tenant = tenant_of req }
  in
  match from_body with
  | Error _ as e -> e
  | Ok p -> (
      let num_param name fallback =
        match Http.query_param req name with
        | None -> Ok fallback
        | Some s -> (
            match float_of_string_opt s with
            | Some f when Float.is_finite f -> Ok (Some f)
            | _ -> Error (Printf.sprintf "bad ?%s=%s" name s))
      in
      match
        ( num_param "budget" p.budget,
          num_param "target" p.target,
          num_param "timeout_ms" p.timeout_ms )
      with
      | Ok (Some b), _, _ when b < 0.0 -> Error "budget must be a non-negative number"
      | _, _, Ok (Some ms) when not (ms > 0.0) ->
          Error "timeout_ms must be a positive number of milliseconds"
      | Ok budget, Ok target, Ok timeout_ms -> Ok { p with budget; target; timeout_ms }
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e)

(* Every lookup passes through the ["cache.get"] injection point; a
   lookup that faults bypasses the cache (plus an error counter) so a
   broken cache degrades throughput, never availability. *)
let cached t ~name cache ?flight ?keep key compute =
  match Fault.hit "cache.get" with
  | () -> Cache.find_or_compute cache ?flight ?keep key compute
  | exception Fault.Injected _ ->
      Metrics.inc t.metrics "bccd_cache_errors_total"
        ~labels:[ ("cache", name) ]
        ~help:"Cache lookups that failed (treated as misses).";
      Result.map (fun v -> (v, false)) (compute ())

let resolve_instance t src =
  match src with
  | `Named name -> (
      match Hashtbl.find_opt t.named name with
      | Some l -> Ok l
      | None -> Error (404, "unknown instance: " ^ name))
  | `Inline text ->
      let raw_digest = Digest.to_hex (Digest.string text) in
      Result.map fst
        (cached t ~name:"instance" t.inst_cache raw_digest (fun () ->
             match Io.load_string ~name:("inline-" ^ String.sub raw_digest 0 8) text with
             | inst -> Ok { digest = canonical_digest inst; inst }
             | exception Failure msg -> Error (400, msg)))

(* Deadline propagation across cluster hops: the router forwards its
   remaining time budget as [X-Bcc-Deadline-Ms], so a shard never spends
   longer on a solve than the hop that asked for it is willing to wait.
   An explicit [timeout_ms] in the request still wins — the header is
   the cross-hop fallback. *)
let request_timeout_ms (req : Http.request) explicit =
  match explicit with
  | Some _ -> explicit
  | None -> (
      match Http.header req "x-bcc-deadline-ms" with
      | None -> None
      | Some s -> (
          match float_of_string_opt (String.trim s) with
          | Some ms when Float.is_finite ms && ms > 0.0 -> Some ms
          | _ -> None))

(* The solve's own deadline starts when the scheduler runs it. *)
let solve_deadline = function
  | None -> Deadline.none
  | Some ms -> Deadline.of_timeout_ms ~label:"request" ms

(* Admission rejections (429/503), under both the legacy reason-labeled
   counter and the robustness-layer total asserted by the fault-matrix
   tests. *)
let count_rejected t reason =
  Metrics.inc t.metrics "bccd_rejected_total"
    ~labels:[ ("reason", reason) ]
    ~help:"Connections refused or abandoned.";
  Metrics.inc t.metrics "bcc_requests_rejected_total"
    ~labels:[ ("reason", reason) ]
    ~help:"Requests rejected before solving (backpressure, shutdown)."

(* Fair-share admission for a computation's leader.  [job] may run on
   another submitter's thread, so the request's correlation scope is
   re-installed around it, and its exception is carried back and
   re-raised here.  [Error resp] is the leader's own refusal (429, an
   expired deadline, or the sched.enqueue fault). *)
let admit t ~tenant ~timeout_ms job =
  let corr = Event.current_corr () in
  let out = ref None in
  let run () =
    let go () = out := Some (try Ok (job ()) with e -> Error e) in
    if corr = "" then go () else Event.with_corr corr go
  in
  let deadline_s = Option.map (fun ms -> Timer.now_s () +. (ms /. 1000.)) timeout_ms in
  match
    Sched.submit t.sched ~tenant ?deadline_s
      ?corr:(if corr = "" then None else Some corr)
      run
  with
  | Ok () -> ( match Option.get !out with Ok v -> Ok v | Error e -> raise e)
  | Error (Sched.Busy { retry_after_s }) ->
      count_rejected t "tenant_queue_full";
      Error
        (Http.error_response 429
           ~headers:[ ("retry-after", string_of_int retry_after_s) ]
           (Printf.sprintf "tenant %S queue full, retry in %ds" tenant retry_after_s))
  | Error Sched.Expired ->
      count_rejected t "sched_deadline";
      Error (Http.error_response 503 "deadline expired before the solve was dispatched")
  | Error (Sched.Faulted (Fault.Injected point)) ->
      Error (Http.error_response 500 ("injected fault: " ^ point))
  | Error (Sched.Faulted e) -> Error (Http.error_response 500 (Printexc.to_string e))

let answer_response (a : answer) ~cached =
  let degraded =
    match a.degraded with Some d -> [ ("degraded", Json.Bool d) ] | None -> []
  in
  Http.json_response 200 (Json.Obj (a.fields @ degraded @ [ ("cached", Json.Bool cached) ]))

(* A finished answer is served at once; an in-flight one is joined and
   its leader's bytes returned; otherwise this request leads: it passes
   admission, solves, and resolves the flight.  The flight key adds the
   explicit timeout to the stored key, so requests with different
   timeouts never share a computation; a degraded answer is never
   stored. *)
let handle_solve t ep req =
  match parse_solve req with
  | Error msg -> Http.error_response 400 msg
  | Ok p -> (
      match resolve_instance t p.src with
      | Error (status, msg) -> Http.error_response status msg
      | Ok { digest; inst } -> (
          match (ep, p.target) with
          | E_gmc3, None -> Http.error_response 400 "gmc3 needs a \"target\" utility"
          | _ -> (
              let inst =
                match p.budget with Some b -> Instance.with_budget inst b | None -> inst
              in
              let key =
                Printf.sprintf "%s|%s|b=%s|t=%s" digest (endpoint_name ep)
                  (fmt_opt p.budget) (fmt_opt p.target)
              in
              let timeout_ms = request_timeout_ms req p.timeout_ms in
              let compute () =
                let deadline = solve_deadline timeout_ms in
                let timer = Timer.start () in
                let fields, degraded =
                  match ep with
                  | E_solve ->
                      let r = Solver.solve_within ~deadline inst in
                      (solution_fields inst r.Solver.solution, r.Solver.degraded)
                  | E_gmc3 ->
                      (* GMC3/ECC inherit the deadline ambiently (their
                         inner solves degrade rather than raise); the
                         expired clock afterwards is what marks the
                         composite result degraded. *)
                      let r =
                        Deadline.with_current deadline @@ fun () ->
                        Gmc3.solve inst ~target:(Option.get p.target)
                      in
                      ( solution_fields inst r.Gmc3.solution
                        @ [
                            ("reached", Json.Bool r.Gmc3.reached);
                            ("budget_used", Json.Num r.Gmc3.budget_used);
                          ],
                        Deadline.expired deadline )
                  | E_ecc ->
                      let sol =
                        Deadline.with_current deadline @@ fun () -> Ecc.solve inst
                      in
                      ( solution_fields inst sol @ [ ("ratio", Json.Num (Ecc.ratio_of sol)) ],
                        Deadline.expired deadline )
                in
                let labels = [ ("endpoint", endpoint_name ep) ] in
                Metrics.observe t.metrics "bccd_solve_duration_seconds" ~labels
                  ~help:"Time spent computing uncached solves."
                  (Timer.elapsed_s timer);
                if degraded then
                  Metrics.inc t.metrics "bcc_requests_degraded_total" ~labels
                    ~help:"Requests answered with a degraded (deadline-cut) solution.";
                if (not (Deadline.is_none deadline)) && Deadline.expired deadline then
                  Metrics.inc t.metrics "bcc_deadline_exceeded_total" ~labels
                    ~help:"Requests whose deadline expired during handling.";
                {
                  fields =
                    ( "instance",
                      Json.Str
                        (match p.src with
                        | `Named n -> n
                        | `Inline _ -> Instance.name inst) )
                    :: ("digest", Json.Str digest)
                    :: ("budget", Json.Num (Instance.budget inst))
                    :: fields;
                  degraded = (if Deadline.is_none deadline then None else Some degraded);
                }
              in
              match
                cached t ~name:"solution" t.sol_cache
                  ~flight:(key ^ "|to=" ^ fmt_opt p.timeout_ms)
                  ~keep:(fun a -> a.degraded <> Some true)
                  key
                  (fun () -> admit t ~tenant:p.tenant ~timeout_ms compute)
              with
              | Ok (a, false) -> answer_response a ~cached:false
              | Ok (a, true) ->
                  (* A stored answer was never degraded; the flag follows
                     this request's own deadline. *)
                  answer_response ~cached:true
                    { a with degraded = Option.map (fun _ -> false) timeout_ms }
              | Error resp -> resp
              | exception Failure msg -> Http.error_response 400 msg)))

(* --- workload store endpoints --- *)

let info_json (i : Store.info) =
  Json.Obj
    ([
       ("name", Json.Str i.Store.name);
       ("epoch", Json.Num (float_of_int i.Store.epoch));
       ("budget", Json.Num i.Store.budget);
       ("queries", Json.Num (float_of_int i.Store.num_queries));
       ("journal_bytes", Json.Num (float_of_int i.Store.journal_bytes));
     ]
    @ (match i.Store.solved_epoch with
      | Some e -> [ ("solved_epoch", Json.Num (float_of_int e)) ]
      | None -> [])
    @
    match i.Store.warm_ratio with
    | Some r -> [ ("warm_ratio", Json.Num r) ]
    | None -> [])

let solved_json (s : Store.solved) =
  Json.Obj
    (("workload", Json.Str s.Store.info.Store.name)
    :: ("epoch", Json.Num (float_of_int s.Store.solved_at))
    :: ("budget", Json.Num (Instance.budget s.Store.instance))
    :: solution_fields s.Store.instance s.Store.solution
    @ [
        ("degraded", Json.Bool s.Store.degraded);
        ("warm", Json.Bool s.Store.warm);
        ("seed_utility", Json.Num s.Store.seed_utility);
        ("wall_s", Json.Num s.Store.wall_s);
      ]
    @
    if s.Store.components_total = 0 then []
    else
      [
        ("components_total", Json.Num (float_of_int s.Store.components_total));
        ("components_reused", Json.Num (float_of_int s.Store.components_reused));
      ])

let store_error = function
  | `Not_found -> Http.error_response 404 "no such workload (or it was never solved)"
  | `Bad msg -> Http.error_response 400 msg

let handle_workload_put t name req =
  let budget =
    match Http.query_param req "budget" with
    | None -> Ok None
    | Some s -> (
        match float_of_string_opt s with
        | Some b when Float.is_finite b && b >= 0.0 -> Ok (Some b)
        | _ -> Error ("bad ?budget=" ^ s))
  in
  let source =
    match Http.query_param req "format" with
    | None | Some "text" -> Ok (Store.Text req.Http.body)
    | Some "log" -> Ok (Store.Log req.Http.body)
    | Some f -> Error ("unknown ?format=" ^ f ^ " (use text or log)")
  in
  match (budget, source) with
  | Error msg, _ | _, Error msg -> Http.error_response 400 msg
  | Ok budget, Ok source -> (
      match Store.put t.store ~name ?budget source with
      | Ok info -> Http.json_response 200 (info_json info)
      | Error e -> store_error e)

let handle_workload_delta t name req =
  let ops =
    match Http.query_param req "format" with
    | None | Some "delta" -> (
        match Delta.parse req.Http.body with
        | ops -> Ok ops
        | exception Failure msg -> Error msg)
    | Some "log" -> (
        (* A raw log tail as a delta: each line becomes an [add] of its
           search count, the paper's drifting-utility feed. *)
        match Delta.of_log req.Http.body with
        | ops, _stats -> Ok ops
        | exception Failure msg -> Error msg)
    | Some f -> Error ("unknown ?format=" ^ f ^ " (use delta or log)")
  in
  match ops with
  | Error msg -> Http.error_response 400 msg
  | Ok ops -> (
      match Store.delta t.store ~name ops with
      | Ok info -> Http.json_response 200 (info_json info)
      | Error e -> store_error e)

(* Workload solves are shared only while in flight: the flight key pins
   the epoch and every option that changes the answer, and nothing is
   stored, because a workload is re-solved on every request. *)
let handle_workload_solve t name req =
  let flag param =
    match Http.query_param req param with
    | None | Some ("0" | "false" | "no") -> Ok false
    | Some ("1" | "true" | "yes") -> Ok true
    | Some s -> Error (Printf.sprintf "bad ?%s=%s" param s)
  in
  let explicit_ms =
    match Http.query_param req "timeout_ms" with
    | None -> Ok None
    | Some s -> (
        match float_of_string_opt s with
        | Some ms when Float.is_finite ms && ms > 0.0 -> Ok (Some ms)
        | _ -> Error "timeout_ms must be a positive number of milliseconds")
  in
  match (flag "cold", flag "incremental", explicit_ms) with
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg -> Http.error_response 400 msg
  | Ok cold, Ok incremental, Ok explicit_ms -> (
      match Store.info t.store name with
      | None -> store_error `Not_found
      | Some i -> (
          let timeout_ms = request_timeout_ms req explicit_ms in
          let compute () =
            let deadline = solve_deadline timeout_ms in
            match Store.solve t.store ~name ~cold ~incremental ~deadline () with
            | Ok s ->
                Metrics.observe t.metrics "bccd_solve_duration_seconds"
                  ~labels:[ ("endpoint", "workload") ]
                  ~help:"Time spent computing uncached solves." s.Store.wall_s;
                if incremental then begin
                  Metrics.inc t.metrics "bcc_resolve_components_total"
                    ~by:(float_of_int s.Store.components_total)
                    ~help:"Pipeline components staged by incremental re-solves.";
                  Metrics.inc t.metrics "bcc_resolve_components_reused_total"
                    ~by:(float_of_int s.Store.components_reused)
                    ~help:"Pipeline component curves served from the artifact cache.";
                  Metrics.observe t.metrics "bcc_resolve_wall_seconds"
                    ~help:"Wall time of incremental (pipeline) re-solves." s.Store.wall_s
                end;
                if s.Store.degraded then
                  Metrics.inc t.metrics "bcc_requests_degraded_total"
                    ~labels:[ ("endpoint", "workload") ]
                    ~help:"Requests answered with a degraded (deadline-cut) solution.";
                Http.json_response 200 (solved_json s)
            | Error e -> store_error e
          in
          let flight =
            Printf.sprintf "%s|e=%d|cold=%b|incr=%b|to=%s" name i.Store.epoch cold
              incremental (fmt_opt explicit_ms)
          in
          match
            cached t ~name:"workload" t.wl_flights ~keep:(fun _ -> false) flight
              (fun () -> admit t ~tenant:(tenant_of req) ~timeout_ms compute)
          with
          | Ok (resp, _) -> resp
          | Error resp -> resp))

let handle_workload_solution t name =
  match Store.solution t.store name with
  | Ok s -> Http.json_response 200 (solved_json s)
  | Error e -> store_error e

let handle_workload_info t name =
  match Store.info t.store name with
  | Some i -> Http.json_response 200 (info_json i)
  | None -> store_error `Not_found

let handle_workloads_list t =
  Http.json_response 200
    (Json.Obj [ ("workloads", Json.List (List.map info_json (Store.list t.store))) ])

let handle_instances t =
  let entries =
    Hashtbl.fold
      (fun name { digest; inst } acc ->
        Json.Obj
          [
            ("name", Json.Str name);
            ("digest", Json.Str digest);
            ("budget", Json.Num (Instance.budget inst));
            ("queries", Json.Num (float_of_int (Instance.num_queries inst)));
            ("classifiers", Json.Num (float_of_int (Instance.num_classifiers inst)));
            ("properties", Json.Num (float_of_int (Instance.num_properties inst)));
          ]
        :: acc)
      t.named []
  in
  Http.json_response 200 (Json.Obj [ ("instances", Json.List entries) ])

let attr_json (v : Trace.value) =
  match v with
  | Trace.Bool b -> Json.Bool b
  | Trace.Int n -> Json.Num (float_of_int n)
  | Trace.Float x -> Json.Num x
  | Trace.Str s -> Json.Str s

let span_json (sp : Trace.span) children =
  Json.Obj
    ([
       ("name", Json.Str sp.Trace.name);
       ("id", Json.Num (float_of_int sp.Trace.id));
       ("tid", Json.Num (float_of_int sp.Trace.tid));
       ("start_s", Json.Num sp.Trace.start_s);
       ("duration_s", Json.Num (sp.Trace.end_s -. sp.Trace.start_s));
       ("attrs", Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) (Trace.ordered_attrs sp)));
     ]
    @ if children = [] then [] else [ ("children", Json.List children) ])

(* Last-N completed spans as a forest.  Children complete before their
   parents, so one chronological pass has every child's JSON built by
   the time its parent is reached. *)
let handle_trace req =
  let last =
    match Http.query_param req "last" with
    | None -> 512
    | Some s -> (
        match int_of_string_opt s with Some n when n > 0 -> n | _ -> 512)
  in
  let spans = Trace.spans ~last () in
  let present = Hashtbl.create 64 in
  List.iter (fun (sp : Trace.span) -> Hashtbl.replace present sp.Trace.id ()) spans;
  let children : (int, Json.t list) Hashtbl.t = Hashtbl.create 64 in
  let take id =
    match Hashtbl.find_opt children id with Some l -> List.rev l | None -> []
  in
  let roots = ref [] in
  List.iter
    (fun (sp : Trace.span) ->
      let j = span_json sp (take sp.Trace.id) in
      if Hashtbl.mem present sp.Trace.parent then
        Hashtbl.replace children sp.Trace.parent
          (j :: Option.value ~default:[] (Hashtbl.find_opt children sp.Trace.parent))
      else roots := j :: !roots)
    spans;
  Http.json_response 200
    (Json.Obj
       [
         ("enabled", Json.Bool (Trace.tracing ()));
         ("dropped", Json.Num (float_of_int (Trace.dropped ())));
         ("spans", Json.List (List.rev !roots));
       ])

let event_json (e : Event.t) =
  Json.Obj
    [
      ("ts_s", Json.Num e.Event.ts_s);
      ("name", Json.Str e.Event.name);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) e.Event.attrs));
    ]

(* One flight-recorder record.  The summary row carries enough to spot
   the interesting solve (wall time, degradation, final utility); the
   [?id=] detail adds the anytime curve, the raw events and the spans
   that overlapped the solve's window. *)
let solve_json ~detail (s : Recorder.solve) =
  let events = Recorder.events s in
  let report = List.find_map Progress.report_of_event events in
  let curve = Progress.curve events in
  let final_utility =
    match report with
    | Some r -> Some r.Progress.utility
    | None -> ( match List.rev curve with (_, u) :: _ -> Some u | [] -> None)
  in
  (* Incremental solves drop one [pipeline_reuse] event; surface its
     reuse accounting on the summary row. *)
  let reuse =
    List.find_map
      (fun (e : Event.t) ->
        if e.Event.name <> "pipeline_reuse" then None
        else
          match
            ( List.assoc_opt "components" e.Event.attrs,
              List.assoc_opt "reused" e.Event.attrs )
          with
          | Some (Event.Int total), Some (Event.Int reused) -> Some (total, reused)
          | _ -> None)
      events
  in
  Json.Obj
    ([
       ("id", Json.Str s.Recorder.corr);
       ("start_s", Json.Num s.Recorder.start_s);
       ("wall_s", Json.Num (s.Recorder.end_s -. s.Recorder.start_s));
       ("events", Json.Num (float_of_int s.Recorder.n_events));
       ("complete", Json.Bool s.Recorder.complete);
       ("degraded", Json.Bool s.Recorder.degraded);
     ]
    @ (match final_utility with
      | Some u -> [ ("final_utility", Json.Num u) ]
      | None -> [])
    @ (match reuse with
      | Some (total, reused) ->
          [
            ("components_total", Json.Num (float_of_int total));
            ("components_reused", Json.Num (float_of_int reused));
          ]
      | None -> [])
    @
    if not detail then []
    else
      [
        ( "curve",
          Json.List
            (List.map
               (fun (t, u) -> Json.Obj [ ("t", Json.Num t); ("u", Json.Num u) ])
               curve) );
        ("event_log", Json.List (List.map event_json events));
        ( "spans",
          Json.List
            (List.map (fun sp -> span_json sp []) s.Recorder.spans) );
      ])

let handle_solves req =
  match Http.query_param req "id" with
  | Some id -> (
      match Recorder.find id with
      | Some s -> Http.json_response 200 (solve_json ~detail:true s)
      | None -> Http.error_response 404 ("no recorded solve with id " ^ id))
  | None ->
      Http.json_response 200
        (Json.Obj
           [
             ("enabled", Json.Bool (Event.enabled ()));
             ("dumps", Json.Num (float_of_int (Recorder.dump_count ())));
             ( "solves",
               Json.List (List.map (solve_json ~detail:false) (Recorder.solves ())) );
           ])

(* Requests that joined an in-flight computation instead of computing. *)
let coalesced_total t = Cache.joins t.sol_cache + Cache.joins t.wl_flights

let handle_sched_debug t =
  let ss = Sched.stats t.sched in
  let cs = Curve_cache.stats t.curve_cache in
  let tenant_json (ti : Sched.Core.tenant_info) =
    Json.Obj
      [
        ("tenant", Json.Str ti.Sched.Core.ti_tenant);
        ("weight", Json.Num (float_of_int ti.Sched.Core.ti_weight));
        ("deficit", Json.Num (float_of_int ti.Sched.Core.ti_deficit));
        ("queued_batches", Json.Num (float_of_int ti.Sched.Core.ti_queued));
        ("queued_waiters", Json.Num (float_of_int ti.Sched.Core.ti_queued));
        ("dispatched", Json.Num (float_of_int ti.Sched.Core.ti_dispatched));
      ]
  in
  Http.json_response 200
    (Json.Obj
       [
         ("batches_total", Json.Num (float_of_int ss.Sched.batches_total));
         ("coalesced_total", Json.Num (float_of_int (coalesced_total t)));
         ("rejected_total", Json.Num (float_of_int ss.Sched.rejected_total));
         ("expired_total", Json.Num (float_of_int ss.Sched.expired_total));
         ("queued_batches", Json.Num (float_of_int ss.Sched.queued));
         ("queued_waiters", Json.Num (float_of_int ss.Sched.queued));
         ("running", Json.Num (float_of_int ss.Sched.running));
         ("est_batch_s", Json.Num ss.Sched.est_batch_s);
         ("tenants", Json.List (List.map tenant_json ss.Sched.tenants));
         ( "curve_cache",
           Json.Obj
             [
               ("entries", Json.Num (float_of_int cs.Curve_cache.entries));
               ("bytes", Json.Num (float_of_int cs.Curve_cache.bytes));
               ("max_bytes", Json.Num (float_of_int cs.Curve_cache.max_bytes));
               ("hits", Json.Num (float_of_int cs.Curve_cache.hits));
               ("misses", Json.Num (float_of_int cs.Curve_cache.misses));
               ("insertions", Json.Num (float_of_int cs.Curve_cache.insertions));
               ("evictions", Json.Num (float_of_int cs.Curve_cache.evictions));
             ] );
       ])

let handle_metrics t =
  (* Counters kept by other modules are polled on scrape: each scrape
     adds the growth since the last one. *)
  let delta_inc name ?(labels = []) ?help live =
    Metrics.inc t.metrics name ~labels ?help
      ~by:(live -. Metrics.counter_value t.metrics name ~labels)
  in
  let cache_gauges name cache =
    let labels = [ ("cache", name) ] in
    Metrics.set t.metrics "bccd_cache_entries" ~labels
      ~help:"Live entries per cache."
      (float_of_int (Cache.length cache));
    delta_inc "bccd_cache_evictions_total" ~labels (float_of_int (Cache.evictions cache));
    delta_inc "bccd_cache_hits_total" ~labels
      ~help:"Lookups answered from a finished entry."
      (float_of_int (Cache.hits cache));
    delta_inc "bccd_cache_misses_total" ~labels
      ~help:"Lookups that computed the entry."
      (float_of_int (Cache.misses cache))
  in
  cache_gauges "solution" t.sol_cache;
  cache_gauges "instance" t.inst_cache;
  Metrics.set t.metrics "bccd_workers" ~help:"Worker pool size."
    (float_of_int t.num_workers);
  Metrics.set t.metrics "bccd_uptime_seconds" ~help:"Process uptime."
    (Timer.now_s ());
  (* Execution-engine counters: process-wide atomics polled on scrape
     (the same delta-inc pattern as the cache eviction counter). *)
  let backend_name = function Engine.Seq -> "seq" | Engine.Domains -> "domains" in
  let outcome_name = function
    | `Ok -> "ok"
    | `Error -> "error"
    | `Cancelled -> "cancelled"
  in
  List.iter
    (fun ((b, o), n) ->
      let labels = [ ("backend", backend_name b); ("outcome", outcome_name o) ] in
      Metrics.inc t.metrics "bcc_engine_tasks_total" ~labels
        ~help:"Engine tasks completed, by backend and outcome."
        ~by:
          (float_of_int n
          -. Metrics.counter_value t.metrics "bcc_engine_tasks_total" ~labels))
    (Engine.task_counts ());
  Metrics.set t.metrics "bcc_engine_queue_depth"
    ~help:"Jobs and batch tickets waiting in the engine work queue."
    (float_of_int (Engine.Pool.queue_depth t.pool));
  (* Workload-store series: the commit counter is a store-wide total
     polled with the same delta-inc pattern; journal size and warm-start
     quality are per-workload gauges. *)
  Metrics.inc t.metrics "bcc_store_epochs_total"
    ~help:"Epoch-advancing workload commits (puts and deltas)."
    ~by:
      (float_of_int (Store.epochs_committed t.store)
      -. Metrics.counter_value t.metrics "bcc_store_epochs_total");
  Metrics.set t.metrics "bcc_store_replay_seconds"
    ~help:"Wall time the startup state-directory replay took."
    (Store.replay_seconds t.store);
  List.iter
    (fun (i : Store.info) ->
      Metrics.set t.metrics "bcc_store_journal_bytes"
        ~labels:[ ("workload", i.Store.name) ]
        ~help:"Journal bytes accumulated since the last compaction."
        (float_of_int i.Store.journal_bytes);
      match i.Store.warm_ratio with
      | Some r ->
          Metrics.set t.metrics "bcc_warm_start_utility_ratio"
            ~labels:[ ("workload", i.Store.name) ]
            ~help:
              "Share of the last warm solve's utility already covered by its \
               re-validated seed."
            r
      | None -> ())
    (Store.list t.store);
  (* Scheduler and shared-curve-cache series. *)
  let ss = Sched.stats t.sched in
  delta_inc "bcc_sched_batches_total"
    ~help:"Solve jobs dispatched by the scheduler."
    (float_of_int ss.Sched.batches_total);
  delta_inc "bcc_sched_coalesced_total"
    ~help:"Solve requests that joined an in-flight computation."
    (float_of_int (coalesced_total t));
  delta_inc "bcc_sched_rejected_total"
    ~help:"Solve requests refused by per-tenant admission."
    (float_of_int ss.Sched.rejected_total);
  delta_inc "bcc_sched_expired_total"
    ~help:"Queued solve requests whose deadline lapsed before dispatch."
    (float_of_int ss.Sched.expired_total);
  Metrics.set t.metrics "bcc_sched_queue_depth"
    ~help:"Solve jobs waiting for dispatch."
    (float_of_int ss.Sched.queued);
  Metrics.set t.metrics "bcc_sched_running"
    ~help:"Solve jobs currently executing."
    (float_of_int ss.Sched.running);
  Metrics.set t.metrics "bcc_sched_batch_seconds_est"
    ~help:"EWMA of recent solve job wall times (drives 429 retry-after)."
    ss.Sched.est_batch_s;
  List.iter
    (fun (ti : Sched.Core.tenant_info) ->
      let labels = [ ("tenant", ti.Sched.Core.ti_tenant) ] in
      delta_inc "bcc_sched_dispatched_total" ~labels
        ~help:"Solve jobs dispatched, by tenant."
        (float_of_int ti.Sched.Core.ti_dispatched);
      Metrics.set t.metrics "bcc_sched_tenant_queued_waiters" ~labels
        ~help:"Solve jobs queued, by tenant."
        (float_of_int ti.Sched.Core.ti_queued))
    ss.Sched.tenants;
  let cs = Curve_cache.stats t.curve_cache in
  Metrics.set t.metrics "bcc_curve_cache_entries"
    ~help:"Curve artifacts resident in the shared cache."
    (float_of_int cs.Curve_cache.entries);
  Metrics.set t.metrics "bcc_curve_cache_bytes"
    ~help:"Bytes held by the shared curve cache."
    (float_of_int cs.Curve_cache.bytes);
  delta_inc "bcc_curve_cache_hits_total"
    ~help:"Curve-cache lookups served from a resident artifact."
    (float_of_int cs.Curve_cache.hits);
  delta_inc "bcc_curve_cache_misses_total"
    ~help:"Curve-cache lookups that missed."
    (float_of_int cs.Curve_cache.misses);
  delta_inc "bcc_curve_cache_insertions_total"
    ~help:"Curve artifacts inserted into the shared cache."
    (float_of_int cs.Curve_cache.insertions);
  delta_inc "bcc_curve_cache_evictions_total"
    ~help:"Curve artifacts evicted to stay within the byte budget."
    (float_of_int cs.Curve_cache.evictions);
  Http.response ~content_type:"text/plain; version=0.0.4; charset=utf-8" 200
    (Metrics.render t.metrics)

(* The workload routes are the one segment-parameterized family; the
   flat endpoints stay exact-match. *)
let handle_workloads t meth segs req =
  match (meth, segs) with
  | "GET", [] -> handle_workloads_list t
  | "PUT", [ name ] -> handle_workload_put t name req
  | "GET", [ name ] -> handle_workload_info t name
  | "POST", [ name; "delta" ] -> handle_workload_delta t name req
  | "POST", [ name; "solve" ] -> handle_workload_solve t name req
  | "GET", [ name; "solution" ] -> handle_workload_solution t name
  | _, [] -> Http.error_response 405 "use GET for /workloads"
  | _, [ _ ] -> Http.error_response 405 ("use PUT or GET for " ^ req.Http.path)
  | _, [ _; ("delta" | "solve") ] -> Http.error_response 405 ("use POST for " ^ req.Http.path)
  | _, [ _; "solution" ] -> Http.error_response 405 ("use GET for " ^ req.Http.path)
  | _ -> Http.error_response 404 ("no such endpoint: " ^ req.Http.path)

let handle_direct t (req : Http.request) =
  match (req.meth, req.path) with
  | "GET", "/healthz" -> Http.response 200 "ok\n"
  | "GET", "/metrics" -> handle_metrics t
  | "GET", "/instances" -> handle_instances t
  | "GET", "/debug/trace" -> handle_trace req
  | "GET", "/debug/solves" -> handle_solves req
  | "GET", "/debug/sched" -> handle_sched_debug t
  | "POST", "/solve" -> handle_solve t E_solve req
  | "POST", "/gmc3" -> handle_solve t E_gmc3 req
  | "POST", "/ecc" -> handle_solve t E_ecc req
  | meth, path
    when path = "/workloads"
         || String.length path > 11
            && String.sub path 0 11 = "/workloads/" ->
      let segs =
        match String.split_on_char '/' path with
        | "" :: "workloads" :: rest -> List.filter (fun s -> s <> "") rest
        | _ -> []
      in
      handle_workloads t meth segs req
  | _, ("/solve" | "/gmc3" | "/ecc") ->
      Http.error_response 405 ("use POST for " ^ req.path)
  | _, ("/healthz" | "/metrics" | "/instances" | "/debug/trace" | "/debug/solves"
       | "/debug/sched") ->
      Http.error_response 405 ("use GET for " ^ req.path)
  | _ -> Http.error_response 404 ("no such endpoint: " ^ req.path)

(* The cluster hook goes first: [Some resp] is the owning shard's (or
   the failover path's) answer. *)
let handle t req =
  match t.cfg.forward req with Some resp -> resp | None -> handle_direct t req

(* --- connection plumbing --- *)

let count_request t ~endpoint ~status =
  Metrics.inc t.metrics "bccd_requests_total"
    ~labels:[ ("endpoint", endpoint); ("status", string_of_int status) ]
    ~help:"Requests by endpoint and response status."

let respond_error t fd ?headers ~endpoint ~status msg =
  count_request t ~endpoint ~status;
  Http.write_response fd (Http.error_response ?headers status msg)

(* Half-close and drain the client's unread bytes before [close].
   Responses written without reading the request (rejections, read
   errors) would otherwise race a TCP RST — closing a socket with
   unread receive data discards the just-written response on most
   stacks, and the client sees ECONNRESET instead of its 429/503.
   The drain is clamped to 1s so a client that never closes cannot pin
   the accept loop (rejections linger inline there). *)
let linger fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0 with Unix.Unix_error _ -> ());
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let buf = Bytes.create 4096 in
  try
    while Unix.read fd buf 0 (Bytes.length buf) > 0 do
      ()
    done
  with Unix.Unix_error _ -> ()

let serve_conn t fd enqueued_at =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      if Atomic.get t.stop then begin
        count_rejected t "shutdown";
        respond_error t fd ~endpoint:"-" ~status:503 "shutting down";
        linger fd
      end
      else if Timer.now_s () -. enqueued_at > t.cfg.timeout_s then begin
        (* The request waited out its deadline in the queue; solving it
           now would only add to the pile-up. *)
        count_rejected t "queue_timeout";
        respond_error t fd ~endpoint:"-" ~status:503 "timed out in queue";
        linger fd
      end
      else begin
        (* Keep-alive: a client that asked for it (the cluster router's
           pooled connections) may send further requests on the same
           socket.  The idle wait between requests is capped well below
           [timeout_s] so an idle pooled connection cannot pin this
           worker, and the request count is bounded as a backstop.
           Errors on a reused connection close it silently — the
           typical case is the client racing our idle timeout. *)
        let keep_alive_idle_s = Float.min 5.0 t.cfg.timeout_s in
        let max_keep_alive = 256 in
        let rec request_loop ~first n =
          if n <= 0 || Atomic.get t.stop then ()
          else
            match
              Fault.hit "server.read";
              Http.read_request fd
            with
            | exception Fault.Injected point ->
                respond_error t fd ~endpoint:"-" ~status:500
                  ("injected fault: " ^ point);
                linger fd
            | Error { status_hint; message } ->
                if first then begin
                  respond_error t fd ~endpoint:"-" ~status:status_hint message;
                  linger fd
                end
            | Ok req ->
                let timer = Timer.start () in
                (* Every request gets a correlation id — adopted from an
                   [X-Bcc-Trace-Id] request header when a routing hop
                   upstream already minted one (so one trace id follows
                   the request across the cluster), fresh otherwise —
                   installed as the ambient id for the whole handling
                   (engine tasks carry it onto worker domains), stamped
                   on every event the request emits, and returned in
                   [X-Bcc-Trace-Id] so the client can pull the solve's
                   record from [/debug/solves?id=…]. *)
                let corr =
                  if not (Event.enabled ()) then ""
                  else
                    match Http.header req "x-bcc-trace-id" with
                    | Some c when c <> "" && String.length c <= 64 -> c
                    | _ -> Event.new_corr ()
                in
                let run () =
                  try handle t req with
                  | Failure msg -> Http.error_response 400 msg
                  | Fault.Injected point ->
                      Http.error_response 500 ("injected fault: " ^ point)
                  | e -> Http.error_response 500 (Printexc.to_string e)
                in
                let resp =
                  if corr = "" then run ()
                  else
                    Event.with_corr corr (fun () ->
                        let resp = run () in
                        Event.emit "http_request"
                          ~attrs:
                            [
                              ("method", Event.Str req.meth);
                              ("path", Event.Str req.path);
                              ("status", Event.Int resp.Http.status);
                              ("duration_s", Event.Float (Timer.elapsed_s timer));
                            ];
                        resp)
                in
                let resp =
                  if corr = "" then resp
                  else
                    { resp with
                      Http.headers = ("X-Bcc-Trace-Id", corr) :: resp.Http.headers
                    }
                in
                Metrics.observe t.metrics "bccd_request_duration_seconds"
                  ~labels:[ ("endpoint", req.path) ]
                  ~help:"End-to-end request handling time."
                  (Timer.elapsed_s timer);
                count_request t ~endpoint:req.path ~status:resp.Http.status;
                let keep_alive = Http.wants_keep_alive req && n > 1 in
                Http.write_response ~keep_alive fd resp;
                if keep_alive then begin
                  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO keep_alive_idle_s
                   with Unix.Unix_error _ -> ());
                  request_loop ~first:false (n - 1)
                end
        in
        request_loop ~first:true max_keep_alive
      end)

let enqueue_conn t fd =
  (* Socket-level timeouts bound slow readers/writers per request. *)
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.timeout_s
   with Unix.Unix_error _ -> ());
  let reject ?headers reason ~status msg =
    count_rejected t reason;
    respond_error t fd ?headers ~endpoint:"-" ~status msg;
    linger fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (* Backpressure on {e connections} waiting for a worker, not on the raw
     engine queue — solver-internal batch tickets transit the same queue
     and must not trip the admission limit.  A full queue is the
     retryable condition (429 + retry-after); shutdown is the
     non-retryable 503. *)
  if Atomic.get t.pending >= t.cfg.queue_depth then
    reject "queue_full" ~status:429
      ~headers:[ ("retry-after", "1") ]
      "server busy, queue full"
  else begin
    Atomic.incr t.pending;
    Metrics.set t.metrics "bccd_queue_depth"
      ~help:"Connections waiting for a worker."
      (float_of_int (Atomic.get t.pending));
    let enqueued_at = Timer.now_s () in
    let job () =
      Atomic.decr t.pending;
      Metrics.set t.metrics "bccd_queue_depth" (float_of_int (Atomic.get t.pending));
      try serve_conn t fd enqueued_at with _ -> ()
    in
    if not (Engine.Pool.submit t.pool job) then begin
      Atomic.decr t.pending;
      reject "shutdown" ~status:503 "shutting down"
    end
  end

let run t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rec accept_loop () =
    if not (Atomic.get t.stop) then begin
      (match Unix.select [ t.sock ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept t.sock with
          | fd, _ -> enqueue_conn t fd
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Shutdown: the engine pool drains queued connections (late arrivals
     get 503 from [serve_conn]'s stop check) and joins its domains; any
     in-flight solve finishes first. *)
  Engine.Pool.shutdown t.pool;
  Store.close t.store;
  Event.close_log ();
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  (* The daemon is done with the shared pool; leave later library calls
     (tests run several daemons per process) a working default. *)
  Engine.set_default_jobs 1
