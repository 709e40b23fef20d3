(* End-to-end test of the bccd daemon: spawns the real binary on an
   ephemeral port, fires concurrent /solve requests at two budgets,
   verifies every returned solution client-side, asserts the repeated
   (instance, budget) pairs hit the solution cache (via /metrics), and
   checks the daemon drains and exits cleanly on SIGTERM. *)

module Instance = Bcc_core.Instance
module Propset = Bcc_core.Propset
module Symtab = Bcc_core.Symtab
module Solution = Bcc_core.Solution
module Io = Bcc_data.Io
module Json = Bcc_server.Json

let bccd_exe = Filename.concat ".." "bin/bccd.exe"

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- a tiny HTTP client (one request per connection, read to EOF) --- *)

(* [request_raw] keeps the status line and headers (the fault-matrix
   tests assert [retry-after]); [request] strips to the body. *)
let request_raw ~port ~meth ~path ?(body = "") () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      let req =
        Printf.sprintf "%s %s HTTP/1.1\r\nhost: localhost\r\ncontent-length: %d\r\n\r\n%s"
          meth path (String.length body) body
      in
      let b = Bytes.of_string req in
      let rec write_all off =
        if off < Bytes.length b then
          write_all (off + Unix.write sock b off (Bytes.length b - off))
      in
      write_all 0;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n -> Buffer.add_subbytes buf chunk 0 n; drain ()
        (* a reset after (part of) the response is end-of-stream, not a
           client crash — keep whatever arrived *)
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
      in
      drain ();
      let raw = Buffer.contents buf in
      let status =
        try Scanf.sscanf raw "HTTP/1.1 %d" (fun s -> s)
        with Scanf.Scan_failure _ | End_of_file -> -1
      in
      (status, raw))

let request ~port ~meth ~path ?body () =
  let status, raw = request_raw ~port ~meth ~path ?body () in
  let body =
    let rec find i =
      if i + 3 >= String.length raw then String.length raw
      else if String.sub raw i 4 = "\r\n\r\n" then i + 4
      else find (i + 1)
    in
    let start = find 0 in
    String.sub raw start (String.length raw - start)
  in
  (status, body)

(* --- daemon process management --- *)

type daemon = { pid : int; out : in_channel; port : int }

let start_daemon ?faults ?(port = 0) args =
  if not (Sys.file_exists bccd_exe) then
    Alcotest.failf "daemon binary %s not built" bccd_exe;
  let out_r, out_w = Unix.pipe () in
  let argv =
    Array.of_list (bccd_exe :: "--port" :: string_of_int port :: args)
  in
  let pid =
    match faults with
    | None -> Unix.create_process bccd_exe argv Unix.stdin out_w Unix.stderr
    | Some spec ->
        (* Arm the daemon's fault registry through the environment, the
           way an operator would. *)
        let env =
          Array.append (Unix.environment ()) [| "BCC_FAULTS=" ^ spec |]
        in
        Unix.create_process_env bccd_exe argv env Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  let rec find_port tries =
    if tries = 0 then Alcotest.fail "daemon never reported its port";
    match input_line out with
    | line -> (
        match
          Scanf.sscanf line "bccd: listening on %s@:%d" (fun _ p -> p)
        with
        | port -> port
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
            find_port (tries - 1))
    | exception End_of_file -> Alcotest.fail "daemon exited before listening"
  in
  let port = find_port 50 in
  { pid; out; port }

let wait_exit d =
  (* Bounded wait so a wedged daemon fails the test instead of hanging
     it.  Monotonic-clock delta, not wall-clock timestamps: an NTP step
     mid-test must not spuriously expire (or extend) the bound. *)
  let started = Bcc_util.Timer.now_s () in
  let deadline = started +. 10.0 in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Bcc_util.Timer.now_s () > deadline then begin
          Unix.kill d.pid Sys.sigkill;
          ignore (Unix.waitpid [] d.pid);
          Alcotest.fail "daemon did not exit within 10s of SIGTERM"
        end
        else (Thread.delay 0.05; poll ())
    | _, status -> status
  in
  poll ()

let drain_output d =
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_string buf (input_line d.out);
       Buffer.add_char buf '\n'
     done
   with End_of_file -> ());
  close_in d.out;
  Buffer.contents buf

let metrics_of port =
  let status, body = request ~port ~meth:"GET" ~path:"/metrics" () in
  Alcotest.(check int) "metrics status" 200 status;
  body

(* --- fixtures --- *)

let fixture_file () =
  let inst = Fixtures.figure1 ~budget:4.0 in
  let file = Filename.temp_file "bccd_fixture" ".inst" in
  (* figure1 has no symtab; rebuild it with named properties so the wire
     format and the client-side verification exercise name interning. *)
  let names = Symtab.create () in
  List.iter (fun n -> ignore (Symtab.intern names n)) [ "x"; "y"; "z" ];
  let named =
    Instance.create ~name:"figure1" ~names ~budget:(Instance.budget inst)
      ~queries:
        (Array.init (Instance.num_queries inst) (fun qi ->
             (Instance.query inst qi, Instance.utility inst qi)))
      ~cost:(fun c -> Instance.cost_of inst c)
      ()
  in
  Io.save file named;
  (file, named)

let get_field name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response field %S missing in %s" name (Json.to_string json)

let num_field name json =
  match Json.get_num (get_field name json) with
  | Some x -> x
  | None -> Alcotest.failf "field %S is not a number" name

(* Rebuild the solution client-side from the returned classifier names
   and verify it against the locally loaded instance. *)
let verify_response inst ~budget json =
  let inst = Instance.with_budget inst budget in
  let tbl = Option.get (Instance.names inst) in
  let classifiers =
    match Json.get_list (get_field "classifiers" json) with
    | None -> Alcotest.fail "classifiers is not a list"
    | Some sets ->
        List.map
          (fun set ->
            match Json.get_list set with
            | None -> Alcotest.fail "classifier is not a list"
            | Some names ->
                Propset.of_list
                  (List.map
                     (fun n ->
                       match Json.get_string n with
                       | Some s -> Option.get (Symtab.find tbl s)
                       | None -> Alcotest.fail "classifier member is not a string")
                     names))
          sets
  in
  let sol = Solution.of_sets inst classifiers in
  Alcotest.(check bool) "client-side Solution.verify" true (Solution.verify inst sol);
  Alcotest.(check (float 1e-6)) "server utility matches recomputation"
    sol.Solution.utility (num_field "utility" json);
  Alcotest.(check (float 1e-6)) "server cost matches recomputation"
    sol.Solution.cost (num_field "cost" json);
  Alcotest.(check bool) "server-side verified flag" true
    (Json.get_bool (get_field "verified" json) = Some true)

let metric_value body name =
  (* Find "name value" or "name{labels} value" in Prometheus text. *)
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         if
           String.length line > String.length name
           && String.sub line 0 (String.length name) = name
         then
           match String.rindex_opt line ' ' with
           | Some i ->
               float_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))
           | None -> None
         else None)

(* --- the end-to-end scenario --- *)

let e2e_concurrent_solves_and_shutdown () =
  let file, inst = fixture_file () in
  let d =
    start_daemon [ "--workers"; "4"; "--load"; "fig=" ^ file; "--timeout"; "30" ]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [ Unix.WNOHANG ] d.pid) with Unix.Unix_error _ -> ());
      Sys.remove file)
    (fun () ->
      (* health + preloaded listing *)
      let status, body = request ~port:d.port ~meth:"GET" ~path:"/healthz" () in
      Alcotest.(check int) "healthz status" 200 status;
      Alcotest.(check string) "healthz body" "ok\n" body;
      let status, body = request ~port:d.port ~meth:"GET" ~path:"/instances" () in
      Alcotest.(check int) "instances status" 200 status;
      let listing = Json.of_string_exn (String.trim body) in
      (match Json.get_list (get_field "instances" listing) with
      | Some [ entry ] ->
          Alcotest.(check (option string)) "preloaded name" (Some "fig")
            (Json.get_string (get_field "name" entry))
      | _ -> Alcotest.fail "expected exactly one preloaded instance");

      (* >= 8 concurrent /solve requests for the same instance at two
         budgets (the paper's budget-sweep-over-fixed-workload pattern) *)
      let budgets = [| 4.0; 11.0; 4.0; 11.0; 4.0; 11.0; 4.0; 11.0 |] in
      let results = Array.make (Array.length budgets) (-1, "") in
      let fire i =
        let body = Printf.sprintf {|{"instance":"fig","budget":%g}|} budgets.(i) in
        results.(i) <- request ~port:d.port ~meth:"POST" ~path:"/solve" ~body ()
      in
      let threads =
        Array.to_list (Array.mapi (fun i _ -> Thread.create fire i) budgets)
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i (status, body) ->
          Alcotest.(check int) (Printf.sprintf "solve[%d] status" i) 200 status;
          let json = Json.of_string_exn (String.trim body) in
          verify_response inst ~budget:budgets.(i) json;
          (* Figure 1 optima: utility 9 at budget 4, utility 11 at 11. *)
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "solve[%d] optimal utility" i)
            (if budgets.(i) = 4.0 then 9.0 else 11.0)
            (num_field "utility" json))
        results;

      (* Sequential re-solves of both (instance, budget) pairs must be
         cache hits regardless of how the concurrent batch raced. *)
      List.iter
        (fun b ->
          let body = Printf.sprintf {|{"instance":"fig","budget":%g}|} b in
          let status, body = request ~port:d.port ~meth:"POST" ~path:"/solve" ~body () in
          Alcotest.(check int) "re-solve status" 200 status;
          let json = Json.of_string_exn (String.trim body) in
          Alcotest.(check (option bool)) "re-solve served from cache" (Some true)
            (Json.get_bool (get_field "cached" json)))
        [ 4.0; 11.0 ];

      (* /metrics reports the cache hits *)
      let status, body = request ~port:d.port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check int) "metrics status" 200 status;
      let hits =
        match metric_value body {|bccd_cache_hits_total{cache="solution"}|} with
        | Some x -> x
        | None -> Alcotest.fail "bccd_cache_hits_total{cache=\"solution\"} missing"
      in
      Alcotest.(check bool) "solution cache hit recorded" true (hits >= 2.0);
      (match metric_value body "bccd_requests_total{endpoint=\"/solve\",status=\"200\"}" with
      | Some n -> Alcotest.(check bool) "request counter >= 10" true (n >= 10.0)
      | None -> Alcotest.fail "bccd_requests_total missing");

      (* Execution-engine counters: every connection is a domain-pool job
         and every solve runs portfolio tasks on the same pool, so the
         domains/ok counter must be well past the request count. *)
      (match metric_value body {|bcc_engine_tasks_total{backend="domains",outcome="ok"}|} with
      | Some n -> Alcotest.(check bool) "engine task counter populated" true (n >= 10.0)
      | None ->
          Alcotest.fail {|bcc_engine_tasks_total{backend="domains",outcome="ok"} missing|});
      (match metric_value body "bcc_engine_queue_depth" with
      | Some n -> Alcotest.(check bool) "engine queue gauge non-negative" true (n >= 0.0)
      | None -> Alcotest.fail "bcc_engine_queue_depth missing");

      (* per-stage latency histograms, fed by the span profiler *)
      (match metric_value body {|bcc_stage_duration_seconds_count{stage="solve"}|} with
      | Some n ->
          (* cache hits bypass the solver, so only the two distinct
             (instance, budget) pairs are guaranteed to have run it *)
          Alcotest.(check bool) "solve stage histogram populated" true (n >= 2.0)
      | None -> Alcotest.fail {|bcc_stage_duration_seconds_count{stage="solve"} missing|});
      (match metric_value body {|bcc_stage_duration_seconds_count{stage="prune"}|} with
      | Some n -> Alcotest.(check bool) "prune stage observed" true (n >= 1.0)
      | None -> Alcotest.fail {|bcc_stage_duration_seconds_count{stage="prune"} missing|});

      (* /debug/trace returns the recorded span forest *)
      (* engine portfolios add a few hundred [engine.task] spans per
         solve, so ask for a window big enough to hold a whole solve's
         subtree. *)
      let status, body =
        request ~port:d.port ~meth:"GET" ~path:"/debug/trace?last=4096" ()
      in
      Alcotest.(check int) "debug/trace status" 200 status;
      let trace = Json.of_string_exn (String.trim body) in
      Alcotest.(check (option bool)) "tracing enabled" (Some true)
        (Json.get_bool (get_field "enabled" trace));
      (match Json.get_list (get_field "spans" trace) with
      | Some (_ :: _ as roots) ->
          let name_of r = Json.get_string (get_field "name" r) in
          let solve_roots = List.filter (fun r -> name_of r = Some "solve") roots in
          if solve_roots = [] then Alcotest.fail "no solve root span in /debug/trace";
          (* The ring may have evicted the oldest solve's early children,
             but at least one retained solve must link its prune child. *)
          Alcotest.(check bool) "a solve span has a prune child" true
            (List.exists
               (fun r ->
                 match Json.get_list (get_field "children" r) with
                 | Some kids -> List.exists (fun k -> name_of k = Some "prune") kids
                 | _ -> false)
               solve_roots)
      | _ -> Alcotest.fail "debug/trace returned no spans");

      (* graceful shutdown on SIGTERM: clean exit, workers drained *)
      Unix.kill d.pid Sys.sigterm;
      (match wait_exit d with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c -> Alcotest.failf "daemon exited with code %d" c
      | Unix.WSIGNALED s -> Alcotest.failf "daemon killed by signal %d" s
      | Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped unexpectedly");
      let tail = drain_output d in
      Alcotest.(check bool) "drained workers before exiting" true
        (let needle = "shutdown complete" in
         let n = String.length needle and m = String.length tail in
         let rec go i = i + n <= m && (String.sub tail i n = needle || go (i + 1)) in
         go 0))

let error_paths () =
  let file, _inst = fixture_file () in
  let d = start_daemon [ "--workers"; "2"; "--load"; "fig=" ^ file ] in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
      close_in d.out;
      Sys.remove file)
    (fun () ->
      let post path body = request ~port:d.port ~meth:"POST" ~path ~body () in
      Alcotest.(check int) "unknown instance -> 404" 404
        (fst (post "/solve" {|{"instance":"nope"}|}));
      Alcotest.(check int) "bad json -> 400" 400 (fst (post "/solve" {|{"instance|}));
      Alcotest.(check int) "empty body -> 400" 400 (fst (post "/solve" ""));
      Alcotest.(check int) "malformed instance text -> 400" 400
        (fst (post "/solve" "budget nope\n"));
      Alcotest.(check int) "gmc3 without target -> 400" 400
        (fst (post "/gmc3" {|{"instance":"fig"}|}));
      Alcotest.(check int) "GET on solve -> 405" 405
        (fst (request ~port:d.port ~meth:"GET" ~path:"/solve" ()));
      Alcotest.(check int) "unknown path -> 404" 404
        (fst (request ~port:d.port ~meth:"GET" ~path:"/nope" ()));
      (* gmc3 + ecc happy paths over the wire *)
      let status, body = post "/gmc3" {|{"instance":"fig","target":9}|} in
      Alcotest.(check int) "gmc3 status" 200 status;
      let json = Json.of_string_exn (String.trim body) in
      Alcotest.(check (option bool)) "gmc3 reached" (Some true)
        (Json.get_bool (get_field "reached" json));
      let status, body = post "/ecc" {|{"instance":"fig"}|} in
      Alcotest.(check int) "ecc status" 200 status;
      let json = Json.of_string_exn (String.trim body) in
      Alcotest.(check bool) "ecc ratio positive" true (num_field "ratio" json > 0.0);
      (* CRLF + repeated-blank instance text over HTTP parses (the Io fix) *)
      let crlf_body =
        "budget  4\r\nquery x;y;z\t8\r\nquery x;z  1\r\nquery x;y 2\r\n"
        ^ "classifier x 5\r\nclassifier y  3\r\nclassifier z 3\r\n"
        ^ "classifier x;y;z 3\r\nclassifier x;z 4\r\nclassifier y;z 0\r\n"
      in
      let status, body = post "/solve" crlf_body in
      Alcotest.(check int) "crlf instance solves" 200 status;
      let json = Json.of_string_exn (String.trim body) in
      Alcotest.(check (float 1e-6)) "crlf instance optimal" 9.0
        (num_field "utility" json);
      Unix.kill d.pid Sys.sigterm;
      match wait_exit d with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon did not exit cleanly")

(* A negative budget is refused on every solve endpoint, from the body
   or the query, as PUT /workloads refuses it; it never reaches the
   solver or the result cache. *)
let negative_budget_400 () =
  let file, _inst = fixture_file () in
  let d = start_daemon [ "--workers"; "2"; "--load"; "fig=" ^ file ] in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
      close_in d.out;
      Sys.remove file)
    (fun () ->
      List.iter
        (fun path ->
          let status, body =
            request ~port:d.port ~meth:"POST" ~path
              ~body:{|{"instance":"fig","budget":-1,"target":9}|} ()
          in
          Alcotest.(check int) (path ^ ": negative body budget -> 400") 400 status;
          Alcotest.(check bool) (path ^ ": the error names the budget") true
            (contains body "budget");
          Alcotest.(check int) (path ^ ": negative ?budget= -> 400") 400
            (fst
               (request ~port:d.port ~meth:"POST" ~path:(path ^ "?budget=-1")
                  ~body:{|{"instance":"fig","target":9}|} ())))
        [ "/solve"; "/gmc3"; "/ecc" ];
      let m = metrics_of d.port in
      Alcotest.(check bool) "no solve ran" true
        (metric_value m {|bccd_solve_duration_seconds_count{endpoint="solve"}|} = None);
      Alcotest.(check (option (float 1e-9))) "nothing was cached" (Some 0.0)
        (metric_value m {|bccd_cache_entries{cache="solution"}|}))

(* --- fault matrix: env-armed injections against the live daemon --- *)

let with_daemon ?faults args f =
  let file, inst = fixture_file () in
  let d = start_daemon ?faults (args @ [ "--load"; "fig=" ^ file ]) in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [ Unix.WNOHANG ] d.pid) with Unix.Unix_error _ -> ());
      Sys.remove file)
    (fun () ->
      f d inst;
      (* every scenario must leave a serviceable daemon behind *)
      Alcotest.(check int) "healthz after the faults" 200
        (fst (request ~port:d.port ~meth:"GET" ~path:"/healthz" ()));
      Unix.kill d.pid Sys.sigterm;
      match wait_exit d with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon did not exit cleanly after the fault run")

let solve_body = {|{"instance":"fig","budget":4}|}

let metrics d = metrics_of d.port

(* A worker that dies mid-task costs exactly one request; the cache
   fault is swallowed (error counter + treated as a miss). *)
let fault_worker_death_and_cache () =
  with_daemon ~faults:"engine.task:throw:1,cache.get:throw:1"
    [ "--workers"; "2" ]
    (fun d inst ->
      let status, _ =
        request ~port:d.port ~meth:"POST" ~path:"/solve" ~body:solve_body ()
      in
      Alcotest.(check int) "injected worker fault surfaces as 500" 500 status;
      let status, body =
        request ~port:d.port ~meth:"POST" ~path:"/solve" ~body:solve_body ()
      in
      Alcotest.(check int) "next request recovers" 200 status;
      let json = Json.of_string_exn (String.trim body) in
      verify_response inst ~budget:4.0 json;
      let m = metrics d in
      (match metric_value m "bccd_cache_errors_total" with
      | Some n ->
          Alcotest.(check bool) "cache fault counted, not fatal" true (n >= 1.0)
      | None -> Alcotest.fail "bccd_cache_errors_total missing");
      match
        metric_value m {|bcc_engine_tasks_total{backend="domains",outcome="error"}|}
      with
      | Some n -> Alcotest.(check bool) "task failure counted" true (n >= 1.0)
      | None -> Alcotest.fail "engine error counter missing")

(* A deadline hit mid-solve degrades: HTTP 200, [degraded: true], a
   feasible solution, and the two robustness counters move — and the
   degraded answer is never memoized. *)
let fault_deadline_degrades () =
  with_daemon ~faults:"engine.task:delay:0.3" [ "--workers"; "2" ]
    (fun d inst ->
      let body = {|{"instance":"fig","budget":4,"timeout_ms":100}|} in
      let shoot label =
        let status, resp =
          request ~port:d.port ~meth:"POST" ~path:"/solve" ~body ()
        in
        Alcotest.(check int) (label ^ ": still 200") 200 status;
        let json = Json.of_string_exn (String.trim resp) in
        Alcotest.(check (option bool)) (label ^ ": flagged degraded") (Some true)
          (Json.get_bool (get_field "degraded" json));
        Alcotest.(check (option bool))
          (label ^ ": degraded result not served from cache") (Some false)
          (Json.get_bool (get_field "cached" json));
        (* feasibility of the incumbent, verified client-side *)
        verify_response inst ~budget:4.0 json
      in
      shoot "first timed-out solve";
      shoot "second timed-out solve";
      let m = metrics d in
      let exactly name expected =
        match metric_value m name with
        | Some n -> Alcotest.(check (float 1e-9)) name expected n
        | None -> Alcotest.failf "%s missing" name
      in
      exactly {|bcc_requests_degraded_total{endpoint="solve"}|} 2.0;
      exactly {|bcc_deadline_exceeded_total{endpoint="solve"}|} 2.0)

(* Backpressure: with one worker wedged (delay fault) and a queue depth
   of one, the third concurrent request bounces with 429 + retry-after,
   and the rejection counter moves. *)
let fault_backpressure_429 () =
  with_daemon ~faults:"engine.task:delay:2:1"
    [ "--workers"; "1"; "--queue-depth"; "1" ]
    (fun d _inst ->
      let slot () = ref (-1, "") in
      let r1 = slot () and r2 = slot () and r3 = slot () in
      let fire r =
        Thread.create
          (fun () ->
            r := request_raw ~port:d.port ~meth:"POST" ~path:"/solve" ~body:solve_body ())
          ()
      in
      let t1 = fire r1 in
      Thread.delay 0.5;
      (* worker now wedged in the delayed task *)
      let t2 = fire r2 in
      Thread.delay 0.3;
      let t3 = fire r3 in
      List.iter Thread.join [ t1; t2; t3 ];
      Alcotest.(check int) "wedged request still completes" 200 (fst !r1);
      let late = [ !r2; !r3 ] in
      let rejected = List.filter (fun (s, _) -> s = 429) late in
      Alcotest.(check bool) "a concurrent request bounced with 429" true
        (rejected <> []);
      List.iter
        (fun (_, raw) ->
          Alcotest.(check bool) "429 carries retry-after" true
            (contains (String.lowercase_ascii raw) "retry-after: 1"))
        rejected;
      let m = metrics d in
      match metric_value m {|bcc_requests_rejected_total{reason="queue_full"}|} with
      | Some n -> Alcotest.(check bool) "rejection counted" true (n >= 1.0)
      | None -> Alcotest.fail "bcc_requests_rejected_total missing")

(* --- workload store over HTTP --- *)

let fig_text =
  "budget 4\n\
   query x;y;z 8\n\
   query x;z 1\n\
   query x;y 2\n\
   classifier x 5\n\
   classifier y 3\n\
   classifier z 3\n\
   classifier x;y;z 3\n\
   classifier x;z 4\n\
   classifier y;z 0\n"

let temp_state_dir () =
  let base = Filename.temp_file "bccd_state" "" in
  Sys.remove base;
  Unix.mkdir base 0o755;
  base

let rm_state_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let kill_hard d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  try close_in d.out with Sys_error _ -> ()

(* A query longer than Instance.max_query_length is malformed input:
   400 on an inline /solve and on a workload PUT, never a 500. *)
let long_query_400 () =
  let dir = temp_state_dir () in
  let d = start_daemon [ "--workers"; "2"; "--state-dir"; dir ] in
  Fun.protect
    ~finally:(fun () ->
      kill_hard d;
      rm_state_dir dir)
    (fun () ->
      let long = String.concat ";" (List.init 17 (Printf.sprintf "p%d")) in
      let text = Printf.sprintf "budget 4\nquery %s 1\nclassifier p0 1\n" long in
      let status, body =
        request ~port:d.port ~meth:"POST" ~path:"/solve"
          ~body:(Json.to_string (Json.Obj [ ("text", Json.Str text) ])) ()
      in
      Alcotest.(check int) "inline /solve -> 400" 400 status;
      Alcotest.(check bool) "the error names the limit" true (contains body "16 properties");
      Alcotest.(check int) "PUT /workloads -> 400" 400
        (fst (request ~port:d.port ~meth:"PUT" ~path:"/workloads/long" ~body:text ()));
      Alcotest.(check int) "16 properties still load" 200
        (fst
           (request ~port:d.port ~meth:"PUT" ~path:"/workloads/ok"
              ~body:
                (Printf.sprintf "budget 4\nquery %s 1\nclassifier p0 1\n"
                   (String.concat ";" (List.init 16 (Printf.sprintf "p%d"))))
              ())))

(* --- telemetry: correlation header -> flight recorder -> metrics --- *)

let header_value raw name =
  let lname = String.lowercase_ascii name in
  String.split_on_char '\n' raw
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.lowercase_ascii (String.trim (String.sub line 0 i)) = lname
           ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

let telemetry_correlation () =
  let file, _inst = fixture_file () in
  let event_log = Filename.temp_file "bccd_events" ".jsonl" in
  let d =
    start_daemon
      [ "--workers"; "2"; "--load"; "fig=" ^ file; "--event-log"; event_log ]
  in
  Fun.protect
    ~finally:(fun () ->
      kill_hard d;
      Sys.remove file;
      if Sys.file_exists event_log then Sys.remove event_log)
    (fun () ->
      (* one cold solve; keep the full response for header inspection *)
      let status, raw =
        request_raw ~port:d.port ~meth:"POST" ~path:"/solve" ~body:solve_body ()
      in
      Alcotest.(check int) "solve status" 200 status;
      let corr =
        match header_value raw "X-Bcc-Trace-Id" with
        | Some c -> c
        | None -> Alcotest.fail "X-Bcc-Trace-Id header missing from /solve response"
      in
      Alcotest.(check int) "trace id is 12 hex chars" 12 (String.length corr);
      String.iter
        (fun c ->
          if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then
            Alcotest.failf "non-hex char %C in trace id %s" c corr)
        corr;
      let body =
        let rec find i =
          if i + 3 >= String.length raw then String.length raw
          else if String.sub raw i 4 = "\r\n\r\n" then i + 4
          else find (i + 1)
        in
        let start = find 0 in
        String.sub raw start (String.length raw - start)
      in
      let solve_resp = Json.of_string_exn (String.trim body) in
      let solve_utility = num_field "utility" solve_resp in

      (* the header keys the flight-recorder record *)
      let status, body =
        request ~port:d.port ~meth:"GET" ~path:("/debug/solves?id=" ^ corr) ()
      in
      Alcotest.(check int) "debug/solves?id status" 200 status;
      let detail = Json.of_string_exn (String.trim body) in
      Alcotest.(check (option string)) "record id is the header value" (Some corr)
        (Json.get_string (get_field "id" detail));
      Alcotest.(check (option bool)) "record complete" (Some true)
        (Json.get_bool (get_field "complete" detail));
      Alcotest.(check (float 1e-6)) "recorded final utility = returned utility"
        solve_utility (num_field "final_utility" detail);
      (match Json.get_list (get_field "curve" detail) with
      | Some (_ :: _ as pts) ->
          (* the curve's last point is the returned solution *)
          let last = List.nth pts (List.length pts - 1) in
          Alcotest.(check (float 1e-6)) "curve ends at the returned utility"
            solve_utility (num_field "u" last);
          (* monotone non-decreasing utility, non-negative times *)
          ignore
            (List.fold_left
               (fun prev p ->
                 Alcotest.(check bool) "curve times non-negative" true
                   (num_field "t" p >= -1e-9);
                 let u = num_field "u" p in
                 Alcotest.(check bool) "anytime curve is monotone" true
                   (u >= prev -. 1e-9);
                 u)
               neg_infinity pts)
      | _ -> Alcotest.fail "anytime curve empty in /debug/solves?id");
      (match Json.get_list (get_field "event_log" detail) with
      | Some (_ :: _ as evs) ->
          let names =
            List.filter_map (fun e -> Json.get_string (get_field "name" e)) evs
          in
          List.iter
            (fun needed ->
              if not (List.mem needed names) then
                Alcotest.failf "event %S missing from the recorded solve" needed)
            [ "solve_start"; "incumbent_update"; "solve_report" ]
      | _ -> Alcotest.fail "no events in /debug/solves?id");

      (* the listing shows the record too *)
      let status, body = request ~port:d.port ~meth:"GET" ~path:"/debug/solves" () in
      Alcotest.(check int) "debug/solves status" 200 status;
      let listing = Json.of_string_exn (String.trim body) in
      Alcotest.(check (option bool)) "telemetry enabled" (Some true)
        (Json.get_bool (get_field "enabled" listing));
      (match Json.get_list (get_field "solves" listing) with
      | Some solves ->
          Alcotest.(check bool) "listing contains the solve" true
            (List.exists
               (fun s -> Json.get_string (get_field "id" s) = Some corr)
               solves)
      | None -> Alcotest.fail "solves is not a list");
      Alcotest.(check int) "unknown id -> 404" 404
        (fst (request ~port:d.port ~meth:"GET" ~path:"/debug/solves?id=ffffffffffff" ()));

      (* progress stream feeds the metrics registry *)
      let status, m = request ~port:d.port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check int) "metrics status" 200 status;
      (match metric_value m "bcc_solve_rounds_total" with
      | Some n -> Alcotest.(check bool) "rounds counter positive" true (n >= 1.0)
      | None -> Alcotest.fail "bcc_solve_rounds_total missing");
      (match metric_value m "bcc_incumbent_improvements_total" with
      | Some n -> Alcotest.(check bool) "improvements counter positive" true (n >= 1.0)
      | None -> Alcotest.fail "bcc_incumbent_improvements_total missing");
      (match metric_value m "bcc_solve_utility_ratio" with
      | Some r ->
          Alcotest.(check bool) "utility ratio in (0,1]" true
            (r > 0.0 && r <= 1.0 +. 1e-9)
      | None -> Alcotest.fail "bcc_solve_utility_ratio missing");

      (* clean shutdown flushes the JSONL event log *)
      Unix.kill d.pid Sys.sigterm;
      (match wait_exit d with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon did not exit cleanly");
      let lines =
        In_channel.with_open_bin event_log In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check bool) "event log non-empty" true (lines <> []);
      let decoded =
        List.map
          (fun l ->
            match Bcc_obs.Event.of_json_line l with
            | Some e -> e
            | None -> Alcotest.failf "undecodable event-log line: %s" l)
          lines
      in
      Alcotest.(check bool) "event log carries the solve's correlation id" true
        (List.exists
           (fun e ->
             e.Bcc_obs.Event.corr = corr
             && e.Bcc_obs.Event.name = "solve_report")
           decoded))

let store_lifecycle () =
  let dir = temp_state_dir () in
  let d = start_daemon [ "--workers"; "2"; "--state-dir"; dir ] in
  Fun.protect
    ~finally:(fun () ->
      kill_hard d;
      rm_state_dir dir)
    (fun () ->
      let put path body = request ~port:d.port ~meth:"PUT" ~path ~body () in
      let post path body = request ~port:d.port ~meth:"POST" ~path ~body () in
      let get path = request ~port:d.port ~meth:"GET" ~path () in
      (* create *)
      let status, body = put "/workloads/fig" fig_text in
      Alcotest.(check int) "PUT status" 200 status;
      let json = Json.of_string_exn (String.trim body) in
      Alcotest.(check (float 1e-9)) "epoch 0 after PUT" 0.0 (num_field "epoch" json);
      Alcotest.(check (float 1e-9)) "three queries" 3.0 (num_field "queries" json);
      (* bad inputs come back typed *)
      Alcotest.(check int) "unsafe name -> 400" 400 (fst (put "/workloads/.dot" fig_text));
      Alcotest.(check int) "bad instance text -> 400" 400
        (fst (put "/workloads/junk" "budget nope\n"));
      Alcotest.(check int) "bad delta -> 400" 400
        (fst (post "/workloads/fig/delta" "wibble x 1\n"));
      Alcotest.(check int) "delta on unknown workload -> 404" 404
        (fst (post "/workloads/ghost/delta" "budget 9\n"));
      Alcotest.(check int) "solution before any solve -> 404" 404
        (fst (get "/workloads/fig/solution"));
      Alcotest.(check int) "DELETE -> 405" 405
        (fst (request ~port:d.port ~meth:"DELETE" ~path:"/workloads/fig" ()));
      (* listing *)
      let status, body = get "/workloads" in
      Alcotest.(check int) "list status" 200 status;
      (match
         Json.get_list (get_field "workloads" (Json.of_string_exn (String.trim body)))
       with
      | Some [ entry ] ->
          Alcotest.(check (option string)) "listed name" (Some "fig")
            (Json.get_string (get_field "name" entry))
      | _ -> Alcotest.fail "expected exactly one workload");
      (* first solve is cold and optimal (figure1 @ 4 -> 9) *)
      let status, body = post "/workloads/fig/solve" "" in
      Alcotest.(check int) "solve status" 200 status;
      let json = Json.of_string_exn (String.trim body) in
      Alcotest.(check (float 1e-6)) "figure1 optimum over the store" 9.0
        (num_field "utility" json);
      Alcotest.(check (option bool)) "first solve cold" (Some false)
        (Json.get_bool (get_field "warm" json));
      let base_utility = num_field "utility" json in
      (* drift: budget up, one query's utility up -> warm re-solve *)
      let status, body = post "/workloads/fig/delta" "budget 11\nadd x;y 1\n" in
      Alcotest.(check int) "delta status" 200 status;
      Alcotest.(check (float 1e-9)) "epoch 1 after delta" 1.0
        (num_field "epoch" (Json.of_string_exn (String.trim body)));
      let status, body = post "/workloads/fig/solve" "" in
      Alcotest.(check int) "re-solve status" 200 status;
      let json = Json.of_string_exn (String.trim body) in
      Alcotest.(check (option bool)) "re-solve warm-seeded" (Some true)
        (Json.get_bool (get_field "warm" json));
      Alcotest.(check bool) "monotone drift -> utility does not drop" true
        (num_field "utility" json >= base_utility -. 1e-9);
      Alcotest.(check bool) "re-validated seed banked" true
        (num_field "seed_utility" json > 0.0);
      (* a raw log tail is the other delta arrival path *)
      Alcotest.(check int) "log-format delta accepted" 200
        (fst (post "/workloads/fig/delta?format=log" "x y\t3\n"));
      (* store metrics exported *)
      let status, m = get "/metrics" in
      Alcotest.(check int) "metrics status" 200 status;
      (match metric_value m "bcc_store_epochs_total" with
      | Some n -> Alcotest.(check bool) "epochs counter >= 3" true (n >= 3.0)
      | None -> Alcotest.fail "bcc_store_epochs_total missing");
      (match metric_value m {|bcc_store_journal_bytes{workload="fig"}|} with
      | Some n -> Alcotest.(check bool) "journal bytes gauge positive" true (n > 0.0)
      | None -> Alcotest.fail "bcc_store_journal_bytes missing");
      (match metric_value m {|bcc_warm_start_utility_ratio{workload="fig"}|} with
      | Some r -> Alcotest.(check bool) "warm ratio gauge in (0,1]" true (r > 0.0 && r <= 1.0 +. 1e-9)
      | None -> Alcotest.fail "bcc_warm_start_utility_ratio missing");
      Alcotest.(check bool) "replay gauge present" true
        (metric_value m "bcc_store_replay_seconds" <> None);
      Unix.kill d.pid Sys.sigterm;
      match wait_exit d with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon did not exit cleanly")

(* SIGKILL the daemon after committed epochs + a committed solution,
   append a torn record to the journal (the crash-mid-append tail),
   restart on the same state dir, and require the exact committed
   state back. *)
let store_crash_recovery () =
  let dir = temp_state_dir () in
  Fun.protect
    ~finally:(fun () -> rm_state_dir dir)
    (fun () ->
      let d = start_daemon [ "--workers"; "2"; "--state-dir"; dir ] in
      let committed_utility, committed_cost =
        Fun.protect
          ~finally:(fun () -> kill_hard d)
          (fun () ->
            let status, _ =
              request ~port:d.port ~meth:"PUT" ~path:"/workloads/fig?budget=11"
                ~body:fig_text ()
            in
            Alcotest.(check int) "PUT status" 200 status;
            Alcotest.(check int) "delta status" 200
              (fst
                 (request ~port:d.port ~meth:"POST" ~path:"/workloads/fig/delta"
                    ~body:"add x;y 1\n" ()));
            let status, body =
              request ~port:d.port ~meth:"POST" ~path:"/workloads/fig/solve" ~body:"" ()
            in
            Alcotest.(check int) "solve status" 200 status;
            let json = Json.of_string_exn (String.trim body) in
            Alcotest.(check (float 1e-9)) "solved at epoch 1" 1.0 (num_field "epoch" json);
            (num_field "utility" json, num_field "cost" json))
        (* kill_hard ran: SIGKILL, no drain, no fsync beyond the commits *)
      in
      (* the crash left half an append behind *)
      let journal = Filename.concat dir "fig.journal" in
      Alcotest.(check bool) "journal exists on disk" true (Sys.file_exists journal);
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 journal (fun oc ->
          Out_channel.output_string oc
            "@rec delta gXXX 2 300 0123456789abcdef0123456789abcdef\ntorn");
      let torn_len = (Unix.stat journal).Unix.st_size in
      (* restart on the same state dir *)
      let d = start_daemon [ "--workers"; "2"; "--state-dir"; dir ] in
      Fun.protect
        ~finally:(fun () -> kill_hard d)
        (fun () ->
          let status, body =
            request ~port:d.port ~meth:"GET" ~path:"/workloads/fig" ()
          in
          Alcotest.(check int) "workload recovered" 200 status;
          let json = Json.of_string_exn (String.trim body) in
          Alcotest.(check (float 1e-9)) "epoch recovered" 1.0 (num_field "epoch" json);
          Alcotest.(check (float 1e-9)) "solved epoch recovered" 1.0
            (num_field "solved_epoch" json);
          let status, body =
            request ~port:d.port ~meth:"GET" ~path:"/workloads/fig/solution" ()
          in
          Alcotest.(check int) "solution recovered" 200 status;
          let json = Json.of_string_exn (String.trim body) in
          Alcotest.(check (float 1e-9)) "same committed utility" committed_utility
            (num_field "utility" json);
          Alcotest.(check (float 1e-9)) "same committed cost" committed_cost
            (num_field "cost" json);
          Alcotest.(check (float 1e-9)) "solution is the epoch-1 one" 1.0
            (num_field "epoch" json);
          (* the torn tail was truncated off the file *)
          Alcotest.(check bool) "torn tail truncated" true
            ((Unix.stat journal).Unix.st_size < torn_len);
          (* and the journal keeps accepting commits *)
          let status, body =
            request ~port:d.port ~meth:"POST" ~path:"/workloads/fig/delta"
              ~body:"add x;z 2\n" ()
          in
          Alcotest.(check int) "post-recovery delta" 200 status;
          Alcotest.(check (float 1e-9)) "epoch advances past recovery" 2.0
            (num_field "epoch" (Json.of_string_exn (String.trim body)));
          let status, body =
            request ~port:d.port ~meth:"POST" ~path:"/workloads/fig/solve" ~body:"" ()
          in
          Alcotest.(check int) "post-recovery solve" 200 status;
          Alcotest.(check (option bool)) "post-recovery solve warm-seeded from the recovered solution"
            (Some true)
            (Json.get_bool
               (get_field "warm" (Json.of_string_exn (String.trim body))));
          Unix.kill d.pid Sys.sigterm;
          match wait_exit d with
          | Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "daemon did not exit cleanly after recovery"))

(* With every artifact lookup throwing, an incremental workload solve
   still answers 200 with the answer a cold pipeline solve produces —
   the fault only costs reuse (components_reused stays 0 where the
   second solve would otherwise reuse everything), never correctness. *)
let fault_pipeline_artifact () =
  let dir = temp_state_dir () in
  let d =
    start_daemon ~faults:"pipeline.artifact:throw"
      [ "--workers"; "2"; "--state-dir"; dir ]
  in
  Fun.protect
    ~finally:(fun () ->
      kill_hard d;
      rm_state_dir dir)
    (fun () ->
      let status, _ =
        request ~port:d.port ~meth:"PUT" ~path:"/workloads/fig" ~body:fig_text ()
      in
      Alcotest.(check int) "PUT status" 200 status;
      let solve label =
        let status, body =
          request ~port:d.port ~meth:"POST"
            ~path:"/workloads/fig/solve?incremental=true" ~body:"" ()
        in
        Alcotest.(check int) (label ^ ": still 200 under the fault") 200 status;
        Json.of_string_exn (String.trim body)
      in
      let first = solve "first incremental solve" in
      Alcotest.(check bool) "pipeline ran (components reported)" true
        (num_field "components_total" first >= 1.0);
      let second = solve "second incremental solve" in
      Alcotest.(check (float 1e-9)) "fault blocks every reuse" 0.0
        (num_field "components_reused" second);
      Alcotest.(check (float 1e-9)) "recompute answers exactly the cold answer"
        (num_field "utility" first) (num_field "utility" second);
      let status, m = request ~port:d.port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check int) "metrics status" 200 status;
      (match metric_value m "bcc_resolve_components_total" with
      | Some n ->
          Alcotest.(check bool) "resolve components counter moved" true (n >= 2.0)
      | None -> Alcotest.fail "bcc_resolve_components_total missing");
      (match metric_value m "bcc_resolve_components_reused_total" with
      | Some n -> Alcotest.(check (float 1e-9)) "no reuse counted" 0.0 n
      | None -> Alcotest.fail "bcc_resolve_components_reused_total missing");
      Unix.kill d.pid Sys.sigterm;
      match wait_exit d with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon did not exit cleanly after the fault run")

(* --- batch scheduler: coalescing, tenants, curve cache over HTTP --- *)

let sched_debug d =
  let status, body = request ~port:d.port ~meth:"GET" ~path:"/debug/sched" () in
  Alcotest.(check int) "debug/sched status" 200 status;
  Json.of_string_exn (String.trim body)

(* Seven concurrent identical /solve requests from three tenants run the
   solver once.  A one-shot delay on the leader's first engine task
   holds it inside its solve, so the six followers provably arrive while
   it is in flight: they join it, skip admission, and get the leader's
   bytes.  A later repeat is a cache hit that never enters the
   scheduler. *)
let sched_coalescing_e2e () =
  with_daemon ~faults:"engine.task:delay:1.5:1"
    [ "--workers"; "8"; "--sched-concurrency"; "1" ]
    (fun d inst ->
      let counter m name = Option.value ~default:0.0 (metric_value m name) in
      let solves m = counter m {|bccd_solve_duration_seconds_count{endpoint="solve"}|} in
      let solves0 = solves (metrics d) in
      let results = Array.make 7 (-1, "") in
      let fire i body =
        Thread.create
          (fun () ->
            results.(i) <- request ~port:d.port ~meth:"POST" ~path:"/solve" ~body ())
          ()
      in
      let t0 = fire 0 solve_body in
      Thread.delay 0.4;
      (* the leader is wedged in its solve: these six join it *)
      let followers =
        List.mapi
          (fun j tenant ->
            fire (j + 1)
              (Printf.sprintf {|{"instance":"fig","budget":4,"tenant":%S}|} tenant))
          [ "alpha"; "alpha"; "beta"; "beta"; "default"; "default" ]
      in
      List.iter Thread.join (t0 :: followers);
      Array.iteri
        (fun i (status, body) ->
          Alcotest.(check int) (Printf.sprintf "solve[%d] status" i) 200 status;
          let json = Json.of_string_exn (String.trim body) in
          verify_response inst ~budget:4.0 json;
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "solve[%d] optimal utility" i)
            9.0 (num_field "utility" json);
          Alcotest.(check string)
            (Printf.sprintf "solve[%d] byte-identical to the leader's" i)
            (snd results.(0)) body)
        results;
      let m = metrics d in
      Alcotest.(check (float 1e-9)) "the solver ran once" 1.0 (solves m -. solves0);
      Alcotest.(check (float 1e-9)) "only the leader was admitted" 1.0
        (counter m "bcc_sched_batches_total");
      Alcotest.(check (float 1e-9)) "the six followers joined it" 6.0
        (counter m "bcc_sched_coalesced_total");
      Alcotest.(check (float 1e-9)) "the leader's tenant was charged" 1.0
        (counter m {|bcc_sched_dispatched_total{tenant="default"}|});
      Alcotest.(check bool) "curve cache gauges exported" true
        (metric_value m "bcc_curve_cache_entries" <> None
        && metric_value m "bcc_curve_cache_bytes" <> None);
      (* a repeat is a hit: answered without entering the scheduler *)
      let status, body =
        request ~port:d.port ~meth:"POST" ~path:"/solve" ~body:solve_body ()
      in
      Alcotest.(check int) "repeat status" 200 status;
      Alcotest.(check (option bool)) "repeat served from cache" (Some true)
        (Json.get_bool (get_field "cached" (Json.of_string_exn (String.trim body))));
      let js = sched_debug d in
      Alcotest.(check (float 1e-9)) "a hit does not raise batches_total" 1.0
        (num_field "batches_total" js);
      Alcotest.(check (float 1e-9)) "debug coalesced counts the joins" 6.0
        (num_field "coalesced_total" js);
      Alcotest.(check (float 1e-9)) "queue drained" 0.0 (num_field "queued_waiters" js);
      Alcotest.(check (float 1e-9)) "nothing running" 0.0 (num_field "running" js);
      (match Json.get_list (get_field "tenants" js) with
      | Some tl ->
          Alcotest.(check (list string)) "joiners never reach the scheduler"
            [ "default" ]
            (List.filter_map (fun e -> Json.get_string (get_field "tenant" e)) tl)
      | None -> Alcotest.fail "tenants is not a list");
      Alcotest.(check bool) "curve cache byte bound positive" true
        (num_field "max_bytes" (get_field "curve_cache" js) > 0.0);
      (* a workload pipeline solve populates the shared curve cache *)
      Alcotest.(check int) "PUT workload" 200
        (fst (request ~port:d.port ~meth:"PUT" ~path:"/workloads/wfig" ~body:fig_text ()));
      Alcotest.(check int) "workload solve via the scheduler" 200
        (fst
           (request ~port:d.port ~meth:"POST"
              ~path:"/workloads/wfig/solve?incremental=true" ~body:"" ()));
      let m = metrics d in
      Alcotest.(check bool) "curve cache insertions counted" true
        (counter m "bcc_curve_cache_insertions_total" >= 1.0);
      Alcotest.(check bool) "curve cache holds entries" true
        (num_field "entries" (get_field "curve_cache" (sched_debug d)) >= 1.0))

(* An armed sched.enqueue fault costs exactly the armed number of
   requests — one 500 each — and never wedges the queue. *)
let fault_sched_enqueue () =
  with_daemon ~faults:"sched.enqueue:throw:2" [ "--workers"; "2" ]
    (fun d inst ->
      let shoot () =
        request ~port:d.port ~meth:"POST" ~path:"/solve" ~body:solve_body ()
      in
      let s1, b1 = shoot () in
      Alcotest.(check int) "first enqueue faults with 500" 500 s1;
      Alcotest.(check bool) "fault surfaced, not masked" true
        (contains b1 "injected fault");
      Alcotest.(check int) "second armed fault also 500" 500 (fst (shoot ()));
      let s3, b3 = shoot () in
      Alcotest.(check int) "third request recovers" 200 s3;
      verify_response inst ~budget:4.0 (Json.of_string_exn (String.trim b3));
      (* the faulted submissions left nothing behind *)
      let js = sched_debug d in
      Alcotest.(check (float 1e-9)) "no waiters left" 0.0
        (num_field "queued_waiters" js);
      Alcotest.(check (float 1e-9)) "nothing running" 0.0 (num_field "running" js))

(* Per-tenant admission: with the slot wedged by a one-shot delay in the
   leader's solve and --tenant-depth 1, a tenant's second queued solve
   bounces with 429 + retry-after while another tenant is still
   admitted.  Every request asks for a different budget: an identical
   one would join an in-flight solve instead of queueing. *)
let fault_tenant_depth_429 () =
  with_daemon ~faults:"engine.task:delay:1.5:1"
    [ "--workers"; "8"; "--sched-concurrency"; "1"; "--tenant-depth"; "1" ]
    (fun d _inst ->
      let body_of tenant budget =
        Printf.sprintf {|{"instance":"fig","budget":%g,"tenant":%S}|} budget tenant
      in
      let r1 = ref (-1, "") and r2 = ref (-1, "") and r4 = ref (-1, "") in
      let fire r body =
        Thread.create
          (fun () -> r := request ~port:d.port ~meth:"POST" ~path:"/solve" ~body ())
          ()
      in
      let t1 = fire r1 (body_of "cap" 4.0) in
      Thread.delay 0.4;
      (* slot wedged by r1's solve; this queues cap's one allowed job *)
      let t2 = fire r2 (body_of "cap" 11.0) in
      Thread.delay 0.3;
      (* cap's second queued job: bounced at admission *)
      let status, raw =
        request_raw ~port:d.port ~meth:"POST" ~path:"/solve"
          ~body:(body_of "cap" 7.0) ()
      in
      Alcotest.(check int) "tenant over depth -> 429" 429 status;
      (match header_value raw "retry-after" with
      | Some v -> (
          match int_of_string_opt (String.trim v) with
          | Some s -> Alcotest.(check bool) "retry-after >= 1" true (s >= 1)
          | None -> Alcotest.failf "retry-after %S is not an integer" v)
      | None -> Alcotest.fail "429 carries no retry-after");
      Alcotest.(check bool) "429 body names the tenant queue" true
        (contains raw "queue full");
      (* an unrelated tenant is admitted despite cap's rejection *)
      let t4 = fire r4 (body_of "other" 5.0) in
      List.iter Thread.join [ t1; t2; t4 ];
      Alcotest.(check int) "wedged solve completes" 200 (fst !r1);
      Alcotest.(check int) "queued solve completes" 200 (fst !r2);
      Alcotest.(check int) "other tenant admitted" 200 (fst !r4);
      let m = metrics d in
      (match
         metric_value m {|bcc_requests_rejected_total{reason="tenant_queue_full"}|}
       with
      | Some n -> Alcotest.(check bool) "tenant rejection counted" true (n >= 1.0)
      | None -> Alcotest.fail "tenant_queue_full rejection counter missing");
      match metric_value m "bcc_sched_rejected_total" with
      | Some n -> Alcotest.(check bool) "sched rejection exported" true (n >= 1.0)
      | None -> Alcotest.fail "bcc_sched_rejected_total missing")

(* --- cluster: sharded routing, SIGKILL failover, recovery --- *)

(* The per-shard solution cache legitimately differs between a first
   and a repeated solve of the same instance; everything else in the
   response must be byte-identical across shards. *)
let strip_cached body =
  let remove_all sub acc =
    let b = Buffer.create (String.length acc) in
    let n = String.length sub in
    let i = ref 0 in
    while !i <= String.length acc - n do
      if String.sub acc !i n = sub then i := !i + n
      else begin
        Buffer.add_char b acc.[!i];
        incr i
      end
    done;
    Buffer.add_string b (String.sub acc !i (String.length acc - !i));
    Buffer.contents b
  in
  remove_all {|"cached":true|} (remove_all {|"cached":false|} body)

(* Three real shards plus a router daemon whose very first forward is
   fault-injected (cluster.forward:throw:1): the routed solve must
   still answer from the next ring node.  Then the owning shard is
   SIGKILLed mid-run: every stateless solve keeps answering
   byte-identically (zero failed idempotent reads, during the
   detection window and after), the dead owner's store traffic gets
   503 + retry-after, and a restart on the same port and state dir
   brings the shard back up with its journal intact. *)
let cluster_sigkill_failover () =
  let dirs = List.init 3 (fun _ -> temp_state_dir ()) in
  Fun.protect ~finally:(fun () -> List.iter rm_state_dir dirs) @@ fun () ->
  let shards =
    List.map (fun dir -> start_daemon [ "--workers"; "2"; "--state-dir"; dir ]) dirs
  in
  let shard_id (d : daemon) = Printf.sprintf "127.0.0.1:%d" d.port in
  let router =
    start_daemon ~faults:"cluster.forward:throw:1"
      [
        "--workers"; "2"; "--route-to";
        String.concat "," (List.map shard_id shards);
      ]
  in
  let live = ref (router :: shards) in
  Fun.protect ~finally:(fun () -> List.iter kill_hard !live) @@ fun () ->
  let rp = router.port in
  let solve_body = {|{"text": "|} ^ String.concat {|\n|} (String.split_on_char '\n' (String.trim fig_text)) ^ {|"}|} in
  let routed_solve () =
    request ~port:rp ~meth:"POST" ~path:"/solve" ~body:solve_body ()
  in
  (* First forward eats the injected throw and fails over. *)
  let status, baseline = routed_solve () in
  Alcotest.(check int) "solve through armed fault -> failover 200" 200 status;
  let baseline = strip_cached baseline in
  (* Workload pinned to its owner. *)
  let status, raw =
    request_raw ~port:rp ~meth:"PUT" ~path:"/workloads/fig" ~body:fig_text ()
  in
  Alcotest.(check int) "PUT via router" 200 status;
  let owner =
    match header_value raw "x-bcc-shard" with
    | Some id -> id
    | None -> Alcotest.fail "routed PUT carries no x-bcc-shard header"
  in
  let status, raw = request_raw ~port:rp ~meth:"GET" ~path:"/workloads/fig" () in
  Alcotest.(check int) "GET via router" 200 status;
  Alcotest.(check (option string)) "read served by the owner" (Some owner)
    (header_value raw "x-bcc-shard");
  (* SIGKILL the owner mid-run. *)
  let owner_daemon = List.find (fun d -> shard_id d = owner) shards in
  let owner_dir =
    List.nth dirs
      (Option.get
         (List.find_index (fun d -> shard_id d = owner) shards))
  in
  kill_hard owner_daemon;
  live := List.filter (fun d -> d != owner_daemon) !live;
  (* Idempotent reads must not fail even inside the detection window. *)
  for i = 1 to 5 do
    let status, body = routed_solve () in
    Alcotest.(check int) (Printf.sprintf "solve %d after SIGKILL" i) 200 status;
    Alcotest.(check string)
      (Printf.sprintf "solve %d byte-identical after SIGKILL" i)
      baseline (strip_cached body)
  done;
  let up_gauge = Printf.sprintf "bcc_cluster_shard_up{shard=\"%s\"}" owner in
  let poll_gauge want msg =
    let deadline = Bcc_util.Timer.now_s () +. 15.0 in
    let rec go () =
      let _, m = request ~port:rp ~meth:"GET" ~path:"/metrics" () in
      match metric_value m up_gauge with
      | Some v when v = want -> ()
      | _ ->
          if Bcc_util.Timer.now_s () > deadline then Alcotest.fail msg
          else (Thread.delay 0.1; go ())
    in
    go ()
  in
  poll_gauge 0.0 "router never marked the killed shard down";
  (* Store traffic for the dead owner: refused with retry-after, not
     silently failed over. *)
  let status, raw = request_raw ~port:rp ~meth:"GET" ~path:"/workloads/fig" () in
  Alcotest.(check int) "sticky read while owner down" 503 status;
  Alcotest.(check bool) "503 carries retry-after" true
    (header_value raw "retry-after" <> None);
  let status, raw =
    request_raw ~port:rp ~meth:"POST" ~path:"/workloads/fig/delta"
      ~body:"add x;y 1\n" ()
  in
  Alcotest.(check int) "mutation while owner down" 503 status;
  Alcotest.(check bool) "mutation 503 carries retry-after" true
    (header_value raw "retry-after" <> None);
  (* Stateless solves still identical with the shard gone. *)
  let status, body = routed_solve () in
  Alcotest.(check int) "solve while shard down" 200 status;
  Alcotest.(check string) "solve byte-identical while shard down" baseline
    (strip_cached body);
  (* Restart on the same port and state dir: the ring owner recovers
     with its journal. *)
  let revived =
    start_daemon ~port:owner_daemon.port
      [ "--workers"; "2"; "--state-dir"; owner_dir ]
  in
  live := revived :: !live;
  poll_gauge 1.0 "router never marked the restarted shard up";
  let status, raw = request_raw ~port:rp ~meth:"GET" ~path:"/workloads/fig" () in
  Alcotest.(check int) "sticky read after recovery" 200 status;
  Alcotest.(check (option string)) "served again by the owner" (Some owner)
    (header_value raw "x-bcc-shard")

let suite =
  [
    ("e2e: concurrent solves, cache, metrics, SIGTERM", `Quick, e2e_concurrent_solves_and_shutdown);
    ("e2e: error paths, gmc3/ecc, CRLF bodies", `Quick, error_paths);
    ("e2e: negative budget -> 400 on /solve, /gmc3, /ecc", `Quick, negative_budget_400);
    ("fault matrix: worker death + cache fault", `Quick, fault_worker_death_and_cache);
    ("fault matrix: deadline hit degrades gracefully", `Quick, fault_deadline_degrades);
    ("fault matrix: queue overload -> 429 + retry-after", `Quick, fault_backpressure_429);
    ("fault matrix: pipeline.artifact throw -> zero reuse, same answer", `Quick,
      fault_pipeline_artifact);
    ("sched: coalescing, tenants, curve cache over HTTP", `Quick, sched_coalescing_e2e);
    ("fault matrix: sched.enqueue throw -> bounded 500s, queue intact", `Quick,
      fault_sched_enqueue);
    ("fault matrix: tenant depth -> 429 + retry-after, tenant isolation", `Quick,
      fault_tenant_depth_429);
    ("telemetry: trace-id header keys the flight recorder", `Quick, telemetry_correlation);
    ("store: workload lifecycle over HTTP", `Quick, store_lifecycle);
    ("store: SIGKILL + restart serves the committed state", `Quick, store_crash_recovery);
    ("cluster: routing, SIGKILL failover, recovery", `Quick, cluster_sigkill_failover);
    ("e2e: query over 16 properties -> 400 on /solve and PUT", `Quick, long_query_400);
  ]
