(* serve: open-loop traffic against a spawned [bccd] in its default
   configuration, from one process over two keep-alive connections (the
   box's core count).

   Arrivals follow a seeded Poisson schedule at [rate], frozen at about
   a seventh of the measured saturation rate for this mix (README.md,
   "Serve rate", says why not half).  Each request is timed from when
   it was due, so a request that waited for a free connection carries
   that wait.  The mix, in exact shares shuffled by the seed:
   - most requests repeat an earlier [/solve] request and hit the
     solution cache, so the serving stack (HTTP codec, instance and
     solution caches, admission, JSON encoding) does the work;
   - [/solve] misses on new BB-class or small P-class inline instances,
     or new budgets on earlier ones, which reuse the solver at small
     sizes;
   - pairs of identical new requests due together, one per connection,
     so the scheduler's coalescing and the result cache race;
   - a small share of [/gmc3] and [/ecc] requests.

   Every answer is rebuilt from its classifier sets on the bench's own
   instance and verified, and all answers to one key must be identical
   whether they were cached, coalesced or computed. *)

open Common
module Http = Bcc_server.Http
module Json = Bcc_server.Json
module Rng = Bcc_util.Rng
module Instance = Bcc_core.Instance

(* Requests per second: about a seventh of the saturation rate for this
   mix on a 2-core box.  Nearer saturation, cache hits queue behind
   running misses and the median leaves the hit mode (README.md,
   "Serve rate"). *)
let rate = 30.0
let connections = 2

(* See [run]'s calibrator. *)
let calib_margin_s = 0.04
let calib_every_s = 0.05
let bccd_exe = "_build/default/bin/bccd.exe"

(* --- the daemon --- *)

type daemon = { pid : int; port : int; out : in_channel }

let read_line_within ic ~timeout_s =
  let fd = Unix.descr_of_in_channel ic in
  match Unix.select [ fd ] [] [] timeout_s with
  | [], _, _ -> None
  | _ -> ( try Some (input_line ic) with End_of_file -> None)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.0;
      fd
  | exception e ->
      Unix.close fd;
      raise e

(* One keep-alive connection; a socket the daemon closed (its
   keep-alive limit) is redialed once. *)
type conn = { cport : int; mutable fd : Unix.file_descr option }

let close_conn c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None

let exchange c (req : Http.request) =
  let attempt () =
    match
      let fd = match c.fd with Some fd -> fd | None -> let fd = connect c.cport in c.fd <- Some fd; fd in
      Http.write_request ~keep_alive:true fd req;
      Http.read_response fd
    with
    | Ok resp ->
        let closing =
          List.exists
            (fun (k, v) -> String.lowercase_ascii k = "connection" && String.lowercase_ascii v = "close")
            resp.Http.headers
        in
        if closing then close_conn c;
        Ok resp
    | Error e ->
        close_conn c;
        Error e.Http.message
    | exception Unix.Unix_error (err, _, _) ->
        close_conn c;
        Error (Unix.error_message err)
  in
  let reused = c.fd <> None in
  match attempt () with Error _ when reused -> attempt () | r -> r

let get port path query =
  let c = { cport = port; fd = None } in
  Fun.protect ~finally:(fun () -> close_conn c) @@ fun () ->
  exchange c { Http.meth = "GET"; path; query; headers = []; body = "" }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 15.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  close_in_noerr d.out

(* Start until [/healthz] answers: the serve workload's set-up. *)
let start_daemon () =
  if not (Sys.file_exists bccd_exe) then failwith (bccd_exe ^ " is missing: build bin/bccd.exe first");
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process bccd_exe [| bccd_exe; "--port"; "0" |] Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let d = ref { pid; port = 0; out } in
  match
    let rec port () =
      match read_line_within out ~timeout_s:60.0 with
      | None -> failwith "bccd did not report its port"
      | Some line -> (
          match Scanf.sscanf line "bccd: listening on %[^:]:%d" (fun _ p -> p) with
          | p -> p
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> port ())
    in
    d := { !d with port = port () };
    let deadline = now () +. 60.0 in
    let rec healthy () =
      match get !d.port "/healthz" [] with
      | Ok { Http.status = 200; _ } -> ()
      | _ when now () < deadline -> Unix.sleepf 0.002; healthy ()
      | _ -> failwith "bccd never answered /healthz"
      | exception Unix.Unix_error _ when now () < deadline -> Unix.sleepf 0.002; healthy ()
    in
    healthy ()
  with
  | () -> !d
  | exception e ->
      stop_daemon !d;
      raise e

(* --- the request stream --- *)

type family = Bb | P_small

type body = { family : family; text : string; inst : Instance.t }

type endpoint = Solve | Gmc3 | Ecc

type key = { body : int; ep : endpoint; param : float  (** budget, or gmc3 target *) }

type request = { id : string; key : key; due : float }

let bb_budgets = [| 20.0; 30.0; 40.0; 50.0; 60.0; 80.0; 100.0; 120.0 |]

(* Small P-class bodies at budgets 150-250 took 10-230 ms to solve
   depending on the body, which moved the 90th percentile by a third
   between seeds; from 300 up their solve times are close together. *)
let p_budgets = [| 300.0; 350.0; 400.0; 450.0; 500.0; 600.0 |]

(* Body 0 is the small BB-class instance GMC3 runs on; the rest
   alternate BB-class (odd) and small P-class (even). *)
let gmc3_body = 0
let family_of i = if i = gmc3_body || i mod 2 = 1 then Bb else P_small

let make_body ~seed i =
  let family = family_of i in
  let inst =
    match family with
    | Bb ->
        let num_queries = if i = gmc3_body then 60 else 250 in
        Bcc_data.Bestbuy.generate
          ~params:{ Bcc_data.Bestbuy.default_params with num_queries }
          ~seed:((seed * 1000) + i) ~budget:0.0 ()
    | P_small ->
        Bcc_data.Private_like.generate
          ~params:{ Bcc_data.Private_like.default_params with num_queries = 60; num_anchors = 10 }
          ~seed:((seed * 1000) + i) ~budget:0.0 ()
  in
  (family, Bcc_data.Io.to_string inst)

(* Exact shares, shuffled: [pair] arrivals send two requests.  Misses,
   pairs and the rest make up a fifth of the requests, so the 90th
   percentile falls among them even when no hit waits. *)
let share_miss = 0.10 and share_pair = 0.03 and share_other = 0.03

(* The traffic pattern (arrival times, request kinds, which body and
   budget each request names) is fixed for a given rate and length; the
   seed draws the bodies' content.  Runs on different seeds then differ
   in what the solver sees, not in how bursty the traffic happened to
   be, which would otherwise dominate the latency spread of an
   open-loop run this short. *)
let pattern_seed = 0x5eed

let stream ~seed ~rate ~seconds =
  let rng = Rng.create pattern_seed in
  let n = int_of_float (Float.round (rate *. seconds)) in
  let dues = Array.of_list (Perfbench.Openloop.poisson ~rng:(Rng.split rng) ~n ~duration:seconds) in
  let count share = int_of_float (Float.round (share *. float_of_int n)) in
  let kinds =
    Array.concat
      [
        Array.make (count share_miss) `Miss;
        Array.make (count share_pair) `Pair;
        Array.make (count share_other) `Other;
      ]
  in
  let kinds = Array.append kinds (Array.make (max 0 (n - Array.length kinds)) `Repeat) in
  Rng.shuffle rng kinds;
  (* The first arrival has nothing to repeat. *)
  (match Array.find_index (fun k -> k = `Miss) kinds with
  | Some i when n > 0 -> kinds.(i) <- kinds.(0); kinds.(0) <- `Miss
  | _ -> ());
  let bodies = ref 1 in
  let used = Hashtbl.create 64 in
  let solve_keys = ref [||] in
  let new_body () =
    let b = !bodies in
    incr bodies;
    b
  in
  let budgets b = match family_of b with Bb -> bb_budgets | P_small -> p_budgets in
  let rec new_solve_key () =
    let b =
      if !bodies = 1 || Rng.bool rng then new_body () else 1 + Rng.int rng (!bodies - 1)
    in
    let free = List.filter (fun x -> not (Hashtbl.mem used (b, x))) (Array.to_list (budgets b)) in
    match free with
    | [] -> new_solve_key ()
    | _ ->
        let x = List.nth free (Rng.int rng (List.length free)) in
        Hashtbl.replace used (b, x) ();
        let k = { body = b; ep = Solve; param = x } in
        solve_keys := Array.append !solve_keys [| k |];
        k
  in
  let reqs = ref [] in
  let emit i key suffix = reqs := { id = Printf.sprintf "pb%d-%d%s" seed i suffix; key; due = dues.(i) } :: !reqs in
  Array.iteri
    (fun i kind ->
      match kind with
      | `Miss -> emit i (new_solve_key ()) ""
      | `Pair ->
          let k = new_solve_key () in
          emit i k "a";
          emit i k "b"
      | `Repeat -> emit i (Rng.choose rng !solve_keys) ""
      | `Other ->
          (* ECC on the BB-class bodies; GMC3, which runs a budget search
             of full solves, on one small BB-class body at one target
             share of its total utility, so it mostly hits. *)
          let bb = Array.of_list (List.filter (fun b -> b mod 2 = 1) (List.init !bodies Fun.id)) in
          let key =
            if Array.length bb > 0 && Rng.bool rng then { body = Rng.choose rng bb; ep = Ecc; param = 0.0 }
            else { body = gmc3_body; ep = Gmc3; param = 0.3 }
          in
          emit i key "")
    kinds;
  (List.rev !reqs, !bodies)

let endpoint_path = function Solve -> "/solve" | Gmc3 -> "/gmc3" | Ecc -> "/ecc"

let http_request bodies r =
  let b = bodies.(r.key.body) in
  let query =
    match r.key.ep with
    | Solve -> [ ("budget", Printf.sprintf "%g" r.key.param) ]
    | Gmc3 ->
        [ ("target", Printf.sprintf "%.0f" (r.key.param *. Instance.total_utility b.inst)) ]
    | Ecc -> []
  in
  {
    Http.meth = "POST";
    path = endpoint_path r.key.ep;
    query;
    headers = [ ("x-bcc-trace-id", r.id) ];
    body = b.text;
  }

(* --- /metrics and /debug/sched --- *)

(* Sum of every series of [name] whose labels contain all of [labels]. *)
let prom_sum text name labels =
  List.fold_left
    (fun acc line ->
      if String.length line = 0 || line.[0] = '#' then acc
      else
        match String.rindex_opt line ' ' with
        | None -> acc
        | Some sp ->
            let series = String.sub line 0 sp in
            let base, lbl =
              match String.index_opt series '{' with
              | Some i -> (String.sub series 0 i, String.sub series i (String.length series - i))
              | None -> (series, "")
            in
            let has (k, v) =
              let needle = Printf.sprintf "%s=\"%s\"" k v in
              let nl = String.length needle and ll = String.length lbl in
              let rec scan i = i + nl <= ll && (String.sub lbl i nl = needle || scan (i + 1)) in
              scan 0
            in
            if base = name && List.for_all has labels then
              acc +. Option.value ~default:0.0
                       (float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)))
            else acc)
    0.0
    (String.split_on_char '\n' text)

let fetch_text port path =
  match get port path [] with
  | Ok { Http.status = 200; body; _ } -> body
  | Ok r -> failwith (Printf.sprintf "GET %s: %d" path r.Http.status)
  | Error e -> failwith (Printf.sprintf "GET %s: %s" path e)

let num j name = Option.bind (Json.member name j) Json.get_num |> Option.value ~default:0.0

(* --- the run --- *)

type outcome = {
  req : request;
  sample : Perfbench.Openloop.sample;
  result : (Http.response, string) result;
}

let run (a : args) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let reqs, nbodies = stream ~seed:a.seed ~rate ~seconds:a.seconds in
  let load_s = ref 0.0 and load_bytes = ref 0 in
  let bodies =
    Array.init nbodies (fun i ->
        let family, text = make_body ~seed:a.seed i in
        let inst, dt = time (fun () -> Bcc_data.Io.load_string text) in
        load_s := !load_s +. dt;
        load_bytes := !load_bytes + String.length text;
        { family; text; inst })
  in
  let d, setup_s, setup_measured_s = repeated_setup ~times:11 ~setup:start_daemon ~teardown:stop_daemon in
  let daemon_stopped = ref false in
  let stop () = if not !daemon_stopped then begin daemon_stopped := true; stop_daemon d end in
  (* A bench stopped from outside still stops the daemon it started. *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> stop (); exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  Fun.protect ~finally:stop @@ fun () ->
  let before = if a.trace then Some (fetch_text d.port "/metrics", fetch_text d.port "/debug/sched") else None in
  if a.trace then start_tracing ();
  (* Traced runs pull each miss's flight record while it is retained. *)
  let records = ref [] and pending = Queue.create () and closed = ref false in
  let lock = Mutex.create () and cond = Condition.create () in
  let recorder =
    if not a.trace then None
    else
      Some
        (Thread.create
           (fun () ->
             let c = { cport = d.port; fd = None } in
             let rec loop () =
               Mutex.lock lock;
               while Queue.is_empty pending && not !closed do Condition.wait cond lock done;
               let next = if Queue.is_empty pending then None else Some (Queue.pop pending) in
               Mutex.unlock lock;
               match next with
               | None -> close_conn c
               | Some id ->
                   (match
                      exchange c { Http.meth = "GET"; path = "/debug/solves"; query = [ ("id", id) ]; headers = []; body = "" }
                    with
                   | Ok { Http.status = 200; body; _ } -> records := (id, body) :: !records
                   | _ -> ());
                   loop ()
             in
             loop ())
           ())
  in
  let queue = Array.of_list reqs in
  let next = ref 0 in
  let outcomes = Array.make (Array.length queue) None in
  (* What the calibrator needs to know that the daemon is idle: the due
     time each sender sleeps towards, and how many requests are out. *)
  let waiting = Array.make connections infinity and in_service = ref 0 and finished = ref false in
  let first_ref = Perfbench.Refclock.measure () in
  let cpu0 = cpu_s d.pid in
  let t0 = now () in
  let refs = ref [ (0.0, first_ref) ] in
  let reference () = refs := (now () -. t0, Perfbench.Refclock.measure ()) :: !refs in
  let sender k () =
    let c = { cport = d.port; fd = None } in
    let rec loop () =
      Mutex.lock lock;
      let i = !next in
      incr next;
      if i < Array.length queue then waiting.(k) <- queue.(i).due;
      Mutex.unlock lock;
      if i < Array.length queue then begin
        let r = queue.(i) in
        let wait = t0 +. r.due -. now () in
        if wait > 0.0 then Unix.sleepf wait;
        Mutex.lock lock;
        waiting.(k) <- infinity;
        incr in_service;
        Mutex.unlock lock;
        let sent = now () in
        let result =
          span "client.request" ~op:r.id (fun () -> exchange c (http_request bodies r))
        in
        let done_ = now () in
        Mutex.lock lock;
        decr in_service;
        Mutex.unlock lock;
        outcomes.(i) <- Some { req = r; sample = { due = t0 +. r.due; sent; done_ }; result };
        (match (recorder, result) with
        | Some _, Ok { Http.body; _ } when not (String.ends_with ~suffix:"\"cached\":true}" (String.trim body)) ->
            Mutex.lock lock;
            Queue.push r.id pending;
            Condition.signal cond;
            Mutex.unlock lock
        | _ -> ());
        loop ()
      end
    in
    loop ();
    close_conn c
  in
  (* The reference computation runs in this process while no request is
     out and none is due for [calib_margin_s], about every
     [calib_every_s]: the daemon is idle then, and no sender waits for
     it.  It holds this process's runtime lock for a few milliseconds,
     well inside the margin. *)
  let calibrator () =
    let rec loop () =
      Mutex.lock lock;
      let upcoming =
        Array.fold_left Float.min (if !next < Array.length queue then queue.(!next).due else infinity) waiting
      in
      let idle = !in_service = 0 && t0 +. upcoming -. now () > calib_margin_s in
      let stop = !finished in
      Mutex.unlock lock;
      if not stop then begin
        if idle then reference ();
        Unix.sleepf calib_every_s;
        loop ()
      end
    in
    loop ()
  in
  let calib = Thread.create calibrator () in
  let threads = List.init connections (fun k -> Thread.create (sender k) ()) in
  List.iter Thread.join threads;
  let elapsed = now () -. t0 in
  Mutex.lock lock;
  finished := true;
  Mutex.unlock lock;
  Thread.join calib;
  reference ();
  Mutex.lock lock;
  closed := true;
  Condition.broadcast cond;
  Mutex.unlock lock;
  Option.iter Thread.join recorder;
  let after = if a.trace then Some (fetch_text d.port "/metrics", fetch_text d.port "/debug/sched") else None in
  let rss = peak_rss_mb (Some d.pid) and cpu = cpu_s d.pid -. cpu0 in
  (* Each request's latency is scaled by the wall-clock reference timings
     nearest its due time; the daemon's CPU time by the median CPU time
     of every reference timing of the run. *)
  let wall_refs = List.map (fun (t, (r : Perfbench.Refclock.sample)) -> (t, r.wall_s)) !refs in
  let scale_latency (s : Perfbench.Openloop.sample) =
    Perfbench.Refclock.scale ~ref_s:(Perfbench.Refclock.nearest_median wall_refs ~at:(s.due -. t0))
      (1000.0 *. Perfbench.Openloop.latency s)
  in
  let cpu_ref_s = Stats.median (Array.of_list (List.map (fun (_, (r : Perfbench.Refclock.sample)) -> r.cpu_s) !refs)) in
  stop ();
  (* --- checks --- *)
  let outcomes = Array.to_list outcomes |> List.filter_map Fun.id in
  let failed = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr failed; print_endline ("serve: " ^ s)) fmt in
  let first = Hashtbl.create 256 in
  let hit_ms = ref [] and miss_ms = ref [] and miss_ids = Hashtbl.create 64 in
  List.iter
    (fun o ->
      let r = o.req in
      match o.result with
      | Error e -> fail "%s: %s" r.id e
      | Ok resp when resp.Http.status <> 200 -> fail "%s: HTTP %d" r.id resp.Http.status
      | Ok resp -> (
          match Json.of_string resp.Http.body with
          | Error e -> fail "%s: bad JSON: %s" r.id e
          | Ok j ->
              let b = bodies.(r.key.body) in
              let utility = num j "utility" and cost = num j "cost" in
              let sets =
                Option.bind (Json.member "classifiers" j) Json.get_list
                |> Option.value ~default:[]
                |> List.map (fun s ->
                       Option.value ~default:[] (Json.get_list s) |> List.filter_map Json.get_string)
              in
              let cached = Option.bind (Json.member "cached" j) Json.get_bool = Some true in
              let ms = 1000.0 *. Perfbench.Openloop.latency o.sample in
              if cached then hit_ms := ms :: !hit_ms
              else begin
                miss_ms := ms :: !miss_ms;
                Hashtbl.replace miss_ids r.id o
              end;
              let ok =
                match r.key.ep with
                | Solve -> check_sets (Instance.with_budget b.inst r.key.param) ~sets ~utility ~cost
                | Ecc -> check_sets ~any_budget:true b.inst ~sets ~utility ~cost
                | Gmc3 ->
                    let target = float_of_string (List.assoc "target" (http_request bodies r).Http.query) in
                    check_sets ~any_budget:true b.inst ~sets ~utility ~cost
                    && (Option.bind (Json.member "reached" j) Json.get_bool <> Some true
                       || utility >= target -. 1e-6)
              in
              let answer =
                Printf.sprintf "%.6f %.6f %s" utility cost
                  (String.concat "|" (List.sort compare (List.map (fun s -> String.concat ";" (List.sort compare s)) sets)))
              in
              if not ok then fail "%s: answer failed verification" r.id
              else
                match Hashtbl.find_opt first r.key with
                | None -> Hashtbl.replace first r.key (answer, utility)
                | Some (a0, _) when a0 = answer -> ()
                | Some _ -> fail "%s: answer differs from an earlier answer to the same request" r.id))
    outcomes;
  let utility_total = Hashtbl.fold (fun _ (_, u) acc -> acc +. u) first 0.0 in
  let module P = Perfbench.Pstats in
  let samples = List.map (fun o -> o.sample) outcomes in
  let late_ms = List.map (fun s -> 1000.0 *. Perfbench.Openloop.lateness s) samples in
  let service_ms = List.map (fun s -> 1000.0 *. Perfbench.Openloop.service s) samples in
  let notes =
    [
      Printf.sprintf "serve: open loop, Poisson %.1f req/s over %d connections; %d requests in %.1fs (%.1f done/s); daemon CPU %.2fs"
        rate connections (List.length outcomes) elapsed (float_of_int (List.length outcomes) /. elapsed) cpu;
      Printf.sprintf "  measured, unscaled: set-up %.4fs; reference wall %s, CPU p50 %.3fms" setup_measured_s
        (P.pp_summary ~unit_:"ms" (P.summarize (List.map (fun (_, w) -> 1000.0 *. w) wall_refs)))
        (1000.0 *. cpu_ref_s);
      "  latency from due       " ^ P.pp_summary ~unit_:"ms" (P.summarize (List.map (fun s -> 1000.0 *. Perfbench.Openloop.latency s) samples));
      "  cache hits             " ^ (if !hit_ms = [] then "none" else P.pp_summary ~unit_:"ms" (P.summarize !hit_ms));
      "  misses                 " ^ (if !miss_ms = [] then "none" else P.pp_summary ~unit_:"ms" (P.summarize !miss_ms));
      "  generator lateness     " ^ P.pp_summary ~unit_:"ms" (P.summarize late_ms);
    ]
    @ List.filter_map
        (fun (ep, fam, label) ->
          let svc =
            Hashtbl.fold
              (fun _ o acc ->
                if o.req.key.ep = ep && bodies.(o.req.key.body).family = fam then
                  (1000.0 *. Perfbench.Openloop.service o.sample) :: acc
                else acc)
              miss_ids []
          in
          if svc = [] then None
          else Some (Printf.sprintf "  %-22s service %s" label (P.pp_summary ~unit_:"ms" (P.summarize svc))))
        [
          (Solve, Bb, "/solve BB misses");
          (Solve, P_small, "/solve P-small misses");
          (Gmc3, Bb, "/gmc3 BB misses");
          (Ecc, Bb, "/ecc BB misses");
        ]
  in
  let layers, attribution =
    match (before, after) with
    | Some (m0, s0), Some (m1, s1) ->
        (* The client spans' self times add nothing the daemon's
           counters do not; the file is for inspection. *)
        ignore (stop_tracing ~file:(Printf.sprintf "trace-serve-%d.json" a.seed));
        let delta name labels = prom_sum m1 name labels -. prom_sum m0 name labels in
        let handled ep name = delta name [ ("endpoint", ep) ] in
        let eps = [ "/solve"; "/gmc3"; "/ecc" ] in
        let handle_sum = Stats.sum (Array.of_list (List.map (fun ep -> handled ep "bccd_request_duration_seconds_sum") eps)) in
        let handle_n = Stats.sum (Array.of_list (List.map (fun ep -> handled ep "bccd_request_duration_seconds_count") eps)) in
        let handle_mean_ms = 1000.0 *. P.ratio handle_sum handle_n in
        let cache which =
          let h = delta "bccd_cache_hits_total" [ ("cache", which) ]
          and m = delta "bccd_cache_misses_total" [ ("cache", which) ] in
          [ (Printf.sprintf "cache.%s.hit_ratio" which, P.ratio h (h +. m)); (Printf.sprintf "cache.%s.lookups" which, h +. m) ]
        in
        let sched name =
          let g s = match Json.of_string s with Ok j -> num j name | Error _ -> 0.0 in
          g s1 -. g s0
        in
        let stage name = delta "bcc_stage_duration_seconds_sum" [ ("stage", name) ] in
        let task_n = delta "bcc_stage_duration_seconds_count" [ ("stage", "engine.task") ] in
        (* Stage self times from the misses' flight records; a span can
           appear in two overlapping records, so dedupe by span id. *)
        let seen = Hashtbl.create 4096 in
        let spans = ref [] and parts = ref [] in
        List.iter
          (fun (id, body) ->
            match Json.of_string body with
            | Error _ -> ()
            | Ok j ->
                let list name = Option.bind (Json.member name j) Json.get_list |> Option.value ~default:[] in
                let str name j = Option.bind (Json.member name j) Json.get_string |> Option.value ~default:"" in
                let rec_spans =
                  List.map
                    (fun s ->
                      ( num s "id",
                        { Perfbench.Selftime.name = str "name" s; tid = int_of_float (num s "tid");
                          start = num s "start_s"; stop = num s "start_s" +. num s "duration_s" } ))
                    (list "spans")
                in
                List.iter
                  (fun (sid, s) ->
                    if not (Hashtbl.mem seen sid) then begin
                      Hashtbl.replace seen sid ();
                      spans := s :: !spans
                    end)
                  rec_spans;
                (* The handler's time is the [http_request] event's; the
                   solve's is its [solve_report]'s. *)
                let event_attr name key =
                  List.find_map
                    (fun e ->
                      if str "name" e <> name then None
                      else Option.bind (Json.member "attrs" e) (fun at -> Option.bind (Json.member key at) Json.get_num))
                    (list "event_log")
                in
                (match (Hashtbl.find_opt miss_ids id, event_attr "http_request" "duration_s", event_attr "solve_report" "wall_s") with
                | Some o, Some h, Some sv when o.req.key.ep = Solve && bodies.(o.req.key.body).family = Bb ->
                    parts := (Perfbench.Openloop.service o.sample -. h, h -. sv, sv, o.req.key) :: !parts
                | _ -> ()))
          !records;
        let sst = Perfbench.Selftime.compute !spans in
        let ms f = List.map (fun p -> 1000.0 *. f p) !parts in
        let p50 l = if l = [] then 0.0 else Stats.median (Array.of_list l) in
        let outside = ms (fun (x, _, _, _) -> x) and rest = ms (fun (_, x, _, _) -> x) and slv = ms (fun (_, _, x, _) -> x) in
        (* The same solves in this process on the sequential engine, the
           CLI's path, for the daemon-versus-CLI comparison. *)
        Bcc_engine.Engine.set_default_jobs 1;
        let inproc =
          ms (fun (_, _, _, k) ->
              snd (time (fun () -> Bcc_core.Solver.solve (Instance.with_budget bodies.(k.body).inst k.param))))
        in
        let attribution =
          Printf.sprintf
            "  BB /solve misses (n=%d), p50: outside the handler %.2f ms, handler minus solve %.2f ms, solve %.2f ms; \
             the same solves in-process on the sequential engine %.2f ms"
            (List.length !parts) (p50 outside) (p50 rest) (p50 slv) (p50 inproc)
        in
        ( [
            ("io.load_s", !load_s);
            ("io.load_mb_per_s", P.ratio (float_of_int !load_bytes /. 1048576.0) !load_s);
            ("solver.solve_s", stage "solve");
            ("engine.tasks", delta "bcc_engine_tasks_total" []);
            ("engine.task_mean_ms", 1000.0 *. P.ratio (stage "engine.task") task_n);
            ("client.lat_hit_p50_ms", p50 !hit_ms);
            ("client.lat_miss_p50_ms", p50 !miss_ms);
            ("client.late_p90_ms", Stats.percentile (Array.of_list late_ms) 90.0);
            ("server.handle_mean_ms", handle_mean_ms);
            ("server.outside_mean_ms", Stats.mean (Array.of_list service_ms) -. handle_mean_ms);
            ("server.solve_busy_s", delta "bccd_solve_duration_seconds_sum" []);
            ("server.solve_calls", delta "bccd_solve_duration_seconds_count" []);
            ("sched.batches", sched "batches_total");
            ("sched.coalesced", sched "coalesced_total");
            ("sched.rejected", sched "rejected_total");
            ("sched.expired", sched "expired_total");
            ("bb_miss.count", float_of_int (List.length !parts));
            ("bb_miss.outside_p50_ms", p50 outside);
            ("bb_miss.handler_rest_p50_ms", p50 rest);
            ("bb_miss.solve_p50_ms", p50 slv);
            ("bb_miss.inproc_solve_p50_ms", p50 inproc);
          ]
          @ cache "solution" @ cache "instance" @ stage_layers sst,
          [ attribution ] )
    | _ -> ([], [])
  in
  {
    setup_s;
    utility_total;
    peak_rss_mb = rss;
    op_ms = List.map scale_latency samples;
    busy_s = Perfbench.Refclock.scale ~ref_s:cpu_ref_s cpu;
    attempted = List.length reqs;
    failed = !failed + (List.length reqs - List.length outcomes);
    notes = notes @ attribution;
    layers;
  }
