(* The multi-tenant solve scheduler: retry-after clamping (the 429 fix),
   the byte-bounded multi-owner curve cache, deterministic Core units
   (admission depth, deadline ordering), a fake-clock model-based test
   driving random traces against a fate and fairness reference model, an
   exact weighted-DRR drain, the threaded wrapper under contention
   behind the server's single-flight cache, and the sched.enqueue fault
   point. *)

module Sched = Bcc_sched.Sched
module Core = Bcc_sched.Sched.Core
module Curve_cache = Bcc_sched.Curve_cache
module Fault = Bcc_robust.Fault
module Timer = Bcc_util.Timer
module Rng = Bcc_util.Rng

let qtest = QCheck_alcotest.to_alcotest

let count n =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some c when c > 0 -> c | _ -> n)
  | None -> n

(* --- satellite fix: retry-after never rounds to 0 --- *)

let retry_after_clamps () =
  Alcotest.(check int) "0.0 -> 1" 1 (Sched.retry_after_s 0.0);
  Alcotest.(check int) "sub-second -> 1" 1 (Sched.retry_after_s 0.2);
  Alcotest.(check int) "exactly 1 -> 1" 1 (Sched.retry_after_s 1.0);
  Alcotest.(check int) "1.2 rounds up" 2 (Sched.retry_after_s 1.2);
  Alcotest.(check int) "capped at an hour" 3600 (Sched.retry_after_s 1e9);
  Alcotest.(check int) "nan -> 1" 1 (Sched.retry_after_s Float.nan);
  Alcotest.(check int) "inf capped" 3600 (Sched.retry_after_s infinity);
  Alcotest.(check int) "negative -> 1" 1 (Sched.retry_after_s (-5.0))

(* --- curve cache --- *)

(* entry cost = |fp| + |payload| + 96; fp "fN" (2) + 100-byte payload
   = 198 per entry, so 600 bytes hold three entries. *)
let payload c = String.make 100 c

let cache_roundtrip_and_stats () =
  let c = Curve_cache.create ~max_bytes:10_000 () in
  Alcotest.(check (option string)) "cold miss" None (Curve_cache.find c "f1");
  Curve_cache.store c ~owner:"w@g0" ~footprint:[ "p" ] "f1" (payload 'a');
  Alcotest.(check (option string)) "hit" (Some (payload 'a')) (Curve_cache.find c "f1");
  let s = Curve_cache.stats c in
  Alcotest.(check int) "entries" 1 s.Curve_cache.entries;
  Alcotest.(check int) "bytes" 198 s.Curve_cache.bytes;
  Alcotest.(check int) "hits" 1 s.Curve_cache.hits;
  Alcotest.(check int) "misses" 1 s.Curve_cache.misses;
  Alcotest.(check int) "insertions" 1 s.Curve_cache.insertions;
  Alcotest.(check int) "evictions" 0 s.Curve_cache.evictions

let cache_byte_bound_lru () =
  let c = Curve_cache.create ~max_bytes:600 () in
  Curve_cache.store c ~owner:"o" "f1" (payload '1');
  Curve_cache.store c ~owner:"o" "f2" (payload '2');
  Curve_cache.store c ~owner:"o" "f3" (payload '3');
  Alcotest.(check int) "three fit" 3 (Curve_cache.stats c).Curve_cache.entries;
  (* touch f1 so f2 is the LRU victim of the next insertion *)
  ignore (Curve_cache.find c "f1");
  Curve_cache.store c ~owner:"o" "f4" (payload '4');
  Alcotest.(check (option string)) "LRU f2 evicted" None (Curve_cache.find c "f2");
  Alcotest.(check (option string)) "f1 kept (recently used)" (Some (payload '1'))
    (Curve_cache.find c "f1");
  Alcotest.(check (option string)) "f4 resident" (Some (payload '4'))
    (Curve_cache.find c "f4");
  let s = Curve_cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Curve_cache.evictions;
  Alcotest.(check bool) "within budget" true (s.Curve_cache.bytes <= 600)

let cache_oversized_entry_bounces () =
  let c = Curve_cache.create ~max_bytes:150 () in
  Curve_cache.store c ~owner:"o" "big" (String.make 500 'x');
  let s = Curve_cache.stats c in
  Alcotest.(check int) "nothing resident" 0 s.Curve_cache.entries;
  Alcotest.(check int) "bytes back to zero" 0 s.Curve_cache.bytes

let cache_multi_owner_claims () =
  let c = Curve_cache.create ~max_bytes:10_000 () in
  Curve_cache.store c ~owner:"wa@g0" ~footprint:[ "p" ] "f1" (payload 'a');
  (* a cross-workload hit gets claimed by stamping a footprint *)
  Curve_cache.set_footprint c ~owner:"wb@g0" "f1" [ "q" ];
  Curve_cache.drop_owner c ~owner:"wa@g0";
  Alcotest.(check (option string)) "survives while wb claims it" (Some (payload 'a'))
    (Curve_cache.find c "f1");
  Curve_cache.drop_owner c ~owner:"wb@g0";
  Alcotest.(check (option string)) "gone with the last claim" None
    (Curve_cache.find c "f1");
  (* set_footprint on an absent fp is a no-op, not an insertion *)
  Curve_cache.set_footprint c ~owner:"wa@g0" "ghost" [ "p" ];
  Alcotest.(check int) "no ghost entry" 0 (Curve_cache.stats c).Curve_cache.entries

let cache_evict_owner_by_footprint () =
  let c = Curve_cache.create ~max_bytes:10_000 () in
  Curve_cache.store c ~owner:"w@g0" ~footprint:[ "p"; "q" ] "f1" (payload 'a');
  Curve_cache.store c ~owner:"w@g0" ~footprint:[ "r" ] "f2" (payload 'b');
  (* shared entry: another owner's claim has an untouched footprint *)
  Curve_cache.set_footprint c ~owner:"v@g0" "f1" [ "z" ];
  Curve_cache.evict_owner c ~owner:"w@g0" ~touched:(fun p -> p = "q");
  Alcotest.(check (option string)) "f1 survives via v's untouched claim"
    (Some (payload 'a')) (Curve_cache.find c "f1");
  Alcotest.(check (option string)) "f2 untouched" (Some (payload 'b'))
    (Curve_cache.find c "f2");
  Alcotest.(check int) "w keeps only f2" 1
    (List.length (Curve_cache.owned c ~owner:"w@g0"));
  (* now the only remaining claim on f1 is v's; touch it *)
  Curve_cache.evict_owner c ~owner:"v@g0" ~touched:(fun p -> p = "z");
  Alcotest.(check (option string)) "f1 gone once every claim is touched" None
    (Curve_cache.find c "f1")

let cache_owned_listing () =
  let c = Curve_cache.create ~max_bytes:10_000 () in
  Curve_cache.store c ~owner:"w" ~footprint:[ "b" ] "f2" "two";
  Curve_cache.store c ~owner:"w" ~footprint:[ "a" ] "f1" "one";
  Curve_cache.store c ~owner:"x" ~footprint:[ "c" ] "f3" "three";
  Alcotest.(check (list (pair string (pair (list string) string))))
    "sorted, owner-scoped"
    [ ("f1", ([ "a" ], "one")); ("f2", ([ "b" ], "two")) ]
    (Curve_cache.owned c ~owner:"w")

(* --- Core units (fake clock throughout) --- *)

let core cfg = Core.create cfg

let enq ?(tenant = "a") ?(deadline = infinity) c =
  Core.enqueue c ~tenant ~deadline ~est_batch_s:0.05

let wid_of = function
  | Core.Queued w -> w
  | Core.Rejected _ -> Alcotest.fail "unexpected rejection"

let core_depth_rejects () =
  let c = core { Core.default_config with tenant_depth = 2 } in
  ignore (wid_of (enq c));
  ignore (wid_of (enq c));
  (match enq c with
  | Core.Rejected { retry_after_s } ->
      Alcotest.(check bool) "retry-after at least 1s" true (retry_after_s >= 1)
  | _ -> Alcotest.fail "expected rejection at depth 2");
  (* another tenant is unaffected *)
  (match enq ~tenant:"b" c with
  | Core.Queued _ -> ()
  | _ -> Alcotest.fail "depth is per tenant");
  Alcotest.(check int) "rejection counted" 1 (Core.counters c).Core.rejected_total

let core_deadline_order_and_expiry () =
  let c = core Core.default_config in
  let slow = wid_of (enq c) in
  let urgent = wid_of (enq ~deadline:5.0 c) in
  let _, d = Core.next c ~now:0.0 in
  Alcotest.(check int) "earliest deadline first" urgent (Option.get d).Core.d_wid;
  Core.complete c;
  (* a job found past its deadline is pruned, never dispatched *)
  let late = wid_of (enq ~deadline:10.0 c) in
  let expired, d = Core.next c ~now:20.0 in
  Alcotest.(check (list int)) "expired job reported" [ late ] expired;
  Alcotest.(check int) "the no-deadline job dispatches instead" slow
    (Option.get d).Core.d_wid;
  Alcotest.(check int) "expiry counted" 1 (Core.counters c).Core.expired_total;
  let _, d = Core.next c ~now:20.0 in
  Alcotest.(check bool) "concurrency 1: no second dispatch" true (d = None)

(* Exact DRR arithmetic: weights 1 vs 3 drain in the repeating pattern
   a,b,b,b — 6 vs 18 over 24 dispatches. *)
let core_weighted_drain_exact () =
  let c =
    core { Core.default_config with weights = [ ("b", 3) ]; tenant_depth = 64 }
  in
  for _ = 0 to 39 do
    ignore (wid_of (enq ~tenant:"a" c));
    ignore (wid_of (enq ~tenant:"b" c))
  done;
  let a = ref 0 and b = ref 0 in
  for _ = 1 to 24 do
    let _, d = Core.next c ~now:0.0 in
    (match (Option.get d).Core.d_tenant with
    | "a" -> incr a
    | "b" -> incr b
    | t -> Alcotest.failf "unexpected tenant %s" t);
    Core.complete c
  done;
  Alcotest.(check int) "a gets its 1/4 share" 6 !a;
  Alcotest.(check int) "b gets its 3/4 share" 18 !b;
  List.iter
    (fun ti ->
      Alcotest.(check bool) "deficit within the DRR bound" true
        (ti.Core.ti_deficit >= 0 && ti.Core.ti_deficit <= ti.Core.ti_weight))
    (Core.tenants c)

(* --- model-based random traces against a fate reference model --- *)

type fate = F_queued | F_delivered | F_expired

let model_random_traces =
  QCheck.Test.make
    ~name:"core: random traces keep fates exact and deficits bounded"
    ~count:(count 80) QCheck.small_int (fun seed ->
      let rng = Rng.create (0xD12 + seed) in
      let concurrency = 1 + Rng.int rng 2 in
      let cfg =
        {
          Core.weights = [ ("a", 1); ("b", 2); ("c", 3) ];
          tenant_depth = 3 + Rng.int rng 5;
          concurrency;
        }
      in
      let c = Core.create cfg in
      let now = ref 0.0 in
      let fate : (int, fate) Hashtbl.t = Hashtbl.create 64 in
      let queued = ref [] in
      let running = ref 0 in
      let ok = ref true in
      let check b = if not b then ok := false in
      let bound () =
        List.iter
          (fun ti ->
            check (ti.Core.ti_deficit >= 0);
            check (ti.Core.ti_deficit <= ti.Core.ti_weight))
          (Core.tenants c)
      in
      let settle wid f =
        check (Hashtbl.find_opt fate wid = Some F_queued);
        Hashtbl.replace fate wid f;
        queued := List.filter (fun w -> w <> wid) !queued
      in
      let deliver (d : Core.dispatch) =
        incr running;
        settle d.Core.d_wid F_delivered
      in
      let tenants_arr = [| "a"; "b"; "c" |] in
      for _ = 1 to 60 do
        now := !now +. float_of_int (Rng.int rng 3);
        (match Rng.int rng 9 with
        | 0 | 1 | 2 | 3 | 4 -> (
            let tenant = tenants_arr.(Rng.int rng 3) in
            let deadline =
              if Rng.int rng 4 = 0 then !now +. float_of_int (1 + Rng.int rng 6)
              else infinity
            in
            match Core.enqueue c ~tenant ~deadline ~est_batch_s:0.05 with
            | Core.Queued wid ->
                check (not (Hashtbl.mem fate wid));
                Hashtbl.replace fate wid F_queued;
                queued := wid :: !queued
            | Core.Rejected { retry_after_s } -> check (retry_after_s >= 1))
        | 5 | 6 | 7 ->
            let expired, d = Core.next c ~now:!now in
            List.iter (fun w -> settle w F_expired) expired;
            Option.iter deliver d
        | _ ->
            if !running > 0 then begin
              Core.complete c;
              decr running
            end);
        bound ();
        check (Core.running c <= concurrency)
      done;
      (* drain: no job may be lost — every enqueue ends in exactly one
         of delivered / expired *)
      for _ = 1 to !running do
        Core.complete c
      done;
      let guard = ref 1000 in
      let continue = ref true in
      while !continue && !guard > 0 do
        decr guard;
        let expired, d = Core.next c ~now:!now in
        List.iter (fun w -> settle w F_expired) expired;
        match d with
        | Some d ->
            deliver d;
            Core.complete c
        | None -> if Core.queued c = 0 then continue := false
      done;
      check (!guard > 0);
      check (!queued = []);
      Hashtbl.iter (fun _ f -> check (f <> F_queued)) fate;
      let n f = Hashtbl.fold (fun _ x a -> if x = f then a + 1 else a) fate 0 in
      check ((Core.counters c).Core.expired_total = n F_expired);
      check ((Core.counters c).Core.batches_total = n F_delivered);
      check (Core.queued c = 0);
      !ok)

(* --- threaded wrapper --- *)

(* The server's composition: 16 callers on 4 tenants and 2 keys go
   through a single-flight cache whose leaders pass the scheduler.
   Every caller gets its key's result, each key is computed once, and
   only leaders are ever admitted. *)
let wrapper_contended_fanout () =
  let sched = Sched.create ~concurrency:2 ~tenant_depth:64 () in
  let cache = Bcc_server.Cache.create ~capacity:4 in
  let n = 16 in
  let computes = Atomic.make 0 in
  let results = Array.make n "" in
  let ths =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let tenant = Printf.sprintf "t%d" (i mod 4) in
            let key = Printf.sprintf "K/g%d" (i mod 2) in
            match
              Bcc_server.Cache.find_or_compute cache key (fun () ->
                  Sched.submit sched ~tenant (fun () ->
                      Atomic.incr computes;
                      Thread.delay 0.01;
                      "r:" ^ key))
            with
            | Ok (r, _) -> results.(i) <- r
            | Error _ -> results.(i) <- "ERR")
          ())
  in
  List.iter Thread.join ths;
  Array.iteri
    (fun i r ->
      Alcotest.(check string) "every caller got its key's result"
        (Printf.sprintf "r:K/g%d" (i mod 2)) r)
    results;
  Alcotest.(check int) "one compute per key" 2 (Atomic.get computes);
  let s = Sched.stats sched in
  Alcotest.(check int) "only leaders were admitted" 2 s.Sched.batches_total;
  Alcotest.(check int) "drained" 0 s.Sched.queued;
  Alcotest.(check int) "idle" 0 s.Sched.running;
  Alcotest.(check int) "no rejections" 0 s.Sched.rejected_total;
  Alcotest.(check int) "no expiries" 0 s.Sched.expired_total

let wrapper_group_failure_contained () =
  let sched = Sched.create ~concurrency:1 () in
  (match Sched.submit sched ~tenant:"a" (fun () -> failwith "boom") with
  | Error (Sched.Faulted (Failure msg)) ->
      Alcotest.(check string) "the job's own exception" "boom" msg
  | _ -> Alcotest.fail "expected the job's own exception back");
  match Sched.submit sched ~tenant:"a" (fun () -> "fine") with
  | Ok r -> Alcotest.(check string) "queue not wedged" "fine" r
  | _ -> Alcotest.fail "expected the next submit to succeed"

let wrapper_expired_upfront () =
  let sched = Sched.create () in
  match
    Sched.submit sched ~tenant:"a" ~deadline_s:(Timer.now_s () -. 1.0) (fun () -> "never")
  with
  | Error Sched.Expired -> ()
  | _ -> Alcotest.fail "a dead-on-arrival deadline must not run"

let sched_enqueue_fault_point () =
  Alcotest.(check bool) "registered" true
    (List.mem Sched.fault_point Fault.known_points);
  let sched = Sched.create () in
  Fault.arm Sched.fault_point Fault.Throw;
  Fun.protect ~finally:Fault.reset (fun () ->
      match Sched.submit sched ~tenant:"a" (fun () -> "x") with
      | Error (Sched.Faulted (Fault.Injected p)) ->
          Alcotest.(check string) "the sched.enqueue point" Sched.fault_point p
      | _ -> Alcotest.fail "expected an injected fault");
  (match Sched.submit sched ~tenant:"a" (fun () -> "ok") with
  | Ok r -> Alcotest.(check string) "recovers after disarm" "ok" r
  | _ -> Alcotest.fail "expected recovery");
  let s = Sched.stats sched in
  Alcotest.(check int) "the faulted submit never reached the queue" 0
    s.Sched.queued

let suite =
  [
    Alcotest.test_case "retry-after clamps to [1, 3600]" `Quick retry_after_clamps;
    Alcotest.test_case "curve cache round-trips and counts" `Quick
      cache_roundtrip_and_stats;
    Alcotest.test_case "curve cache enforces byte bound in LRU order" `Quick
      cache_byte_bound_lru;
    Alcotest.test_case "curve cache bounces oversized entries" `Quick
      cache_oversized_entry_bounces;
    Alcotest.test_case "curve cache entries are multi-owner" `Quick
      cache_multi_owner_claims;
    Alcotest.test_case "curve cache evicts by owner footprint" `Quick
      cache_evict_owner_by_footprint;
    Alcotest.test_case "curve cache lists owned artifacts sorted" `Quick
      cache_owned_listing;
    Alcotest.test_case "core rejects past tenant depth" `Quick core_depth_rejects;
    Alcotest.test_case "core orders by deadline and prunes expired" `Quick
      core_deadline_order_and_expiry;
    Alcotest.test_case "weighted DRR drain is exact" `Quick
      core_weighted_drain_exact;
    qtest model_random_traces;
    Alcotest.test_case "wrapper: group failure is contained" `Quick
      wrapper_group_failure_contained;
    Alcotest.test_case "wrapper: dead-on-arrival deadline" `Quick
      wrapper_expired_upfront;
    Alcotest.test_case "sched.enqueue fault fails only that submit" `Quick
      sched_enqueue_fault_point;
    Alcotest.test_case "wrapper: 16 threads, 4 tenants, shared results" `Quick
      wrapper_contended_fanout;
  ]
