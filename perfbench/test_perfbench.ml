(* Tests of the benchmark's own helpers: percentiles, open-loop
   lateness accounting, self-time attribution, the metric-name charset
   and reference scaling. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)
let range a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

let () =
  (* The reported tail keeps at least ten samples beyond it. *)
  check "no tail below 20 samples" (Pstats.tail_level 19 = None);
  check "tail at 20 samples is p50" (Pstats.tail_level 20 = Some 50.0);
  check "tail at 100 samples is p90" (Pstats.tail_level 100 = Some 90.0);
  check "tail at 1000 samples is p99" (Pstats.tail_level 1000 = Some 99.0);
  check "tail at 250 samples is p96" (Pstats.tail_level 250 = Some 96.0);
  List.iter
    (fun n ->
      match Pstats.tail_level n with
      | None -> check "tail exists" (n < 20)
      | Some p ->
          let beyond = float_of_int n *. (100.0 -. p) /. 100.0 in
          check (Printf.sprintf "ten beyond p%g at n=%d" p n) (beyond >= 10.0 -. 1e-9))
    [ 20; 21; 37; 99; 101; 333; 1234; 99_999 ];
  let s = Pstats.summarize (range 1 100) in
  check "summary count" (s.Pstats.n = 100);
  check "summary median" (close s.Pstats.p50 50.5);
  check "summary tail value"
    (match s.Pstats.tail with Some (90.0, v) -> close v 90.1 | _ -> false);
  check "geomean" (close (Pstats.geomean [ 1.0; 100.0 ]) 10.0)

let () =
  (* Open loop: latency counts from the due time, so a request queued
     behind a stall carries the stall; lateness is never negative. *)
  let s = { Openloop.due = 1.0; sent = 1.25; done_ = 1.5 } in
  check "latency from due" (close (Openloop.latency s) 0.5);
  check "service from send" (close (Openloop.service s) 0.25);
  check "lateness" (close (Openloop.lateness s) 0.25);
  check "lateness clamps at zero"
    (close (Openloop.lateness { s with Openloop.sent = 0.99 }) 0.0);
  let sched seed = Openloop.poisson ~rng:(Bcc_util.Rng.create seed) ~n:5000 ~duration:100.0 in
  let a = sched 7 in
  check "schedule is seeded" (a = sched 7 && a <> sched 8);
  check "schedule has the asked-for count" (List.length a = 5000);
  check "schedule ascending and in range"
    (List.for_all (fun t -> t >= 0.0 && t < 100.0) a
    && fst (List.fold_left (fun (ok, prev) t -> (ok && t >= prev, t)) (true, 0.0) a));
  (* Poisson gaps are exponential: mean 1/rate, and about e^-1 of them
     exceed the mean. *)
  let over = ref 0 in
  ignore (List.fold_left (fun prev t -> if t -. prev > 0.02 then incr over; t) (List.hd a) (List.tl a));
  let over = !over in
  check "exponential gaps" (over > 1700 && over < 1980)

let () =
  (* Self time subtracts direct children only, per thread. *)
  let sp name tid start stop = { Selftime.name; tid; start; stop } in
  let t =
    Selftime.compute
      [
        sp "solve" 0 0.0 10.0;
        sp "qk" 0 1.0 5.0;
        sp "qk.pipeline" 0 2.0 4.0;
        sp "knapsack" 0 5.0 6.0;
        sp "knapsack" 0 7.0 8.0;
        sp "engine.task" 1 1.0 3.0;
        sp "qk" 1 1.5 2.5;
      ]
  in
  let st = Selftime.find t in
  check "parent self" (close (st "solve").Selftime.self_s 4.0);
  check "middle self" (close (st "qk").Selftime.self_s (2.0 +. 1.0));
  check "leaf self" (close (st "qk.pipeline").Selftime.self_s 2.0);
  check "calls" ((st "knapsack").Selftime.calls = 2 && (st "qk").Selftime.calls = 2);
  check "other thread" (close (st "engine.task").Selftime.self_s 1.0);
  check "total" (close (st "solve").Selftime.total_s 10.0);
  check "missing name" ((st "nope").Selftime.calls = 0)

let () =
  (* Metric names and units follow the result format's charset. *)
  List.iter
    (fun n -> check ("valid " ^ n) (Report.valid_name n))
    [ "setup_s"; "stage.qk.pipeline.self_s"; "p90"; "cache.solution.hit_ratio"; "a-b" ];
  List.iter
    (fun n -> check ("invalid " ^ n) (not (Report.valid_name n)))
    [ ""; ".hidden"; "_x"; "lat p50"; "lat/ms"; "naïve"; String.make 65 'a' ];
  check "units" (Report.valid_unit "1/s" && Report.valid_unit "%" && not (Report.valid_unit "m s"));
  check "metric rejects a bad name"
    (match Report.metric "bad name" "s" 1.0 with _ -> false | exception Invalid_argument _ -> true);
  check "result line"
    (Report.result_line ~correct:true ~attempted:3 ~failed:0
       [ Report.metric "lat_p50_ms" "ms" 1.5; Report.metric "n" "count" 4.0 ]
    = {|{"correct":true,"attempted":3,"failed":0,"metrics":{"lat_p50_ms":{"value":1.5,"unit":"ms"},"n":{"value":4,"unit":"count"}}}|})

let () =
  (* Reference scaling: a time taken while the reference ran at its
     nominal speed is unchanged; a host twice as slow halves it back. *)
  let n = Refclock.nominal_s in
  check "scale at nominal" (close (Refclock.scale ~ref_s:n 0.25) 0.25);
  check "scale on a slow host" (close (Refclock.scale ~ref_s:(2.0 *. n) 0.5) 0.25);
  check "scale between" (close (Refclock.scale_between ~before:n ~after:(3.0 *. n) 0.5) 0.25);
  check "scale rejects a zero reference"
    (match Refclock.scale ~ref_s:0.0 1.0 with _ -> false | exception Invalid_argument _ -> true);
  let samples = [ (0.0, 1.0); (1.0, 2.0); (2.0, 3.0); (3.0, 40.0); (10.0, 50.0) ] in
  check "nearest median" (close (Refclock.nearest_median ~k:3 samples ~at:1.1) 2.0);
  check "nearest median at the end" (close (Refclock.nearest_median ~k:1 samples ~at:9.0) 50.0);
  check "nearest median takes all when few" (close (Refclock.nearest_median ~k:9 samples ~at:0.0) 3.0);
  check "kernel is deterministic" (Refclock.kernel () = Refclock.kernel ());
  let m = Refclock.measure () in
  check "measure" (m.Refclock.wall_s > 0.0 && m.Refclock.cpu_s >= 0.0)

let () =
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
