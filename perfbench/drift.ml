(* drift: a living workload in the in-process workload store.  One
   caller, closed loop, state directory under the run's scratch dir, so
   every commit's fsynced journal append is on the path.

   Two workloads hold identical content, the 144-cluster clustered
   workload of bench/main.ml (each cluster has its own property
   namespace, so its overlap graph has one component per cluster).  The
   workload is fixed; the seed draws the deltas.  (Seeding the workload
   too made the 90th-percentile epoch swing by half between seeds: on
   some workloads one warm re-solve in seven costs three times the
   median.)  Each epoch applies the same delta to both, re-solves one warm ([Store.solve]) and the other
   incrementally ([Store.solve ~incremental:true]).  Most deltas stay
   inside one cluster, so the incremental path can reuse all but one of
   the component curves; one in eight spans three clusters.  This is the
   workload where the curve cache and warm seeding do the work, and
   [batch] the one without reuse.

   The bench keeps its own copy of the workload, applies each delta to
   it, and verifies every answer against an instance it loads from that
   copy. *)

open Common
module Store = Bcc_store.Store
module Delta = Bcc_store.Delta
module Rng = Bcc_util.Rng
module Instance = Bcc_core.Instance
module Solution = Bcc_core.Solution

let clusters = 144
let queries_per = 40
let props_per = 8

(* Epochs per second of [--seconds]: fixed, so that a seed and a run
   length give the same epochs, and so the same utility total. *)
let epochs_per_s = 5.0

(* The bench's copy: query and classifier keys are sorted property
   names joined by ';'. *)
type model = {
  budget : float;
  queries : (string, float) Hashtbl.t;
  costs : (string, float) Hashtbl.t;
}

let key names = String.concat ";" (List.sort_uniq compare names)
let prop c i = Printf.sprintf "c%dp%d" c i

(* The clustered workload of bench/main.ml's incr experiment, with the
   same generator seed, so both benches drift the same workload. *)
let initial () =
  let rng = Rng.create 4242 in
  let m = { budget = float_of_int (clusters * 10); queries = Hashtbl.create 8192; costs = Hashtbl.create 4096 } in
  for c = 0 to clusters - 1 do
    for _ = 1 to queries_per do
      let k = 2 + Rng.int rng 2 in
      let names = List.init k (fun _ -> prop c (Rng.int rng props_per)) in
      (* bench/main.ml writes every query line, and loading sums
         duplicates. *)
      let k = key names and u = float_of_int (1 + Rng.int rng 20) in
      Hashtbl.replace m.queries k (u +. Option.value ~default:0.0 (Hashtbl.find_opt m.queries k))
    done;
    for i = 0 to props_per - 1 do
      Hashtbl.replace m.costs (prop c i) (float_of_int (1 + (i mod 4)));
      if i + 1 < props_per then
        Hashtbl.replace m.costs (key [ prop c i; prop c (i + 1) ]) (float_of_int (2 + (i mod 3)))
    done
  done;
  m

let to_text m =
  let b = Buffer.create (1 lsl 18) in
  Printf.bprintf b "budget %.17g\n" m.budget;
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  List.iter (fun (k, u) -> Printf.bprintf b "query %s %.17g\n" k u) (sorted m.queries);
  List.iter (fun (k, c) -> Printf.bprintf b "classifier %s %.17g\n" k c) (sorted m.costs);
  Buffer.contents b

let apply m ops =
  List.iter
    (function
      | Delta.Upsert (names, u) -> Hashtbl.replace m.queries (key names) u
      | Delta.Set_cost (names, c) ->
          if Float.is_finite c then Hashtbl.replace m.costs (key names) c
          else Hashtbl.remove m.costs (key names)
      | _ -> invalid_arg "Drift.apply: the bench only generates upserts and re-prices")
    ops

(* One epoch's delta, drawn from the seed: utility upserts and a
   classifier re-price inside one cluster, or (one epoch in eight)
   inside three. *)
let delta rng =
  let spread = if Rng.int rng 8 = 0 then 3 else 1 in
  let cs = Array.to_list (Rng.sample_without_replacement rng spread clusters) in
  let upserts = if spread = 1 then 8 else 3 in
  List.concat_map
    (fun c ->
      let pick () = prop c (Rng.int rng props_per) in
      List.init upserts (fun _ ->
          let p1 = pick () and p2 = pick () in
          Delta.Upsert (List.sort_uniq compare [ p1; p2 ], float_of_int (5 + Rng.int rng 15)))
      @ [ Delta.Set_cost ([ pick () ], float_of_int (1 + Rng.int rng 5)) ])
    cs

let ok what = function
  | Ok v -> v
  | Error (`Bad msg) -> failwith (Printf.sprintf "drift: %s: %s" what msg)
  | Error `Not_found -> failwith (Printf.sprintf "drift: %s: workload not found" what)

let names_of (s : Store.solved) p =
  match Instance.names s.Store.instance with
  | Some tbl -> Bcc_core.Symtab.name tbl p
  | None -> string_of_int p

(* What the checks need of one answer, kept from the epoch loop so that
   the checks run after it: the loop then allocates nothing of the
   bench's beyond this, and its GC work stays the program's. *)
type answer = {
  epoch : int;
  solved_at : int;
  degraded : bool;
  utility : float;
  cost : float;
  sets : string list list;  (** classifiers by property name *)
}

let answer ~epoch (s : Store.solved) =
  let sol = s.Store.solution in
  {
    epoch;
    solved_at = s.Store.solved_at;
    degraded = s.Store.degraded;
    utility = sol.Solution.utility;
    cost = sol.Solution.cost;
    sets = List.map (fun c -> List.map (names_of s) (Bcc_core.Propset.to_list c)) sol.Solution.classifiers;
  }

(* The store's answer, rebuilt from its classifier names and verified on
   the bench's own instance of the same epoch. *)
let check inst a =
  a.solved_at = a.epoch && (not a.degraded)
  && check_sets inst ~sets:a.sets ~utility:a.utility ~cost:a.cost

let open_store dir ~text =
  let cc = Bcc_sched.Curve_cache.create () in
  let st = Store.create ~dir ~curve_cache:cc () in
  ignore (ok "put" (Store.put st ~name:"warm" (Store.Text text)));
  ignore (ok "put" (Store.put st ~name:"incr" (Store.Text text)));
  let w = ok "prime warm" (Store.solve st ~name:"warm" ()) in
  let i = ok "prime incremental" (Store.solve st ~name:"incr" ~incremental:true ()) in
  (st, cc, w, i)

let run (a : args) =
  Bcc_engine.Engine.set_default_jobs 1;
  with_tmp_dir "drift" @@ fun tmp ->
  let m = initial () in
  let text0 = to_text m in
  let gen = ref 0 in
  let (st, cc, w0, i0), setup_s, setup_measured_s =
    repeated_setup ~times:5
      ~setup:(fun () ->
        incr gen;
        open_store (Filename.concat tmp (Printf.sprintf "state-%d" !gen)) ~text:text0)
      ~teardown:(fun (st, _, _, _) ->
        Store.close st;
        (* Each set-up starts from the same heap: the torn-down store's
           garbage is collected outside the timed set-ups and epochs. *)
        Gc.full_major ())
  in
  Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
  let attempted = ref 2 and failed = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr failed; print_endline ("drift: " ^ s)) fmt in
  let utility_total = ref (w0.Store.solution.Solution.utility +. i0.Store.solution.Solution.utility) in
  let epochs = max 10 (int_of_float (a.seconds *. epochs_per_s)) in
  let rng = Rng.create a.seed in
  let commits = ref [] and warm = ref [] and incr_ = ref [] and epoch_ms = ref [] and measured_ms = ref [] in
  let comp_total = ref 0 and comp_reused = ref 0 and warm_ratios = ref [] in
  let journal_bytes = ref 0 in
  let journal = Hashtbl.create 2 in
  let grew name bytes =
    (match Hashtbl.find_opt journal name with
    | Some b when bytes > b -> journal_bytes := !journal_bytes + (bytes - b)
    | _ -> ());
    Hashtbl.replace journal name bytes
  in
  List.iter (fun (s : Store.solved) -> grew s.Store.info.Store.name s.Store.info.Store.journal_bytes) [ w0; i0 ];
  let history = ref [] and answers = ref [ (answer ~epoch:0 w0, answer ~epoch:0 i0) ] in
  let last_incr = ref i0 in
  if a.trace then start_tracing ();
  let cc0 = Bcc_sched.Curve_cache.stats cc and gc0 = gc_snapshot () and tasks0 = engine_task_total () in
  let ref_before = ref ((Perfbench.Refclock.measure ()).wall_s) in
  for e = 1 to epochs do
    let op = Printf.sprintf "epoch%d" e in
    let ops = delta rng in
    history := ops :: !history;
    let timed name f =
      let t0 = now () in
      let r = span name ~op f in
      (r, 1000.0 *. (now () -. t0))
    in
    let commit name =
      let info, ms = timed "Store.delta" (fun () -> ok "delta" (Store.delta st ~name ops)) in
      grew name info.Store.journal_bytes;
      ms
    in
    let t0 = now () in
    let cw = commit "warm" in
    let ci = commit "incr" in
    let w, wms = timed "Store.solve(warm)" (fun () -> ok "warm solve" (Store.solve st ~name:"warm" ())) in
    let i, ims =
      timed "Store.solve(incremental)" (fun () ->
          ok "incremental solve" (Store.solve st ~name:"incr" ~incremental:true ()))
    in
    let ems = 1000.0 *. (now () -. t0) in
    (* Every time of the epoch is scaled by the reference timings on
       either side of it. *)
    let after = (Perfbench.Refclock.measure ()).wall_s in
    let scale = Perfbench.Refclock.scale_between ~before:!ref_before ~after in
    ref_before := after;
    drain ();
    measured_ms := ems :: !measured_ms;
    epoch_ms := scale ems :: !epoch_ms;
    commits := scale cw :: scale ci :: !commits;
    attempted := !attempted + 4;
    warm := scale wms :: !warm;
    incr_ := scale ims :: !incr_;
    grew "warm" w.Store.info.Store.journal_bytes;
    grew "incr" i.Store.info.Store.journal_bytes;
    comp_total := !comp_total + i.Store.components_total;
    comp_reused := !comp_reused + i.Store.components_reused;
    Option.iter (fun r -> warm_ratios := r :: !warm_ratios) w.Store.info.Store.warm_ratio;
    utility_total := !utility_total +. w.Store.solution.Solution.utility +. i.Store.solution.Solution.utility;
    last_incr := i;
    answers := (answer ~epoch:e w, answer ~epoch:e i) :: !answers
  done;
  let cc1 = Bcc_sched.Curve_cache.stats cc and gc = gc_layers gc0 and tasks = engine_task_total () - tasks0 in
  (* Before the checks, whose memory is the bench's. *)
  let peak_rss_mb = peak_rss_mb None in
  (* Replay the deltas on the bench's copy and check each epoch's two
     answers on an instance loaded from it. *)
  if a.verify then begin
    List.iter2
      (fun ops (w, i) ->
        if w.epoch > 0 then apply m ops;
        let inst = Bcc_data.Io.load_string (to_text m) in
        if not (check inst w) then fail "epoch %d: warm answer failed its check" w.epoch;
        if not (check inst i) then fail "epoch %d: incremental answer failed its check" i.epoch)
      ([] :: List.rev !history) (List.rev !answers);
    (* The last incremental answer must equal a cold pipeline solve of the
       same epoch: a fresh store, the same history, an empty curve cache. *)
    let cold =
      let s = Store.create () in
      Fun.protect ~finally:(fun () -> Store.close s) @@ fun () ->
      ignore (ok "cold put" (Store.put s ~name:"cold" (Store.Text text0)));
      List.iter (fun ops -> ignore (ok "cold delta" (Store.delta s ~name:"cold" ops))) (List.rev !history);
      ok "cold solve" (Store.solve s ~name:"cold" ~incremental:true ())
    in
    incr attempted;
    let key (s : Store.solved) = answer_key ~names:(names_of s) s.Store.solution in
    if key cold <> key !last_incr then
      fail "last incremental answer differs from a cold pipeline solve (%s vs %s)"
        (Printf.sprintf "%.1f" !last_incr.Store.solution.Solution.utility)
        (Printf.sprintf "%.1f" cold.Store.solution.Solution.utility)
  end;
  let module P = Perfbench.Pstats in
  let reuse = P.ratio (float_of_int !comp_reused) (float_of_int !comp_total) in
  let lookups c = c.Bcc_sched.Curve_cache.hits + c.Bcc_sched.Curve_cache.misses in
  let notes =
    [
      Printf.sprintf "drift: %d epochs, %d clusters, state dir on the checkout's disk" epochs clusters;
      Printf.sprintf "  measured, unscaled: set-up %.3fs, epoch %s" setup_measured_s
        (P.pp_summary ~unit_:"ms" (P.summarize !measured_ms));
      "  scaled times:";
      "  commit (Store.delta)   " ^ P.pp_summary ~unit_:"ms" (P.summarize !commits);
      "  warm re-solve          " ^ P.pp_summary ~unit_:"ms" (P.summarize !warm);
      "  incremental re-solve   " ^ P.pp_summary ~unit_:"ms" (P.summarize !incr_);
      Printf.sprintf "  component curves reused: %d of %d (%.1f%%)" !comp_reused !comp_total (100.0 *. reuse);
    ]
  in
  let layers =
    if not a.trace then []
    else
      let stt = stop_tracing ~file:(Printf.sprintf "trace-drift-%d.json" a.seed) in
      let solve = Perfbench.Selftime.find stt "solve" and task = Perfbench.Selftime.find stt "engine.task" in
      [
        ("engine.tasks", float_of_int tasks);
        ("engine.task_mean_ms", 1000.0 *. P.ratio task.total_s (float_of_int task.calls));
        ("solver.solve_s", solve.total_s);
        ("solver.unattributed_s", solve.self_s);
        ("store.delta_busy_s", Stats.sum (Array.of_list !commits) /. 1000.0);
        ("store.commit_p50_ms", Stats.median (Array.of_list !commits));
        ("store.journal_bytes", float_of_int !journal_bytes);
        ("store.solve_warm_busy_s", Stats.sum (Array.of_list !warm) /. 1000.0);
        ("store.resolve_warm_p50_ms", Stats.median (Array.of_list !warm));
        ("store.resolve_warm_p90_ms", Stats.percentile (Array.of_list !warm) 90.0);
        ("store.warm_ratio_mean", Stats.mean (Array.of_list !warm_ratios));
        ("store.solve_incr_busy_s", Stats.sum (Array.of_list !incr_) /. 1000.0);
        ("store.resolve_incr_p50_ms", Stats.median (Array.of_list !incr_));
        ("store.resolve_incr_p90_ms", Stats.percentile (Array.of_list !incr_) 90.0);
        ("pipeline.components_total", float_of_int !comp_total);
        ("pipeline.components_reused", float_of_int !comp_reused);
        ("pipeline.reuse_ratio", reuse);
        ( "curve_cache.hit_ratio",
          P.ratio
            (float_of_int (cc1.Bcc_sched.Curve_cache.hits - cc0.Bcc_sched.Curve_cache.hits))
            (float_of_int (lookups cc1 - lookups cc0)) );
        ("curve_cache.lookups", float_of_int (lookups cc1 - lookups cc0));
      ]
      @ stage_layers stt @ gc
  in
  {
    setup_s;
    utility_total = !utility_total;
    peak_rss_mb;
    op_ms = !epoch_ms;
    busy_s = Stats.sum (Array.of_list !epoch_ms) /. 1000.0;
    attempted = !attempted;
    failed = !failed;
    notes;
    layers;
  }
