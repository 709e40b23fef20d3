(* batch: the CLI user's and the paper's evaluation path.  One caller,
   closed loop, sequential engine (the CLI default): each instance text
   goes through [Io.load_string] and [Solver.solve], then the answer is
   verified against the instance the bench loaded.

   The set mixes dataset families because the stage mix differs by
   family (QK dominates on P; paper-scale Synthetic splits across qk,
   knapsack, sweep and decompose), so a stage-specific change shows on
   the family it hits.  The paper-scale Synthetic instance (the 100K
   recipe, about 59K queries after merging) is solved once per run; the
   rest of the set repeats once per [pass_s] of run length, and each
   instance reports the median of its samples.  The pass count depends
   on the run length only, never on how fast a run goes, so every run
   of one length does the same work. *)

open Common
module Io = Bcc_data.Io
module Instance = Bcc_core.Instance
module Solution = Bcc_core.Solution

type item = { name : string; text : string; once : bool }

(* About one pass over the whole set on a 2-core box. *)
let pass_s = 25.0

(* Thirty-two BB-class instances (the paper's BestBuy shape), three
   each of P and 5K-query Synthetic, and one paper-scale Synthetic.
   Solve time varies two- to three-fold between instances of one
   family, so the set spreads over many small instances, enough that the
   median and the geometric mean settle, and the heavy ones are few.
   Sorted by time, the median falls among the BB instances at budget 80,
   whose times cluster (at budgets 120-240 BB times split into two modes
   a factor of three apart), and the 90th percentile in the middle of
   the P and 5K-query Synthetic ones.  Those six are the paper-experiment
   harness's own P and Synthetic instances (bench/main.ml's generator
   seeds 22 and 33) at three budgets each, the same for every seed: with
   seeded ones, the 90th percentile swung by a quarter between seeds.
   The BB and paper-scale instances are drawn from the seed. *)
let instances ~seed =
  let text inst budget = Io.to_string (Instance.with_budget inst budget) in
  let sub k = (seed * 100) + k in
  let bb k budget =
    (Printf.sprintf "bb%d-%g" k budget, text (Bcc_data.Bestbuy.generate ~seed:(sub k) ~budget:0.0 ()) budget)
  in
  let p = Bcc_data.Private_like.generate ~seed:22 ~budget:0.0 () in
  let s5k =
    Bcc_data.Synthetic.generate
      ~params:{ Bcc_data.Synthetic.default_params with num_queries = 5000 }
      ~seed:33 ~budget:0.0 ()
  in
  let at name inst budget = (Printf.sprintf "%s-%g" name budget, text inst budget) in
  let s100k = Bcc_data.Synthetic.generate ~seed ~budget:5000.0 () in
  List.map
    (fun (name, text) -> { name; text; once = false })
    (List.init 32 (fun k -> bb k (if k < 30 then 80.0 else 160.0))
    @ List.map (at "p" p) [ 1000.0; 1500.0; 2000.0 ]
    @ List.map (at "s5k" s5k) [ 2500.0; 3750.0; 5000.0 ])
  @ [ { name = "s100k-5000"; text = Io.to_string s100k; once = true } ]

let run (a : args) =
  Bcc_engine.Engine.set_default_jobs 1;
  (* Set-up: generating the inputs, and one untimed solve so that lazy
     initialisation is not charged to the first timed instance. *)
  let before = (Perfbench.Refclock.measure ()).wall_s in
  let items, setup_measured_s =
    time (fun () ->
        let items = instances ~seed:a.seed in
        let first = List.hd items in
        ignore (Bcc_core.Solver.solve (Io.load_string first.text));
        items)
  in
  let setup_s =
    Perfbench.Refclock.scale_between ~before ~after:(Perfbench.Refclock.measure ()).wall_s setup_measured_s
  in
  let samples = Hashtbl.create 16 in
  let first = Hashtbl.create 16 in
  let attempted = ref 0 and failed = ref 0 and load_bytes = ref 0 in
  let solve_one pass (it : item) =
    let op = Printf.sprintf "%s#%d" it.name pass in
    incr attempted;
    (* Each instance starts from a compacted heap, as a fresh CLI
       process would, rather than paying for the previous one's garbage. *)
    Gc.compact ();
    let before = (Perfbench.Refclock.measure ()).wall_s in
    let t0 = now () in
    let inst = span "Io.load_string" ~op (fun () -> Io.load_string ~name:it.name it.text) in
    let sol = span "Solver.solve" ~op (fun () -> Bcc_core.Solver.solve inst) in
    let dt = now () -. t0 in
    (* Scaled by reference timings on either side (Refclock). *)
    let dt = Perfbench.Refclock.scale_between ~before ~after:(Perfbench.Refclock.measure ()).wall_s dt in
    drain ();
    load_bytes := !load_bytes + String.length it.text;
    let names p =
      match Instance.names inst with
      | Some tbl -> Bcc_core.Symtab.name tbl p
      | None -> string_of_int p
    in
    let key = answer_key ~names sol in
    let ok =
      Solution.verify inst sol
      && match Hashtbl.find_opt first it.name with
         | None -> Hashtbl.replace first it.name (key, sol.Solution.utility); true
         | Some (k, _) -> k = key
    in
    if not ok then begin
      incr failed;
      Printf.printf "batch: answer for %s (pass %d) failed its check\n%!" it.name pass
    end;
    Hashtbl.replace samples it.name
      ((1000.0 *. dt) :: Option.value ~default:[] (Hashtbl.find_opt samples it.name))
  in
  if a.trace then start_tracing ();
  let tasks0 = engine_task_total () and gc0 = gc_snapshot () in
  let passes = max 1 (int_of_float (a.seconds /. pass_s)) in
  for pass = 0 to passes - 1 do
    List.iter (fun it -> if pass = 0 || not it.once then solve_one pass it) items
  done;
  let tasks = engine_task_total () - tasks0 in
  let gc = gc_layers gc0 in
  let per_item =
    List.map (fun it -> (it.name, Stats.median (Array.of_list (Hashtbl.find samples it.name)))) items
  in
  let utility_total = Hashtbl.fold (fun _ (_, u) acc -> acc +. u) first 0.0 in
  let notes =
    Printf.sprintf "batch: measured, unscaled set-up %.2fs" setup_measured_s
    :: Printf.sprintf "batch: %d passes; geometric mean of per-instance medians %.1f ms; per-instance median load+solve:"
      passes (Perfbench.Pstats.geomean (List.map snd per_item))
    :: List.map
         (fun (name, ms) ->
           Printf.sprintf "  %-12s %9.1f ms (n=%d)" name ms
             (List.length (Hashtbl.find samples name)))
         per_item
  in
  let layers =
    if not a.trace then []
    else
      let st = stop_tracing ~file:(Printf.sprintf "trace-batch-%d.json" a.seed) in
      let s = Perfbench.Selftime.find st in
      let load_s = (s "Io.load_string").total_s in
      let task = s "engine.task" in
      [
        ("io.load_s", load_s);
        ("io.load_mb_per_s", Perfbench.Pstats.ratio (float_of_int !load_bytes /. 1048576.0) load_s);
        ("solver.solve_s", (s "Solver.solve").total_s);
        ("solver.unattributed_s", (s "Solver.solve").self_s +. (s "solve").self_s);
        ("engine.tasks", float_of_int tasks);
        ("engine.task_mean_ms", 1000.0 *. Perfbench.Pstats.ratio task.total_s (float_of_int task.calls));
      ]
      @ stage_layers st @ gc
  in
  {
    setup_s;
    utility_total;
    peak_rss_mb = peak_rss_mb None;
    op_ms = List.map snd per_item;
    busy_s = Stats.sum (Array.of_list (List.map snd per_item)) /. 1000.0;
    attempted = !attempted;
    failed = !failed;
    notes;
    layers;
  }
