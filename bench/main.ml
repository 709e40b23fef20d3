(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) plus the ablations listed in DESIGN.md.

   Usage:
     main.exe                  run every experiment (standard scale)
     main.exe fig3a fig4e ...  run selected experiments
     main.exe --quick ...      scaled-down sizes (CI-friendly)
     main.exe --jobs N         run solver portfolios on N worker domains
     main.exe --json FILE      write per-experiment wall times, anytime
                               utility curves (from the solver's incumbent
                               event stream) and, with --jobs > 1, a
                               parallel speedup probe as JSON
     main.exe --bechamel       Bechamel micro-timings, one per experiment
     main.exe --trace FILE     write a Chrome trace_event JSON of the run
     main.exe --profile        print a per-stage wall-time summary

   Absolute numbers differ from the paper (different hardware, OCaml vs
   Python, generated stand-ins for the proprietary datasets); the shapes
   the paper reports are what EXPERIMENTS.md tracks. *)

module Instance = Bcc_core.Instance
module Solution = Bcc_core.Solution
module Solver = Bcc_core.Solver
module Exact = Bcc_core.Exact
module Baselines = Bcc_core.Baselines
module Gmc3 = Bcc_core.Gmc3
module Ecc = Bcc_core.Ecc
module Cover = Bcc_core.Cover
module Propset = Bcc_core.Propset
module Prune = Bcc_core.Prune
module Qk = Bcc_qk.Qk
module Taylor = Bcc_qk.Taylor
module Hks = Bcc_dks.Hks
module Graph = Bcc_graph.Graph
module Synthetic = Bcc_data.Synthetic
module Bestbuy = Bcc_data.Bestbuy
module Private_like = Bcc_data.Private_like
module Timer = Bcc_util.Timer
module Texttable = Bcc_util.Texttable
module Rng = Bcc_util.Rng
module Engine = Bcc_engine.Engine

let quick = ref false

let scaled n = if !quick then max 1 (n / 4) else n

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let fmt_f x =
  if x = infinity then "inf"
  else if Float.is_integer x && abs_float x < 1e9 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.2f" x

(* RAND is averaged over 5 seeded runs, as in the paper. *)
let rand_avg inst stop =
  let xs =
    List.map (fun s -> (Baselines.rand ~seed:s inst stop).Solution.utility) [ 1; 2; 3; 4; 5 ]
  in
  List.fold_left ( +. ) 0.0 xs /. 5.0

let rand_cost_avg inst stop =
  let xs =
    List.map (fun s -> (Baselines.rand ~seed:s inst stop).Solution.cost) [ 1; 2; 3; 4; 5 ]
  in
  List.fold_left ( +. ) 0.0 xs /. 5.0

(* ------------------------------------------------------------------ *)
(* Dataset builders (fixed seeds: the whole harness is reproducible).   *)
(* ------------------------------------------------------------------ *)

let bb_instance ~budget = Bestbuy.generate ~seed:11 ~budget ()
let p_instance ~budget = Private_like.generate ~seed:22 ~budget ()

let s_instance ?(num_queries = 20_000) ~budget ~seed () =
  let params = { Synthetic.default_params with num_queries = scaled num_queries } in
  Synthetic.generate ~params ~seed ~budget ()

(* ------------------------------------------------------------------ *)
(* Figures 3a-3c: utility per budget per algorithm.                     *)
(* ------------------------------------------------------------------ *)

let utility_vs_budget name make_instance budgets =
  header name;
  let table = Texttable.create [ "budget"; "RAND"; "IG1"; "IG2"; "A^BCC"; "total-U" ] in
  (* The budget sweep is an engine portfolio: one task per budget point,
     rows collected in task (= budget) order, so the printed table is
     identical at any job count. *)
  let tasks =
    List.map
      (fun budget ->
        Engine.Task.make ~label:"bench.budget" (fun _ ->
            let inst = make_instance ~budget in
            let rand = rand_avg inst Baselines.Budget in
            let ig1 = (Baselines.ig1 inst Baselines.Budget).Solution.utility in
            let ig2 = (Baselines.ig2 inst Baselines.Budget).Solution.utility in
            let ours = (Solver.solve inst).Solution.utility in
            [ fmt_f budget; fmt_f rand; fmt_f ig1; fmt_f ig2; fmt_f ours;
              fmt_f (Instance.total_utility inst) ]))
      budgets
  in
  List.iter (Texttable.add_row table)
    (Engine.Portfolio.collect (Engine.default_pool ()) tasks);
  Texttable.print table

let fig3a () =
  utility_vs_budget "fig3a: BestBuy-like (BB), utility vs budget"
    (fun ~budget -> bb_instance ~budget)
    [ 40.0; 80.0; 160.0; 320.0 ]

let fig3b () =
  utility_vs_budget "fig3b: Private-like (P), utility vs budget"
    (fun ~budget -> p_instance ~budget)
    [ 500.0; 1000.0; 2000.0; 4000.0 ]

let fig3c () =
  utility_vs_budget "fig3c: Synthetic (S), utility vs budget"
    (fun ~budget -> s_instance ~budget ~seed:33 ())
    [ 1250.0; 2500.0; 5000.0; 10000.0 ]

(* ------------------------------------------------------------------ *)
(* Figure 3d: A^BCC vs brute force on small sub-domains.                *)
(* ------------------------------------------------------------------ *)

let fig3d () =
  header "fig3d: A^BCC vs brute force on small P sub-domains (paper: loss < 20%)";
  let table =
    Texttable.create [ "subdomain"; "queries"; "budget"; "brute"; "A^BCC"; "ratio" ]
  in
  let p = p_instance ~budget:0.0 in
  let rng = Rng.create 4242 in
  let found = ref 0 in
  let attempts = ref 0 in
  while !found < 8 && !attempts < 400 do
    incr attempts;
    (* A sub-domain: the queries sharing one anchor property (the paper
       used e.g. the "iPhones" queries). *)
    let qi = Rng.int rng (Instance.num_queries p) in
    let anchor = List.hd (Propset.to_list (Instance.query p qi)) in
    let members = ref [] in
    for q = 0 to Instance.num_queries p - 1 do
      if Propset.mem anchor (Instance.query p q) then members := q :: !members
    done;
    let size = List.length !members in
    if size >= 3 && size <= 7 then begin
      let sub = Instance.restrict p !members in
      if Instance.num_classifiers sub <= 24 then begin
        incr found;
        let total_cost = ref 0.0 in
        for id = 0 to Instance.num_classifiers sub - 1 do
          total_cost := !total_cost +. Instance.cost sub id
        done;
        let budget = Float.round (0.4 *. !total_cost) in
        let sub = Instance.with_budget sub budget in
        let brute = (Exact.solve sub).Solution.utility in
        let ours = (Solver.solve sub).Solution.utility in
        let ratio = if brute <= 0.0 then 1.0 else ours /. brute in
        Texttable.add_row table
          [ Printf.sprintf "#%d" !found; string_of_int size; fmt_f budget; fmt_f brute;
            fmt_f ours; Printf.sprintf "%.2f" ratio ]
      end
    end
  done;
  Texttable.print table

(* ------------------------------------------------------------------ *)
(* Figures 3e/3f: preprocessing ablation (runtime and utility).         *)
(* ------------------------------------------------------------------ *)

let fig3ef () =
  header "fig3e/3f: preprocessing (pruning) ablation on S, budget 5000";
  let table =
    Texttable.create
      [ "queries"; "prep"; "time(s)"; "utility" ]
  in
  let sizes = if !quick then [ 2000; 5000 ] else [ 5000; 10_000; 20_000; 50_000; 100_000 ] in
  List.iter
    (fun n ->
      let params = { Synthetic.default_params with num_queries = n } in
      let inst = Synthetic.generate ~params ~seed:44 ~budget:5000.0 () in
      let run name options =
        let sol, t = Timer.time (fun () -> Solver.solve ~options inst) in
        Texttable.add_row table
          [ string_of_int n; name; Printf.sprintf "%.2f" t; fmt_f sol.Solution.utility ]
      in
      run "paper-prune"
        { Solver.default_options with prune_mode = `Paper; max_qk_nodes = 20_000 };
      run "lossless" Solver.default_options;
      (* The paper's no-preprocessing variant did not terminate above 50K
         queries; we skip it at the largest size too. *)
      if n <= 20_000 then
        run "none" { Solver.default_options with prune = false; max_qk_nodes = max_int }
      else Texttable.add_row table [ string_of_int n; "none"; "skipped"; "-" ])
    sizes;
  Texttable.print table

(* ------------------------------------------------------------------ *)
(* Figures 4a-4c: GMC3 — budget used per utility target.                *)
(* ------------------------------------------------------------------ *)

let budget_vs_target name make_instance fractions =
  header name;
  let inst = make_instance ~budget:0.0 in
  let total = Instance.total_utility inst in
  let table =
    Texttable.create [ "target"; "RAND(G)"; "IG1(G)"; "IG2(G)"; "A^GMC3"; "reached" ]
  in
  List.iter
    (fun frac ->
      let target = Float.round (frac *. total) in
      let stop = Baselines.Target target in
      let rand = rand_cost_avg inst stop in
      let ig1 = (Baselines.ig1 inst stop).Solution.cost in
      let ig2 = (Baselines.ig2 inst stop).Solution.cost in
      let r = Gmc3.solve inst ~target in
      Texttable.add_row table
        [ Printf.sprintf "%s (%.0f%%)" (fmt_f target) (100.0 *. frac); fmt_f rand;
          fmt_f ig1; fmt_f ig2; fmt_f r.Gmc3.solution.Solution.cost;
          string_of_bool r.Gmc3.reached ])
    fractions;
  Texttable.print table

let fig4a () =
  budget_vs_target "fig4a: GMC3 on BB — budget used vs utility target"
    (fun ~budget -> bb_instance ~budget)
    [ 0.25; 0.50; 0.75 ]

let fig4b () =
  budget_vs_target "fig4b: GMC3 on P — budget used vs utility target"
    (fun ~budget -> p_instance ~budget)
    [ 0.25; 0.50; 0.75 ]

let fig4c () =
  budget_vs_target "fig4c: GMC3 on S — budget used vs utility target"
    (fun ~budget -> s_instance ~num_queries:10_000 ~budget ~seed:55 ())
    [ 0.25; 0.50; 0.75 ]

(* ------------------------------------------------------------------ *)
(* Figure 4d: GMC3 runtime on S.                                        *)
(* ------------------------------------------------------------------ *)

let fig4d () =
  header "fig4d: GMC3 runtime on S (target = 30% of total utility)";
  let table = Texttable.create [ "queries"; "time(s)"; "budget used"; "reached" ] in
  let sizes = if !quick then [ 2000; 5000 ] else [ 5000; 10_000; 20_000 ] in
  List.iter
    (fun n ->
      let params = { Synthetic.default_params with num_queries = n } in
      let inst = Synthetic.generate ~params ~seed:66 ~budget:0.0 () in
      let target = Float.round (0.3 *. Instance.total_utility inst) in
      let r, t = Timer.time (fun () -> Gmc3.solve ~search_steps:6 inst ~target) in
      Texttable.add_row table
        [ string_of_int n; Printf.sprintf "%.2f" t; fmt_f r.Gmc3.solution.Solution.cost;
          string_of_bool r.Gmc3.reached ])
    sizes;
  Texttable.print table

(* ------------------------------------------------------------------ *)
(* Figures 4e/4f: ECC best ratios.                                      *)
(* ------------------------------------------------------------------ *)

let ecc_table name inst =
  header name;
  let table = Texttable.create [ "algorithm"; "ratio"; "cost"; "utility" ] in
  let row name sol =
    Texttable.add_row table
      [ name; fmt_f (Ecc.ratio_of sol); fmt_f sol.Solution.cost; fmt_f sol.Solution.utility ]
  in
  row "RAND(E)" (Baselines.rand ~seed:1 inst Baselines.Best_ratio);
  row "IG1(E)" (Baselines.ig1 inst Baselines.Best_ratio);
  row "IG2(E)" (Baselines.ig2 inst Baselines.Best_ratio);
  let sol, t = Timer.time (fun () -> Ecc.solve inst) in
  row "A^ECC" sol;
  Printf.printf "A^ECC runtime: %.2fs\n" t;
  Texttable.print table

let fig4e () =
  (* Free (cost-0) classifiers make the best ratio trivially infinite;
     the ECC comparison clamps every cost to at least 1. *)
  let p0 =
    Private_like.generate
      ~params:{ Private_like.default_params with free_classifier_fraction = 0.0 }
      ~seed:22 ~budget:0.0 ()
  in
  let queries =
    Array.init (Instance.num_queries p0) (fun qi ->
        (Instance.query p0 qi, Instance.utility p0 qi))
  in
  let cost c =
    let x = Instance.cost_of p0 c in
    if x = infinity then infinity else max 1.0 x
  in
  let inst = Instance.create ~name:"p-ecc" ~budget:0.0 ~queries ~cost () in
  ecc_table "fig4e: ECC on P — best utility/cost ratio (costs >= 1)" inst

let fig4f () =
  (* As in fig4e, cost-0 classifiers are excluded so ratios stay
     informative. *)
  let params =
    { Synthetic.default_params with num_queries = scaled 10_000; cost_lo = 1.0 }
  in
  let inst = Synthetic.generate ~params ~seed:77 ~budget:0.0 () in
  ecc_table "fig4f: ECC on S — best utility/cost ratio (costs >= 1)" inst

(* ------------------------------------------------------------------ *)
(* Section 6.2 insights: diminishing returns, budget for 75% utility,   *)
(* length mix of the covered utility.                                   *)
(* ------------------------------------------------------------------ *)

let insights () =
  header "insights (6.2): diminishing returns and covered-utility length mix on P";
  let inst0 = p_instance ~budget:0.0 in
  let total = Instance.total_utility inst0 in
  (match Gmc3.full_cover_cost inst0 with
  | Some c -> Printf.printf "MC3 full-cover budget: %s (total utility %s)\n" (fmt_f c) (fmt_f total)
  | None -> Printf.printf "MC3: not all queries coverable\n");
  let table = Texttable.create [ "budget"; "utility"; "% of total" ] in
  let real_budget = 2000.0 in
  List.iter
    (fun budget ->
      let sol = Solver.solve (Instance.with_budget inst0 budget) in
      Texttable.add_row table
        [ fmt_f budget; fmt_f sol.Solution.utility;
          Printf.sprintf "%.0f%%" (100.0 *. sol.Solution.utility /. total) ])
    [ 500.0; 1000.0; real_budget; 4000.0; 8000.0 ];
  Texttable.print table;
  (* Length mix at the "real" quarterly budget (paper: ~51% from length-2
     queries, ~47% from singletons at budget 2000). *)
  let sol = Solver.solve (Instance.with_budget inst0 real_budget) in
  let state = Cover.create inst0 in
  List.iter (fun c -> ignore (Cover.select_set state c)) sol.Solution.classifiers;
  let by_len = Array.make 8 0.0 in
  List.iter
    (fun qi ->
      let len = Propset.length (Instance.query inst0 qi) in
      by_len.(min len 7) <- by_len.(min len 7) +. Instance.utility inst0 qi)
    (Cover.covered_queries state);
  let covered = sol.Solution.utility in
  Printf.printf "covered-utility mix at budget %s:" (fmt_f real_budget);
  for len = 1 to 7 do
    if by_len.(len) > 0.0 then
      Printf.printf " len%d=%.0f%%" len (100.0 *. by_len.(len) /. covered)
  done;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* End-to-end simulation (6.2's preliminary end-to-end results).        *)
(* ------------------------------------------------------------------ *)

let e2e () =
  header "e2e (6.2): construct selected classifiers, measure result-set growth";
  let params =
    {
      Bcc_catalog.Catalog.num_items = scaled 20_000;
      num_properties = 400;
      props_per_item_lo = 3;
      props_per_item_hi = 8;
      visibility = 0.45;
    }
  in
  let catalog = Bcc_catalog.Catalog.generate ~params ~seed:88 () in
  let report = Bcc_catalog.Pipeline.run catalog ~seed:99 in
  Format.printf "%a@." Bcc_catalog.Pipeline.pp_report report

(* ------------------------------------------------------------------ *)
(* Ablations.                                                           *)
(* ------------------------------------------------------------------ *)

let abl_hks () =
  header "abl-hks: HkS portfolio members and QK solvers";
  let table = Texttable.create [ "graph"; "peel"; "greedy"; "spectral"; "portfolio" ] in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let n = 200 in
      let b = Graph.builder n in
      for v = 0 to n - 1 do
        Graph.set_node_cost b v 1.0
      done;
      for _ = 1 to 1200 do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v then Graph.add_edge b u v (float_of_int (1 + Rng.int rng 9))
      done;
      let g = Graph.build b in
      let inst = Hks.make g ~k:40 in
      let value sel = Hks.value inst sel in
      Texttable.add_row table
        [ Printf.sprintf "rand-%d" seed;
          fmt_f (value (Hks.peel inst));
          fmt_f (value (Hks.greedy_add inst));
          fmt_f (value (Hks.spectral inst));
          fmt_f (value (Hks.solve inst)) ])
    [ 1; 2; 3 ];
  Texttable.print table;
  (* QK: the full A^QK_H vs the Taylor-style procedures on the BCC(2)
     graph derived from the P dataset. *)
  let p = p_instance ~budget:2000.0 in
  let state = Cover.create p in
  let _, qkp = Bcc_core.Decompose.build state ~budget:2000.0 in
  let qinst = qkp.Bcc_core.Decompose.qk in
  let table2 = Texttable.create [ "solver"; "QK value"; "time(s)" ] in
  List.iter
    (fun (name, f) ->
      let sol, t = Timer.time (fun () -> f qinst) in
      Texttable.add_row table2 [ name; fmt_f sol.Qk.value; Printf.sprintf "%.2f" t ])
    [
      ("A^QK_H", fun i -> Qk.solve i);
      ("A^QK_T (full, Lemma 4.6)", Taylor.full);
      ("P1-degree-greedy", Taylor.degree_greedy);
      ("P3-best-star", fun i -> Taylor.best_star i);
      ("P1+P3", Taylor.combined);
    ];
  Texttable.print table2

let abl_mc3 () =
  header "abl-mc3: A^BCC with/without the MC3 local-search step (P dataset)";
  let table = Texttable.create [ "budget"; "with MC3"; "without MC3" ] in
  List.iter
    (fun budget ->
      let inst = p_instance ~budget in
      let w = (Solver.solve inst).Solution.utility in
      let wo =
        (Solver.solve ~options:{ Solver.default_options with mc3_improve = false } inst)
          .Solution.utility
      in
      Texttable.add_row table [ fmt_f budget; fmt_f w; fmt_f wo ])
    [ 500.0; 2000.0 ];
  Texttable.print table

let abl_resid () =
  header "abl-resid: residual rounds and final sweep ablation";
  let table =
    Texttable.create [ "dataset"; "budget"; "full"; "no-residual"; "no-sweep"; "single-round" ]
  in
  let run inst =
    let u options = (Solver.solve ~options inst).Solution.utility in
    let base = Solver.default_options in
    [
      u base;
      u { base with residual_rounds = false };
      u { base with final_sweep = false };
      u { base with residual_rounds = false; final_sweep = false };
    ]
  in
  List.iter
    (fun (name, inst) ->
      match run inst with
      | [ a; b; c; d ] ->
          Texttable.add_row table
            [ name; fmt_f (Instance.budget inst); fmt_f a; fmt_f b; fmt_f c; fmt_f d ]
      | _ -> ())
    [
      ("P", p_instance ~budget:2000.0);
      ("S", s_instance ~num_queries:10_000 ~budget:2500.0 ~seed:12 ());
    ];
  Texttable.print table

let robust () =
  header "robust: S regenerated per run (5 seeds), budget 2500 — mean / std per algorithm";
  let table = Texttable.create [ "algorithm"; "mean utility"; "std"; "wins" ] in
  let seeds = [ 201; 202; 203; 204; 205 ] in
  let results =
    List.map
      (fun seed ->
        let params = { Synthetic.default_params with num_queries = scaled 8000 } in
        let inst = Synthetic.generate ~params ~seed ~budget:2500.0 () in
        [
          ("RAND", rand_avg inst Baselines.Budget);
          ("IG1", (Baselines.ig1 inst Baselines.Budget).Solution.utility);
          ("IG2", (Baselines.ig2 inst Baselines.Budget).Solution.utility);
          ("A^BCC", (Solver.solve inst).Solution.utility);
        ])
      seeds
  in
  let algos = [ "RAND"; "IG1"; "IG2"; "A^BCC" ] in
  let wins = Hashtbl.create 4 in
  List.iter
    (fun per_seed ->
      let best = List.fold_left (fun acc (_, u) -> max acc u) 0.0 per_seed in
      List.iter
        (fun (name, u) ->
          if u >= best -. 1e-9 then
            Hashtbl.replace wins name (1 + Option.value ~default:0 (Hashtbl.find_opt wins name)))
        per_seed)
    results;
  List.iter
    (fun name ->
      let xs =
        Array.of_list (List.map (fun per_seed -> List.assoc name per_seed) results)
      in
      Texttable.add_row table
        [ name; fmt_f (Bcc_util.Stats.mean xs);
          Printf.sprintf "%.0f" (Bcc_util.Stats.stddev xs);
          Printf.sprintf "%d/%d" (Option.value ~default:0 (Hashtbl.find_opt wins name))
            (List.length seeds) ])
    algos;
  Texttable.print table

let e2e_costs () =
  header "e2e-costs (6.2): effect of cost under-estimation (paper: ~6% average)";
  (* Analysts' estimates run ~6% below the actual labelling costs; the
     paper argues this is equivalent to shrinking the budget by the same
     factor.  We solve under estimated costs, re-price the selection at
     the true costs, and drop classifiers (cheapest utility first) until
     the true spend fits the budget. *)
  let inst = p_instance ~budget:2000.0 in
  let rng = Rng.create 777 in
  let noise = Hashtbl.create 256 in
  let true_cost id =
    match Hashtbl.find_opt noise id with
    | Some f -> f
    | None ->
        let f = Instance.cost inst id *. (1.0 +. 0.06 +. Rng.float rng 0.06 -. 0.03) in
        Hashtbl.add noise id f;
        f
  in
  let sol = Solver.solve inst in
  let ids =
    List.filter_map (fun c -> Instance.classifier_id inst c) sol.Solution.classifiers
  in
  let est = sol.Solution.cost in
  let actual = List.fold_left (fun acc id -> acc +. true_cost id) 0.0 ids in
  (* Enforce the budget at true prices: drop the worst utility-per-true-cost
     classifiers until feasible. *)
  let keep = ref ids and spend = ref actual in
  while !spend > Instance.budget inst +. 1e-9 do
    match !keep with
    | [] -> spend := 0.0
    | _ ->
        let worst =
          List.fold_left
            (fun acc id -> match acc with
               | None -> Some id
               | Some b ->
                   let score i = true_cost i in
                   if score id > score b then Some id else acc)
            None !keep
        in
        (match worst with
        | Some id ->
            keep := List.filter (fun x -> x <> id) !keep;
            spend := !spend -. true_cost id
        | None -> ())
  done;
  let realized = Solution.of_ids inst !keep in
  Printf.printf
    "estimated spend %s -> actual %s (%.1f%% over); after enforcing the budget at true prices: utility %s vs planned %s (%.1f%% loss)\n"
    (fmt_f est) (fmt_f actual)
    (100.0 *. (actual -. est) /. est)
    (fmt_f realized.Solution.utility) (fmt_f sol.Solution.utility)
    (100.0 *. (sol.Solution.utility -. realized.Solution.utility) /. sol.Solution.utility)

let ext_partial () =
  header "ext-partial: partial-cover utilities (Section 8 future work)";
  let table =
    Texttable.create [ "credit"; "budget"; "strict A^BCC (credited)"; "partial-aware"; "lift" ]
  in
  let inst =
    Private_like.generate
      ~params:{ Private_like.default_params with num_queries = scaled 1200; num_anchors = 180 }
      ~seed:101 ~budget:0.0 ()
  in
  List.iter
    (fun (name, credit) ->
      List.iter
        (fun budget ->
          let inst = Instance.with_budget inst budget in
          let strict = Solver.solve inst in
          let strict_credited =
            Bcc_core.Partial.credited_of credit inst strict.Solution.classifiers
          in
          let r = Bcc_core.Partial.solve ~credit inst in
          Texttable.add_row table
            [ name; fmt_f budget; fmt_f strict_credited; fmt_f r.Bcc_core.Partial.credited;
              Printf.sprintf "%.1f%%"
                (100.0 *. (r.Bcc_core.Partial.credited -. strict_credited)
                /. max strict_credited 1.0) ])
        [ 200.0; 800.0 ])
    [ ("linear-0.5", Bcc_core.Partial.Linear 0.5); ("threshold-0.5", Bcc_core.Partial.Threshold 0.5) ];
  Texttable.print table

let ext_overlap () =
  header "ext-overlap: overlapping construction costs (Section 8 future work)";
  let table =
    Texttable.create
      [ "beta"; "budget"; "independent A^BCC"; "overlap-aware"; "overlap cost" ]
  in
  let inst =
    Private_like.generate
      ~params:{ Private_like.default_params with num_queries = scaled 1200; num_anchors = 180 }
      ~seed:102 ~budget:0.0 ()
  in
  List.iter
    (fun beta ->
      List.iter
        (fun budget ->
          let inst = Instance.with_budget inst budget in
          let strict = Solver.solve inst in
          let r = Bcc_core.Overlap.solve ~beta inst in
          Texttable.add_row table
            [ Printf.sprintf "%.1f" beta; fmt_f budget; fmt_f strict.Solution.utility;
              fmt_f r.Bcc_core.Overlap.solution.Solution.utility;
              fmt_f r.Bcc_core.Overlap.overlap_cost ])
        [ 200.0; 800.0 ])
    [ 0.2; 0.5 ];
  Texttable.print table

(* ------------------------------------------------------------------ *)
(* incr: incremental pipeline vs warm vs cold over a delta stream.      *)
(* ------------------------------------------------------------------ *)

(* A workload whose overlap graph has many components: each cluster gets
   its own property namespace, so a delta confined to one cluster leaves
   every other cluster's fingerprint (and cached curve) intact. *)
let incr_workload_text ~clusters ~queries_per ~props_per =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "budget %d\n" (clusters * 10));
  let rng = Rng.create 4242 in
  let prop c i = Printf.sprintf "c%dp%d" c i in
  for c = 0 to clusters - 1 do
    for _ = 1 to queries_per do
      let k = 2 + Rng.int rng 2 in
      let props =
        List.init k (fun _ -> prop c (Rng.int rng props_per))
        |> List.sort_uniq compare
      in
      Buffer.add_string buf
        (Printf.sprintf "query %s %d\n" (String.concat ";" props) (1 + Rng.int rng 20))
    done
  done;
  for c = 0 to clusters - 1 do
    for i = 0 to props_per - 1 do
      Buffer.add_string buf (Printf.sprintf "classifier %s %d\n" (prop c i) (1 + (i mod 4)));
      if i + 1 < props_per then
        Buffer.add_string buf
          (Printf.sprintf "classifier %s;%s %d\n" (prop c i) (prop c (i + 1))
             (2 + (i mod 3)))
    done
  done;
  Buffer.contents buf

(* Summary fragment for the --json snapshot, filled in by [incr]. *)
let incr_json = ref ""

let incr () =
  header
    "incr: incremental pipeline vs warm vs cold re-solves over a \
     single-cluster delta stream";
  let module Store = Bcc_store.Store in
  let module Delta = Bcc_store.Delta in
  let ok = function
    | Ok v -> v
    | Error (`Bad msg) -> failwith ("incr: " ^ msg)
    | Error `Not_found -> failwith "incr: workload vanished"
  in
  let clusters = scaled 144 in
  let text =
    incr_workload_text ~clusters ~queries_per:(scaled 40) ~props_per:8
  in
  let mk () =
    let s = Store.create () in
    ignore (ok (Store.put s ~name:"w" (Store.Text text)));
    s
  in
  let incr_store = mk () and warm_store = mk () and cold_store = mk () in
  (* Prime the incremental store's artifact cache and the warm store's
     seed; the first solve is cold everywhere and not scored. *)
  ignore (ok (Store.solve incr_store ~name:"w" ~incremental:true ()));
  ignore (ok (Store.solve warm_store ~name:"w" ()));
  (* Keep at least a few steps even under --quick: the ratio of two
     2-step totals is mostly warm-up noise, and the solvers' occasional
     expensive steps (deterministic, content-driven) only show up past
     the first couple of deltas. *)
  let steps = max 4 (scaled 8) in
  let rng = Rng.create 99 in
  let table =
    Texttable.create
      [ "step"; "cluster"; "incr (ms)"; "warm (ms)"; "cold (ms)"; "reused"; "utility" ]
  in
  let t_incr = ref 0.0 and t_warm = ref 0.0 and t_cold = ref 0.0 in
  let reused = ref 0 and total = ref 0 in
  for step = 1 to steps do
    (* A burst of drift confined to one cluster: several query-utility
       upserts plus a classifier re-price — the single-component delta
       the pipeline is built for. *)
    let c = (step - 1) mod clusters in
    let pick () = Printf.sprintf "c%dp%d" c (Rng.int rng 8) in
    let props () =
      let p1 = pick () and p2 = pick () in
      if p1 = p2 then [ p1 ] else [ p1; p2 ]
    in
    let ops =
      List.init 8 (fun _ -> Delta.Upsert (props (), float_of_int (5 + Rng.int rng 15)))
      @ [ Delta.Set_cost ([ pick () ], float_of_int (1 + Rng.int rng 5)) ]
    in
    List.iter
      (fun s -> ignore (ok (Store.delta s ~name:"w" ops)))
      [ incr_store; warm_store; cold_store ];
    let si, ti =
      Timer.time (fun () -> ok (Store.solve incr_store ~name:"w" ~incremental:true ()))
    in
    let _, tw = Timer.time (fun () -> ok (Store.solve warm_store ~name:"w" ())) in
    let _, tc =
      Timer.time (fun () -> ok (Store.solve cold_store ~name:"w" ~cold:true ()))
    in
    t_incr := !t_incr +. ti;
    t_warm := !t_warm +. tw;
    t_cold := !t_cold +. tc;
    reused := !reused + si.Store.components_reused;
    total := !total + si.Store.components_total;
    Texttable.add_row table
      [
        string_of_int step;
        string_of_int c;
        Printf.sprintf "%.1f" (1000.0 *. ti);
        Printf.sprintf "%.1f" (1000.0 *. tw);
        Printf.sprintf "%.1f" (1000.0 *. tc);
        Printf.sprintf "%d/%d" si.Store.components_reused si.Store.components_total;
        fmt_f si.Store.solution.Solution.utility;
      ]
  done;
  Texttable.print table;
  let frac = if !total = 0 then 0.0 else float_of_int !reused /. float_of_int !total in
  let speedup t = if !t_incr > 0.0 then t /. !t_incr else 0.0 in
  Printf.printf
    "totals: incr %.3fs, warm %.3fs, cold %.3fs -> %.2fx vs warm, %.2fx vs cold; \
     %.0f%% of component curves reused\n"
    !t_incr !t_warm !t_cold (speedup !t_warm) (speedup !t_cold) (100.0 *. frac);
  incr_json :=
    Printf.sprintf
      "{\"incr_s\": %.3f, \"warm_s\": %.3f, \"cold_s\": %.3f, \
       \"speedup_vs_warm\": %.2f, \"speedup_vs_cold\": %.2f, \
       \"reuse_fraction\": %.3f}"
      !t_incr !t_warm !t_cold (speedup !t_warm) (speedup !t_cold) frac

(* ------------------------------------------------------------------ *)
(* contended: single-flight cache + scheduler vs one compute per caller *)
(* ------------------------------------------------------------------ *)

(* Summary fragment for the --json snapshot, filled in by [contended]. *)
let contended_json = ref ""

(* Three tenants fire eight concurrent cold solves each at one shared
   workload, through bccd's serving path: a single-flight cache whose
   leaders pass the fair-share scheduler, so the pile-up behind one
   solve joins it instead of solving again.  The baseline runs the same
   24 solves one after another.  Every caller must get the identical
   solution — sharing buys throughput, never answers. *)
let contended () =
  header
    "contended: 3 tenants x 8 concurrent cold solves of one shared workload \
     — single-flight + scheduler vs one solve per caller";
  let module Store = Bcc_store.Store in
  let module Sched = Bcc_sched.Sched in
  let module Cache = Bcc_server.Cache in
  let ok = function
    | Ok v -> v
    | Error (`Bad msg) -> failwith ("contended: " ^ msg)
    | Error `Not_found -> failwith "contended: workload vanished"
  in
  let text =
    incr_workload_text ~clusters:(scaled 144) ~queries_per:(scaled 40) ~props_per:8
  in
  let store = Store.create () in
  ignore (ok (Store.put store ~name:"w" (Store.Text text)));
  let tenants = [| "alpha"; "beta"; "gamma" |] in
  let per_tenant = 8 in
  let n = Array.length tenants * per_tenant in
  let solve () = (ok (Store.solve store ~name:"w" ~cold:true ())).Store.solution in
  let sched = Sched.create ~concurrency:1 () in
  let flights = Cache.create ~capacity:1 in
  let res_c = Array.make n None in
  let timer = Timer.start () in
  let spawn i =
    Thread.create
      (fun () ->
        let tenant = tenants.(i mod Array.length tenants) in
        match
          Cache.find_or_compute flights ~keep:(fun _ -> false) "w@0/cold" (fun () ->
              Sched.submit sched ~tenant solve)
        with
        | Ok (sol, _) -> res_c.(i) <- Some sol
        | Error _ -> ())
      ()
  in
  (* the first caller leads; the stragglers pile up behind it and join *)
  let first = spawn 0 in
  Thread.delay 0.02;
  let rest = List.init (n - 1) (fun i -> spawn (i + 1)) in
  List.iter Thread.join (first :: rest);
  let wall_c = Timer.elapsed_s timer in
  let stats = Sched.stats sched and joins = Cache.joins flights in
  let timer = Timer.start () in
  let res_u = Array.init n (fun _ -> Some (solve ())) in
  let wall_u = Timer.elapsed_s timer in
  let shape sol =
    ( sol.Solution.utility,
      sol.Solution.cost,
      List.map Propset.to_list sol.Solution.classifiers )
  in
  let identical =
    match res_u.(0) with
    | None -> false
    | Some reference ->
        let r = shape reference in
        Array.for_all
          (function Some s -> shape s = r | None -> false)
          (Array.append res_c res_u)
  in
  let table =
    Texttable.create [ "mode"; "wall(s)"; "solves"; "joined"; "per-tenant done" ]
  in
  let row name wall solves joined (results : _ option array) =
    let done_of t =
      let c = ref 0 in
      Array.iteri
        (fun i r ->
          if tenants.(i mod Array.length tenants) = t && r <> None then c := !c + 1)
        results;
      !c
    in
    Texttable.add_row table
      [
        name;
        Printf.sprintf "%.3f" wall;
        string_of_int solves;
        string_of_int joined;
        String.concat " "
          (Array.to_list
             (Array.map (fun t -> Printf.sprintf "%s=%d/%d" t (done_of t) per_tenant) tenants));
      ]
  in
  row "single-flight" wall_c stats.Sched.batches_total joins res_c;
  row "one per caller" wall_u n 0 res_u;
  Texttable.print table;
  let speedup = if wall_c > 0.0 then wall_u /. wall_c else 0.0 in
  Printf.printf
    "aggregate throughput: %.2fx from single flight (%d callers joined %d \
     solves); identical solutions: %b\n"
    speedup joins stats.Sched.batches_total identical;
  contended_json :=
    Printf.sprintf
      "{\"tenants\": %d, \"requests_per_tenant\": %d, \
       \"coalesced_wall_s\": %.3f, \"uncoalesced_wall_s\": %.3f, \
       \"speedup\": %.2f, \"batches\": %d, \"coalesced_waiters\": %d, \
       \"identical\": %b}"
      (Array.length tenants) per_tenant wall_c wall_u speedup
      stats.Sched.batches_total joins identical

(* ------------------------------------------------------------------ *)
(* Bechamel micro-timings: one Test.make per experiment's kernel.       *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let bb = bb_instance ~budget:160.0 in
  let p_small =
    Private_like.generate
      ~params:{ Private_like.default_params with num_queries = 800; num_anchors = 100 }
      ~seed:1 ~budget:400.0 ()
  in
  let s_small =
    Synthetic.generate
      ~params:{ Synthetic.default_params with num_queries = 1500; num_properties = 800 }
      ~seed:1 ~budget:800.0 ()
  in
  let qk_inst =
    let state = Cover.create p_small in
    let _, qkp = Bcc_core.Decompose.build state ~budget:400.0 in
    qkp.Bcc_core.Decompose.qk
  in
  let hks_inst =
    let g = qk_inst.Qk.graph in
    Hks.make g ~k:(max 2 (Graph.n g / 4))
  in
  let mk name f = Test.make ~name (Staged.stage f) in
  let tests =
    [
      mk "fig3a:solve-bb" (fun () -> ignore (Solver.solve bb));
      mk "fig3b:solve-p" (fun () -> ignore (Solver.solve p_small));
      mk "fig3c:solve-s" (fun () -> ignore (Solver.solve s_small));
      mk "fig3d:brute-vs-abcc" (fun () ->
          ignore (Solver.solve (Instance.restrict p_small [ 0; 1; 2; 3 ])));
      mk "fig3e:prune" (fun () -> ignore (Prune.rule1 ~mode:`Paper s_small));
      mk "fig3f:solve-nopune" (fun () ->
          ignore
            (Solver.solve ~options:{ Solver.default_options with prune = false } s_small));
      mk "fig4a-c:gmc3" (fun () ->
          ignore
            (Gmc3.solve ~search_steps:3 bb
               ~target:(0.25 *. Instance.total_utility bb)));
      mk "fig4d:gmc3-s" (fun () ->
          ignore
            (Gmc3.solve ~search_steps:3 s_small
               ~target:(0.2 *. Instance.total_utility s_small)));
      mk "fig4e-f:ecc" (fun () -> ignore (Ecc.solve p_small));
      mk "insights:mc3-cover" (fun () -> ignore (Gmc3.full_cover_cost bb));
      mk "abl-hks:portfolio" (fun () -> ignore (Hks.solve hks_inst));
      mk "abl-hks:qk" (fun () -> ignore (Qk.solve qk_inst));
      mk "e2e:pipeline-kernel" (fun () ->
          let catalog =
            Bcc_catalog.Catalog.generate
              ~params:
                {
                  Bcc_catalog.Catalog.num_items = 1000;
                  num_properties = 80;
                  props_per_item_lo = 3;
                  props_per_item_hi = 6;
                  visibility = 0.4;
                }
              ~seed:1 ()
          in
          ignore (Bcc_catalog.Pipeline.instance_of_catalog catalog ~seed:2));
    ]
  in
  let test = Test.make_grouped ~name:"bcc" ~fmt:"%s %s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg [ clock ] test in
  let results = Analyze.all ols clock raw in
  header "bechamel micro-timings (monotonic clock, ns per run)";
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> Printf.printf "%-32s %14.0f ns\n" name est
      | _ -> Printf.printf "%-32s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Driver.                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig3a", fig3a);
    ("fig3b", fig3b);
    ("fig3c", fig3c);
    ("fig3d", fig3d);
    ("fig3e", fig3ef);
    ("fig3f", fig3ef);
    ("fig4a", fig4a);
    ("fig4b", fig4b);
    ("fig4c", fig4c);
    ("fig4d", fig4d);
    ("fig4e", fig4e);
    ("fig4f", fig4f);
    ("insights", insights);
    ("e2e", e2e);
    ("e2e-costs", e2e_costs);
    ("robust", robust);
    ("abl-hks", abl_hks);
    ("abl-mc3", abl_mc3);
    ("abl-resid", abl_resid);
    ("ext-partial", ext_partial);
    ("ext-overlap", ext_overlap);
    ("incr", incr);
    ("contended", contended);
  ]

(* Anytime curves (with --json): incumbent updates are recorded under
   the experiment running at the time, timestamps rebased to the
   experiment start.  The raw events are kept — an experiment runs many
   solves (drift-step loops, warm baselines, parallel sub-solves), and
   extracting one curve from the merged stream produced the BENCH_9
   corruption (utility sawtoothing back to 0.0 whenever another solve
   started), so curve extraction is deferred to
   [Progress.solve_curves], which keys strictly by correlation id; the
   experiment's representative curve is its richest single-solve curve.
   Events arrive from any engine worker domain, so the table is
   mutex-protected; collection is observation-only and leaves every
   experiment's output byte-identical (the solver's determinism
   contract with events on). *)
let anytime_lock = Mutex.create ()

let anytime : (string, Bcc_obs.Event.t list ref) Hashtbl.t = Hashtbl.create 16

let anytime_current = ref ""
let anytime_t0 = ref 0.0
let anytime_cap = 2048

let install_anytime_sink () =
  Bcc_obs.Event.set_enabled true;
  Bcc_obs.Event.add_sink ~name:"bench-anytime" (fun e ->
      if e.Bcc_obs.Event.name = Bcc_obs.Progress.incumbent_event then begin
        Mutex.lock anytime_lock;
        (let name = !anytime_current in
         if name <> "" then begin
           let cell =
             match Hashtbl.find_opt anytime name with
             | Some c -> c
             | None ->
                 let c = ref [] in
                 Hashtbl.add anytime name c;
                 c
           in
           if List.length !cell < anytime_cap then
             cell :=
               { e with Bcc_obs.Event.ts_s = e.Bcc_obs.Event.ts_s -. !anytime_t0 }
               :: !cell
         end);
        Mutex.unlock anytime_lock
      end)

let anytime_begin name =
  Mutex.lock anytime_lock;
  anytime_current := name;
  anytime_t0 := Timer.now_s ();
  Mutex.unlock anytime_lock

let anytime_end () =
  Mutex.lock anytime_lock;
  anytime_current := "";
  Mutex.unlock anytime_lock

let anytime_json name =
  let events =
    Mutex.lock anytime_lock;
    let evs =
      match Hashtbl.find_opt anytime name with Some c -> List.rev !c | None -> []
    in
    Mutex.unlock anytime_lock;
    evs
  in
  (* The experiment's representative curve: of the per-correlation-id
     solve curves, the one with the most samples (ties: the earlier
     solve) — the experiment's dominant solve. *)
  let pts =
    List.fold_left
      (fun best (_, pts) ->
        if List.length pts > List.length best then pts else best)
      []
      (Bcc_obs.Progress.solve_curves events)
  in
  (* Dedupe identical adjacent samples at emission: t and u are
     quantized by the format below, so samples distinct in memory can
     still render identically and bloat the snapshot. *)
  let rendered =
    List.map (fun (t, u) -> Printf.sprintf "{\"t\": %.3f, \"u\": %.1f}" t u) pts
  in
  let rec dedup = function
    | a :: (b :: _ as rest) -> if a = b then dedup rest else a :: dedup rest
    | tail -> tail
  in
  "[" ^ String.concat ", " (dedup rendered) ^ "]"

(* A solver-portfolio-heavy kernel for the --json speedup probe: the
   same instance solved at 1 job and at the requested job count, timed,
   and checked for identical output (the engine's determinism
   contract). *)
let parallel_probe ~jobs =
  let inst = s_instance ~num_queries:4000 ~budget:2500.0 ~seed:3003 () in
  let timed n =
    Engine.set_default_jobs n;
    Timer.time (fun () -> Solver.solve inst)
  in
  let sol1, t1 = timed 1 in
  let soln, tn = timed jobs in
  let identical =
    sol1.Solution.utility = soln.Solution.utility
    && sol1.Solution.cost = soln.Solution.cost
    && sol1.Solution.classifiers = soln.Solution.classifiers
  in
  (t1, tn, identical)

let () =
  let trace_file = ref None in
  let json_file = ref None in
  let profile = ref false in
  let jobs = ref 1 in
  (* A loop rather than List.filter: --trace/--json/--jobs consume a value. *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        parse acc rest
    | "--profile" :: rest ->
        profile := true;
        parse acc rest
    | "--trace" :: file :: rest ->
        trace_file := Some file;
        parse acc rest
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse acc rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n ->
            jobs := max 1 n;
            parse acc rest
        | None ->
            prerr_endline ("--jobs needs an integer, got " ^ n);
            exit 2)
    | [ ("--trace" | "--json" | "--jobs") ] ->
        prerr_endline "--trace/--json/--jobs need an argument";
        exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  Engine.set_default_jobs !jobs;
  if !json_file <> None then install_anytime_sink ();
  if !trace_file <> None then Bcc_obs.Trace.set_tracing ~capacity:65_536 true;
  if !profile then Bcc_obs.Trace.set_profiling true;
  let timings = ref [] in
  let finish ~total_s () =
    (match !trace_file with
    | Some file ->
        let oc = open_out file in
        output_string oc (Bcc_obs.Trace.chrome_json (Bcc_obs.Trace.spans ()));
        close_out oc;
        Printf.printf "wrote trace to %s\n%!" file
    | None -> ());
    if !profile then print_string (Bcc_obs.Stage.summary ());
    match !json_file with
    | None -> ()
    | Some file ->
        let parallel =
          if !jobs <= 1 then ""
          else begin
            let t1, tn, identical = parallel_probe ~jobs:!jobs in
            Printf.sprintf
              ",\n  \"parallel\": {\"jobs_1_s\": %.3f, \"jobs_%d_s\": %.3f, \
               \"speedup\": %.2f, \"identical\": %b}"
              t1 !jobs tn
              (if tn > 0.0 then t1 /. tn else 0.0)
              identical
          end
        in
        let incremental =
          if !incr_json = "" then ""
          else Printf.sprintf ",\n  \"incremental\": %s" !incr_json
        in
        let contended_frag =
          if !contended_json = "" then ""
          else Printf.sprintf ",\n  \"contended\": %s" !contended_json
        in
        let rows =
          List.rev_map
            (fun (name, t) ->
              Printf.sprintf "    {\"name\": %S, \"seconds\": %.3f, \"anytime\": %s}"
                name t (anytime_json name))
            !timings
        in
        let oc = open_out file in
        Printf.fprintf oc
          "{\n  \"jobs\": %d,\n  \"total_s\": %.3f,\n  \"experiments\": [\n%s\n  ]%s%s%s\n}\n"
          !jobs total_s
          (String.concat ",\n" rows)
          parallel incremental contended_frag;
        close_out oc;
        Printf.printf "wrote timings to %s\n%!" file
  in
  if List.mem "--bechamel" args then bechamel_suite ()
  else begin
    let selected = if args = [] then List.map fst experiments else args in
    (* fig3e and fig3f share one experiment; avoid running it twice. *)
    let canonical name = if name = "fig3f" then "fig3e" else name in
    let seen = Hashtbl.create 8 in
    let total_timer = Timer.start () in
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f ->
            let key = canonical name in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              anytime_begin name;
              let (), t = Timer.time f in
              anytime_end ();
              timings := (name, t) :: !timings;
              Printf.printf "[%s: %.1fs]\n%!" name t
            end
        | None -> Printf.printf "unknown experiment: %s\n%!" name)
      selected;
    let total_s = Timer.elapsed_s total_timer in
    Printf.printf "\ntotal: %.1fs\n" total_s;
    finish ~total_s ()
  end
