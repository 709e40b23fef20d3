(* Tests for the dataset generators (shape-matched to Section 6.1's
   published statistics) and instance serialization. *)

module Instance = Bcc_core.Instance
module Propset = Bcc_core.Propset
module Solution = Bcc_core.Solution
module Synthetic = Bcc_data.Synthetic
module Bestbuy = Bcc_data.Bestbuy
module Private_like = Bcc_data.Private_like
module Workload_stats = Bcc_data.Workload_stats
module Io = Bcc_data.Io

let within name lo hi x =
  Alcotest.(check bool) (Printf.sprintf "%s: %.3f in [%.3f, %.3f]" name x lo hi) true
    (x >= lo && x <= hi)

let synthetic_shape () =
  (* Lengths are drawn as 1/2^i pre-merge; duplicate singleton queries
     merge (4000 draws over 10K properties keep ~3300 distinct), exactly
     as duplicate query strings merge in a real log. *)
  let params = { Synthetic.default_params with num_queries = 8000 } in
  let inst = Synthetic.generate ~params ~seed:1 ~budget:1000.0 () in
  let stats = Workload_stats.compute inst in
  Alcotest.(check bool) "most queries survive merging" true
    (stats.Workload_stats.num_queries > 7000);
  within "length-1 fraction (1/2 pre-merge)" 0.38 0.55 stats.Workload_stats.length_fractions.(0);
  within "length-2 fraction (1/4 pre-merge)" 0.20 0.33 stats.Workload_stats.length_fractions.(1);
  Alcotest.(check int) "capped at 6" 6 stats.Workload_stats.max_length;
  within "avg cost ~25" 20.0 30.0 stats.Workload_stats.avg_cost;
  (* Utilities at least 1 (merged duplicates sum, so no upper bound). *)
  for qi = 0 to Instance.num_queries inst - 1 do
    if Instance.utility inst qi < 1.0 then Alcotest.fail "utility below range"
  done

let synthetic_deterministic () =
  let params = { Synthetic.default_params with num_queries = 500; num_properties = 200 } in
  let a = Synthetic.generate ~params ~seed:7 ~budget:100.0 () in
  let b = Synthetic.generate ~params ~seed:7 ~budget:100.0 () in
  Alcotest.(check int) "same query count" (Instance.num_queries a) (Instance.num_queries b);
  Alcotest.(check (float 1e-9)) "same total utility" (Instance.total_utility a)
    (Instance.total_utility b);
  let c = Synthetic.generate ~params ~seed:8 ~budget:100.0 () in
  Alcotest.(check bool) "different seed differs" true
    (Instance.total_utility a <> Instance.total_utility c)

let synthetic_cost_oracle_stable () =
  let params = { Synthetic.default_params with num_queries = 300; num_properties = 100 } in
  let inst = Synthetic.generate ~params ~seed:3 ~budget:100.0 () in
  (* The same classifier set must get the same cost when asked twice. *)
  for id = 0 to min 50 (Instance.num_classifiers inst - 1) do
    let c = Instance.classifier inst id in
    Alcotest.(check (float 1e-12)) "stable cost" (Instance.cost inst id)
      (Instance.cost_of inst c)
  done

let bestbuy_shape () =
  let inst = Bestbuy.generate ~seed:2 ~budget:100.0 () in
  let stats = Workload_stats.compute inst in
  within "length-1 fraction (65% pre-merge)" 0.45 0.72 stats.Workload_stats.length_fractions.(0);
  within "avg length ~1.4" 1.20 1.65 stats.Workload_stats.avg_length;
  Alcotest.(check bool) ">= 95% length <= 2" true
    (stats.Workload_stats.length_fractions.(0) +. stats.Workload_stats.length_fractions.(1)
    >= 0.92);
  Alcotest.(check (float 1e-9)) "uniform costs" 1.0 stats.Workload_stats.avg_cost;
  Alcotest.(check bool) "~725 properties" true
    (stats.Workload_stats.num_properties <= 725)

let private_shape () =
  let inst = Private_like.generate ~seed:5 ~budget:2000.0 () in
  let stats = Workload_stats.compute inst in
  Alcotest.(check bool) "thousands of distinct queries" true
    (stats.Workload_stats.num_queries > 2500);
  within "length-1 fraction (55% pre-merge; merging collapses popular singletons)" 0.25
    0.68 stats.Workload_stats.length_fractions.(0);
  Alcotest.(check bool) ">= 78% length <= 2" true
    (stats.Workload_stats.length_fractions.(0) +. stats.Workload_stats.length_fractions.(1)
    >= 0.78);
  Alcotest.(check bool) "max length 5" true (stats.Workload_stats.max_length <= 5);
  within "avg classifier cost ~8" 4.0 14.0 stats.Workload_stats.avg_cost;
  Alcotest.(check bool) "some free classifiers" true
    (stats.Workload_stats.zero_cost_classifiers > 0);
  (* Popular-subquery property: singleton subqueries of anchors exist. *)
  let has_singleton_of_anchor = ref false in
  for qi = 0 to Instance.num_queries inst - 1 do
    let q = Instance.query inst qi in
    if Propset.length q >= 2 then
      Propset.iter
        (fun p ->
          for qj = 0 to Instance.num_queries inst - 1 do
            if Propset.equal (Instance.query inst qj) (Propset.singleton p) then
              has_singleton_of_anchor := true
          done)
        q
  done;
  Alcotest.(check bool) "anchors come with singleton subqueries" true !has_singleton_of_anchor

let io_roundtrip () =
  let inst = Fixtures.figure1 ~budget:4.0 in
  let path = Filename.temp_file "bcc" ".inst" in
  Io.save path inst;
  let loaded = Io.load path in
  Sys.remove path;
  Alcotest.(check int) "queries preserved" (Instance.num_queries inst)
    (Instance.num_queries loaded);
  Alcotest.(check (float 1e-6)) "budget preserved" (Instance.budget inst)
    (Instance.budget loaded);
  Alcotest.(check (float 1e-6)) "total utility preserved" (Instance.total_utility inst)
    (Instance.total_utility loaded);
  Alcotest.(check int) "classifier universe preserved" (Instance.num_classifiers inst)
    (Instance.num_classifiers loaded);
  (* Solving the loaded instance gives the same optimum. *)
  let a = Bcc_core.Exact.solve inst and b = Bcc_core.Exact.solve loaded in
  Alcotest.(check (float 1e-6)) "same optimum" a.Solution.utility b.Solution.utility

let io_rejects_malformed () =
  let path = Filename.temp_file "bcc" ".inst" in
  let oc = open_out path in
  output_string oc "garbage line here\n";
  close_out oc;
  Alcotest.(check bool) "malformed file raises" true
    (try
       ignore (Io.load path);
       Sys.remove path;
       false
     with Failure _ ->
       Sys.remove path;
       true)

(* A query past Instance.max_query_length is a [Failure] at load time,
   not an [Invalid_argument] out of Instance.create. *)
let io_rejects_long_query () =
  let text n =
    Printf.sprintf "budget 1\nquery %s 1\n"
      (String.concat ";" (List.init n (Printf.sprintf "p%d")))
  in
  Alcotest.(check int) "16 properties load" 1
    (Instance.num_queries (Io.load_string (text 16)));
  match Io.load_string (text 17) with
  | _ -> Alcotest.fail "17 properties loaded"
  | exception Failure msg ->
      Alcotest.(check bool) "names the limit" true
        (String.starts_with ~prefix:"Io.load: more than 16 properties" msg)

let costs_oracles () =
  let module Costs = Bcc_data.Costs in
  let module Rng = Bcc_util.Rng in
  let ps = Fixtures.ps in
  (* hashed_uniform: in range, deterministic. *)
  for i = 0 to 50 do
    let c = Costs.hashed_uniform ~seed:3 ~lo:0.0 ~hi:50.0 (ps [ i; i + 1 ]) in
    if c < 0.0 || c > 50.0 then Alcotest.fail "hashed_uniform out of range";
    Alcotest.(check (float 1e-12)) "deterministic" c
      (Costs.hashed_uniform ~seed:3 ~lo:0.0 ~hi:50.0 (ps [ i; i + 1 ]))
  done;
  (* hashed_skewed: capped, mean in the right ballpark. *)
  let xs =
    Array.init 3000 (fun i -> Costs.hashed_skewed ~seed:5 ~mean:8.0 ~cap:50.0 (ps [ i ]))
  in
  Array.iter (fun x -> if x < 0.0 || x > 50.0 then Alcotest.fail "skewed out of range") xs;
  let mean = Bcc_util.Stats.mean xs in
  Alcotest.(check bool) (Printf.sprintf "skewed mean %.1f near 8" mean) true
    (mean > 5.0 && mean < 11.0);
  (* subadditive: longer classifiers never cost more than the discounted
     envelope of their parts. *)
  let singleton = Costs.hashed_uniform ~seed:7 ~lo:1.0 ~hi:20.0 in
  let sub = Costs.subadditive ~seed:9 ~singleton ~discount:0.6 in
  let rng = Rng.create 11 in
  for _ = 1 to 100 do
    let a = Rng.int rng 50 and b = 50 + Rng.int rng 50 in
    let pair = ps [ a; b ] in
    let parts = singleton (ps [ a ]) +. singleton (ps [ b ]) in
    let c = sub pair in
    (* envelope: discount 0.6 x jitter <= 1.2 = 0.72, plus rounding *)
    if c > (0.72 *. parts) +. 0.5 +. 1e-9 then
      Alcotest.failf "subadditive pair %f above the jittered envelope %f" c (0.72 *. parts)
  done

let solution_roundtrip () =
  let inst = Fixtures.figure1 ~budget:11.0 in
  let sol = Bcc_core.Solver.solve inst in
  let path = Filename.temp_file "bccsol" ".sol" in
  Io.save_solution path inst sol;
  let loaded = Io.load_solution inst path in
  Sys.remove path;
  Alcotest.(check (float 1e-9)) "utility preserved" sol.Solution.utility
    loaded.Solution.utility;
  Alcotest.(check (float 1e-9)) "cost preserved" sol.Solution.cost loaded.Solution.cost;
  Alcotest.(check int) "classifiers preserved"
    (List.length sol.Solution.classifiers)
    (List.length loaded.Solution.classifiers)

let solution_load_rejects_foreign () =
  let inst = Fixtures.figure1 ~budget:11.0 in
  let path = Filename.temp_file "bccsol" ".sol" in
  let oc = open_out path in
  output_string oc "select 0;1 5\n";
  (* XY has infinite cost: not in the universe *)
  close_out oc;
  Alcotest.(check bool) "foreign classifier rejected" true
    (try
       ignore (Io.load_solution inst path);
       Sys.remove path;
       false
     with Failure _ ->
       Sys.remove path;
       true)

(* qcheck: Io.load_string (Io.to_string inst) reconstructs inst — names,
   budget, utilities and costs preserved within float tolerance. *)
let io_string_roundtrip_prop =
  let gen_instance =
    QCheck.Gen.(
      let prop_id = 0 -- 7 in
      let propset = map Propset.of_list (list_size (1 -- 4) prop_id) in
      let utility = map (fun u -> float_of_int u /. 4.0) (1 -- 200) in
      triple
        (list_size (1 -- 12) (pair propset utility))
        (map (fun b -> float_of_int b /. 2.0) (0 -- 100))
        (0 -- 1000))
  in
  let make (queries, budget, cost_seed) =
    let names = Bcc_core.Symtab.create () in
    for p = 0 to 7 do
      ignore (Bcc_core.Symtab.intern names (Printf.sprintf "p%d" p))
    done;
    (* Deterministic pseudo-random cost oracle; ~1/7 classifiers priced
       infinity exercises universe-membership round-tripping. *)
    let cost c =
      let h = Propset.hash c + cost_seed in
      if h mod 7 = 0 then infinity else 0.5 +. float_of_int (abs h mod 400) /. 8.0
    in
    Instance.create ~name:"prop" ~names ~budget
      ~queries:(Array.of_list queries) ~cost ()
  in
  QCheck.Test.make ~name:"Io.load_string (Io.to_string inst) = inst" ~count:200
    (QCheck.make gen_instance ~print:(fun args ->
         Bcc_data.Io.to_string (make args)))
    (fun args ->
      let inst = make args in
      let loaded = Bcc_data.Io.load_string (Bcc_data.Io.to_string inst) in
      let close a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a) in
      let tbl_of i = Option.get (Instance.names i) in
      (* queries matched by property-name sets, utilities compared *)
      let key i qi =
        Instance.query i qi |> Propset.to_list
        |> List.map (Bcc_core.Symtab.name (tbl_of i))
        |> List.sort String.compare |> String.concat ";"
      in
      let utilities i =
        List.init (Instance.num_queries i) (fun qi -> (key i qi, Instance.utility i qi))
        |> List.sort compare
      in
      let costs i =
        List.init (Instance.num_classifiers i) (fun id ->
            ( Instance.classifier i id |> Propset.to_list
              |> List.map (Bcc_core.Symtab.name (tbl_of i))
              |> List.sort String.compare |> String.concat ";",
              Instance.cost i id ))
        |> List.sort compare
      in
      close (Instance.budget inst) (Instance.budget loaded)
      && Instance.num_queries inst = Instance.num_queries loaded
      && Instance.num_classifiers inst = Instance.num_classifiers loaded
      && List.for_all2
           (fun (k1, u1) (k2, u2) -> k1 = k2 && close u1 u2)
           (utilities inst) (utilities loaded)
      && List.for_all2
           (fun (k1, c1) (k2, c2) -> k1 = k2 && close c1 c2)
           (costs inst) (costs loaded))

let io_tolerant_whitespace () =
  (* Runs of spaces, tabs and CRLF line endings all parse (instance
     bodies arrive over HTTP where CRLF is the norm). *)
  let text =
    "# comment\r\nbudget   4\r\nquery a;b\t\t8\r\nquery  a  1\r\n"
    ^ "classifier a  5\r\nclassifier b\t3\r\nclassifier a;b 3\r\n"
  in
  let inst = Io.load_string text in
  Alcotest.(check (float 1e-9)) "budget" 4.0 (Instance.budget inst);
  Alcotest.(check int) "queries" 2 (Instance.num_queries inst);
  Alcotest.(check int) "classifiers" 3 (Instance.num_classifiers inst);
  let path = Filename.temp_file "bcc_crlf" ".inst" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  let from_file = Io.load path in
  Sys.remove path;
  Alcotest.(check int) "file load agrees" (Instance.num_classifiers inst)
    (Instance.num_classifiers from_file)

let suite =
  [
    Alcotest.test_case "synthetic shape" `Slow synthetic_shape;
    Alcotest.test_case "synthetic determinism" `Quick synthetic_deterministic;
    Alcotest.test_case "synthetic cost oracle stability" `Quick synthetic_cost_oracle_stable;
    Alcotest.test_case "bestbuy shape" `Quick bestbuy_shape;
    Alcotest.test_case "private-like shape" `Slow private_shape;
    Alcotest.test_case "io roundtrip" `Quick io_roundtrip;
    QCheck_alcotest.to_alcotest io_string_roundtrip_prop;
    Alcotest.test_case "io tolerates runs of blanks and CRLF" `Quick io_tolerant_whitespace;
    Alcotest.test_case "io rejects malformed input" `Quick io_rejects_malformed;
    Alcotest.test_case "io rejects a query over 16 properties" `Quick io_rejects_long_query;
    Alcotest.test_case "cost oracles" `Quick costs_oracles;
    Alcotest.test_case "solution roundtrip" `Quick solution_roundtrip;
    Alcotest.test_case "solution load rejects foreign classifier" `Quick
      solution_load_rejects_foreign;
  ]
