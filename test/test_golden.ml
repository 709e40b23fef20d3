(* Golden answers: the monolithic solve and the cold pipeline solve of a
   fixed set of instances, checked against answers recorded in
   golden_answers.txt.  Each line is

     <case> <path> <utility> <cost> <classifier> ...

   with floats printed %.17g and the classifiers' property names joined
   by ';', sorted.  Every case runs at 1 and 2 engine jobs and must give
   the recorded answer at both.  A change that claims bit-identical
   answers (an indexing or allocation change in the solver's hot path)
   must leave this file untouched; a change that means to move answers
   re-records it from [answers] over [cases]. *)

module Instance = Bcc_core.Instance
module Propset = Bcc_core.Propset
module Solution = Bcc_core.Solution
module Solver = Bcc_core.Solver
module Solve_ctx = Bcc_core.Solve_ctx
module Pipeline = Bcc_core.Pipeline
module Engine = Bcc_engine.Engine
module Io = Bcc_data.Io
module Rng = Bcc_util.Rng

(* perfbench/drift.ml's 144-cluster workload (same generator seed and
   draw order), rendered the way that bench loads it. *)
let clustered_text () =
  let clusters = 144 and queries_per = 40 and props_per = 8 in
  let rng = Rng.create 4242 in
  let prop c i = Printf.sprintf "c%dp%d" c i in
  let key names = String.concat ";" (List.sort_uniq compare names) in
  let queries = Hashtbl.create 8192 and costs = Hashtbl.create 4096 in
  for c = 0 to clusters - 1 do
    for _ = 1 to queries_per do
      let k = 2 + Rng.int rng 2 in
      let names = List.init k (fun _ -> prop c (Rng.int rng props_per)) in
      let k = key names and u = float_of_int (1 + Rng.int rng 20) in
      Hashtbl.replace queries k (u +. Option.value ~default:0.0 (Hashtbl.find_opt queries k))
    done;
    for i = 0 to props_per - 1 do
      Hashtbl.replace costs (prop c i) (float_of_int (1 + (i mod 4)));
      if i + 1 < props_per then
        Hashtbl.replace costs (key [ prop c i; prop c (i + 1) ]) (float_of_int (2 + (i mod 3)))
    done
  done;
  let b = Buffer.create (1 lsl 18) in
  Printf.bprintf b "budget %d\n" (clusters * 10);
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  List.iter (fun (k, u) -> Printf.bprintf b "query %s %.17g\n" k u) (sorted queries);
  List.iter (fun (k, c) -> Printf.bprintf b "classifier %s %.17g\n" k c) (sorted costs);
  Buffer.contents b

let cases () =
  let clustered = lazy (Io.load_string ~name:"clustered" (clustered_text ())) in
  let s5k =
    lazy
      (Bcc_data.Synthetic.generate
         ~params:{ Bcc_data.Synthetic.default_params with num_queries = 5000 }
         ~seed:33 ~budget:200.0 ())
  in
  (* P-class at a third of the paper's size, so the suite stays quick. *)
  let p =
    lazy
      (Bcc_data.Private_like.generate
         ~params:
           { Bcc_data.Private_like.default_params with
             num_queries = 1500; num_properties = 600; num_anchors = 180 }
         ~seed:22 ~budget:300.0 ())
  in
  [
    ("figure1-3", lazy (Fixtures.figure1 ~budget:3.0));
    ("figure1-4", lazy (Fixtures.figure1 ~budget:4.0));
    ("figure1-11", lazy (Fixtures.figure1 ~budget:11.0));
    ("figure2-2", lazy (Fixtures.figure2 ~budget:2.0));
    ("bb7-80", lazy (Bcc_data.Bestbuy.generate ~seed:7 ~budget:80.0 ()));
    ("p22-300", p);
    ("s5k33-200", s5k);
    ("clustered-1440", clustered);
    ("clustered-720", lazy (Instance.with_budget (Lazy.force clustered) 720.0));
  ]

let answer_line case path inst (sol : Solution.t) =
  let names = Instance.names inst in
  let cls =
    List.sort compare
      (List.map
         (fun c ->
           String.concat ";"
             (List.map
                (fun p ->
                  match names with
                  | Some tbl -> Bcc_core.Symtab.name tbl p
                  | None -> string_of_int p)
                (Propset.to_list c)))
         sol.Solution.classifiers)
  in
  String.concat " "
    ([ case; path; Printf.sprintf "%.17g" sol.Solution.utility;
       Printf.sprintf "%.17g" sol.Solution.cost ]
    @ cls)

let at_jobs jobs f =
  Engine.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Engine.set_default_jobs 1) f

(* Both paths' answer lines for one case. *)
let answers case inst =
  let mono = Solver.solve inst in
  let pipe = (Pipeline.solve (Solve_ctx.make ()) inst).Pipeline.outcome in
  if pipe.Solver.degraded then Alcotest.failf "%s: pipeline solve degraded" case;
  [ answer_line case "mono" inst mono; answer_line case "pipeline" inst pipe.Solver.solution ]

(* Next to the test binary under [dune runtest]; under the source root
   when the binary is run with [dune exec]. *)
let recorded () =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) "golden_answers.txt" in
  let path = if Sys.file_exists beside then beside else "test/golden_answers.txt" in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let golden_case case inst () =
  let inst = Lazy.force inst in
  let prefix = case ^ " " in
  let expected = List.filter (String.starts_with ~prefix) (recorded ()) in
  Alcotest.(check int) "recorded lines" 2 (List.length expected);
  List.iter
    (fun jobs ->
      let got = at_jobs jobs (fun () -> answers case inst) in
      List.iter2
        (fun e g -> Alcotest.(check string) (Printf.sprintf "jobs %d" jobs) e g)
        expected got)
    [ 1; 2 ]

let suite =
  List.map
    (fun (case, inst) -> Alcotest.test_case case `Slow (golden_case case inst))
    (cases ())
