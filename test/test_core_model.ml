(* Tests for the core model: property sets, instances, coverage
   semantics, cover DP, decomposition and pruning. *)

module Propset = Bcc_core.Propset
module Symtab = Bcc_core.Symtab
module Instance = Bcc_core.Instance
module Cover = Bcc_core.Cover
module Covers = Bcc_core.Covers
module Solution = Bcc_core.Solution
module Decompose = Bcc_core.Decompose
module Prune = Bcc_core.Prune
module Solver = Bcc_core.Solver
module Rng = Bcc_util.Rng

let qtest = QCheck_alcotest.to_alcotest
let ps = Fixtures.ps

(* --- Propset --- *)

let propset_gen =
  QCheck.map (fun l -> Propset.of_list (List.map abs l)) QCheck.(list_of_size Gen.(0 -- 8) small_int)

let propset_union_commutes =
  QCheck.Test.make ~name:"union commutes and contains both" ~count:200
    (QCheck.pair propset_gen propset_gen) (fun (a, b) ->
      let u = Propset.union a b in
      Propset.equal u (Propset.union b a) && Propset.subset a u && Propset.subset b u)

let propset_inter_diff =
  QCheck.Test.make ~name:"inter + diff partition the set" ~count:200
    (QCheck.pair propset_gen propset_gen) (fun (a, b) ->
      let i = Propset.inter a b and d = Propset.diff a b in
      Propset.equal a (Propset.union i d) && Propset.length i + Propset.length d = Propset.length a)

let propset_subset_reflexive =
  QCheck.Test.make ~name:"subset is reflexive and respects union" ~count:200 propset_gen
    (fun a -> Propset.subset a a && Propset.subset Propset.empty a)

let propset_sorted_dedup () =
  let s = Propset.of_list [ 3; 1; 3; 2; 1 ] in
  Alcotest.(check (list int)) "sorted, unique" [ 1; 2; 3 ] (Propset.to_list s);
  Alcotest.(check int) "length" 3 (Propset.length s)

let propset_subsets_count =
  QCheck.Test.make ~name:"a set of n properties has 2^n - 1 subsets" ~count:50
    (QCheck.map (fun l -> Propset.of_list (List.map (fun x -> abs x mod 20) l))
       QCheck.(list_of_size Gen.(0 -- 6) small_int))
    (fun s ->
      let n = Propset.length s in
      List.length (Propset.subsets s) = (1 lsl n) - 1
      && List.for_all (fun sub -> Propset.subset sub s) (Propset.subsets s))

let propset_positions () =
  let q = ps [ 10; 20; 30 ] in
  Alcotest.(check int) "positions of {10,30}" 0b101 (Propset.positions_in (ps [ 10; 30 ]) q);
  Alcotest.(check int) "foreign members ignored" 0b010 (Propset.positions_in (ps [ 20; 99 ]) q)

let propset_pp_names () =
  let tbl = Symtab.create () in
  let w = Symtab.intern tbl "wooden" in
  let t = Symtab.intern tbl "table" in
  (* ids follow interning order, so "wooden" (id 0) prints first *)
  Alcotest.(check string) "named rendering" "{wooden, table}"
    (Propset.to_string ~names:tbl (ps [ t; w ]))

(* --- Instance --- *)

let instance_merges_duplicates () =
  let queries = [| (ps [ 0; 1 ], 2.0); (ps [ 1; 0 ], 3.0); (ps [ 2 ], 1.0) |] in
  let inst = Instance.create ~budget:10.0 ~queries ~cost:(fun _ -> 1.0) () in
  Alcotest.(check int) "two distinct queries" 2 (Instance.num_queries inst);
  Alcotest.(check (float 1e-9)) "utilities merged" 6.0 (Instance.total_utility inst)

let instance_classifier_universe () =
  (* Section 2.1's example: P = {x,y,z}, Q = {xy, xz} => CL excludes YZ. *)
  let inst =
    Instance.create ~budget:10.0
      ~queries:[| (ps [ 0; 1 ], 1.0); (ps [ 0; 2 ], 1.0) |]
      ~cost:(fun _ -> 1.0) ()
  in
  Alcotest.(check int) "CL = {X, Y, Z, XY, XZ}" 5 (Instance.num_classifiers inst);
  Alcotest.(check (option int)) "YZ is not relevant" None
    (Instance.classifier_id inst (ps [ 1; 2 ]));
  Alcotest.(check int) "n = 3 properties" 3 (Instance.num_properties inst)

let instance_restrict () =
  let inst = Fixtures.figure1 ~budget:11.0 in
  let sub = Instance.restrict inst [ 0 ] in
  Alcotest.(check int) "one query kept" 1 (Instance.num_queries sub);
  Alcotest.(check (float 1e-9)) "same budget" 11.0 (Instance.budget sub);
  (* Costs inherited from the parent's oracle. *)
  let q = Instance.query sub 0 in
  Alcotest.(check (float 1e-9)) "cost inherited" (Instance.cost_of inst q)
    (Instance.cost_of sub q)

let instance_rejects_negative () =
  Alcotest.check_raises "negative utility"
    (Invalid_argument "Instance.create: negative utility") (fun () ->
      ignore
        (Instance.create ~budget:1.0 ~queries:[| (ps [ 0 ], -1.0) |] ~cost:(fun _ -> 1.0) ()))

let containment_index_sound =
  QCheck.Test.make ~name:"containment index lists exactly the superset queries" ~count:100
    QCheck.small_int (fun seed ->
      let inst = Fixtures.random_instance ~seed ~budget:10.0 () in
      let ok = ref true in
      for id = 0 to Instance.num_classifiers inst - 1 do
        let c = Instance.classifier inst id in
        let listed = Array.to_list (Instance.queries_containing inst id) in
        for qi = 0 to Instance.num_queries inst - 1 do
          let contains = Propset.subset c (Instance.query inst qi) in
          if contains <> List.mem qi listed then ok := false
        done
      done;
      !ok)

(* --- Cover --- *)

let cover_incremental_matches_oracle =
  QCheck.Test.make ~name:"incremental cover tracker = from-scratch oracle" ~count:100
    QCheck.small_int (fun seed ->
      let inst = Fixtures.random_instance ~seed ~budget:100.0 () in
      let rng = Rng.create (seed + 999) in
      let n = Instance.num_classifiers inst in
      if n = 0 then true
      else begin
        let state = Cover.create inst in
        let chosen = ref [] in
        for _ = 1 to 1 + Rng.int rng n do
          let id = Rng.int rng n in
          Cover.select state id;
          chosen := Instance.classifier inst id :: !chosen
        done;
        abs_float
          (Cover.covered_utility state -. Cover.utility_of_selection inst !chosen)
        < 1e-9
      end)

let cover_exact_union_semantics () =
  (* Coverage requires the union to be exactly the query: a superset
     classifier never covers. *)
  let inst =
    Instance.create ~budget:10.0
      ~queries:[| (ps [ 0 ], 1.0); (ps [ 0; 1 ], 1.0) |]
      ~cost:(fun _ -> 1.0) ()
  in
  let state = Cover.create inst in
  ignore (Cover.select_set state (ps [ 0; 1 ]));
  (* XY covers xy but NOT the singleton query x. *)
  Alcotest.(check (float 1e-9)) "only xy covered" 1.0 (Cover.covered_utility state);
  Alcotest.(check int) "one query covered" 1 (Cover.covered_count state)

let cover_residual_shrinks () =
  let inst =
    Instance.create ~budget:10.0 ~queries:[| (ps [ 0; 1; 2 ], 1.0) |] ~cost:(fun _ -> 1.0) ()
  in
  let state = Cover.create inst in
  Alcotest.(check bool) "initial residual is the query" true
    (Propset.equal (Cover.residual state 0) (ps [ 0; 1; 2 ]));
  ignore (Cover.select_set state (ps [ 1 ]));
  Alcotest.(check bool) "after Y the residual is xz" true
    (Propset.equal (Cover.residual state 0) (ps [ 0; 2 ]));
  ignore (Cover.select_set state (ps [ 0; 2 ]));
  Alcotest.(check bool) "covered" true (Cover.is_covered state 0);
  Alcotest.(check bool) "empty residual" true (Propset.is_empty (Cover.residual state 0))

let cover_select_traced () =
  let inst = Fixtures.figure1 ~budget:11.0 in
  let state = Cover.create inst in
  ignore (Cover.select_set state (ps [ 1; 2 ]));
  let id = match Instance.classifier_id inst (ps [ 0; 2 ]) with Some i -> i | None -> -1 in
  let newly = Cover.select_traced state id in
  Alcotest.(check int) "XZ completes two queries (xz and xyz)" 2 (List.length newly);
  Alcotest.(check (list int)) "re-selection reports nothing" [] (Cover.select_traced state id)

let cover_clone_independent () =
  let inst = Fixtures.figure1 ~budget:11.0 in
  let a = Cover.create inst in
  let b = Cover.clone a in
  ignore (Cover.select_set b (ps [ 0; 1; 2 ]));
  Alcotest.(check (float 1e-9)) "original untouched" 0.0 (Cover.covered_utility a);
  Alcotest.(check (float 1e-9)) "clone advanced" 8.0 (Cover.covered_utility b)

(* --- Covers DP --- *)

let cheapest_cover_matches_brute =
  QCheck.Test.make ~name:"cheapest-cover DP is optimal (vs subset brute force)" ~count:100
    QCheck.small_int (fun seed ->
      let inst = Fixtures.random_instance ~seed ~max_len:3 ~budget:100.0 () in
      let state = Cover.create inst in
      let ok = ref true in
      for qi = 0 to Instance.num_queries inst - 1 do
        let q = Instance.query inst qi in
        (* Brute force over classifier subsets contained in q. *)
        let cands =
          List.filter_map (fun c -> Instance.classifier_id inst c) (Propset.subsets q)
        in
        let best = ref infinity in
        let rec go rest acc_cost acc_union =
          if Propset.equal acc_union q then best := min !best acc_cost
          else
            match rest with
            | [] -> ()
            | id :: tl ->
                go tl (acc_cost +. Instance.cost inst id)
                  (Propset.union acc_union (Instance.classifier inst id));
                go tl acc_cost acc_union
        in
        go cands 0.0 Propset.empty;
        (match Covers.cheapest_cover state qi with
        | Some (cost, ids) ->
            let union =
              List.fold_left
                (fun acc id -> Propset.union acc (Instance.classifier inst id))
                Propset.empty ids
            in
            if not (Propset.equal union q) then ok := false;
            if abs_float (cost -. !best) > 1e-9 then ok := false
        | None -> if !best < infinity then ok := false)
      done;
      !ok)

(* Random instances for the subset table: queries of up to five
   properties over six, some of them repeated (merged by create), and
   costs with zeros and infinities. *)
let table_instance seed =
  let rng = Rng.create seed in
  let distinct =
    Array.init 10 (fun _ ->
        let len = 1 + Rng.int rng 5 in
        (Propset.of_array (Rng.sample_without_replacement rng len 6), float_of_int (1 + Rng.int rng 9)))
  in
  let queries = Array.append distinct (Array.sub distinct 0 3) in
  let cost c =
    match Rng.int (Rng.create ((Propset.hash c * 131) lxor seed)) 8 with
    | 0 -> 0.0
    | 1 -> infinity
    | k -> float_of_int k
  in
  Instance.create ~budget:100.0 ~queries ~cost ()

let subset_table_agrees =
  QCheck.Test.make ~name:"subset table and containing masks = subsets, classifier_id, positions_in"
    ~count:200 QCheck.small_int (fun seed ->
      let inst = table_instance seed in
      let ok = ref true in
      for qi = 0 to Instance.num_queries inst - 1 do
        let q = Instance.query inst qi in
        List.iteri
          (fun i c ->
            let want = match Instance.classifier_id inst c with Some id -> id | None -> -1 in
            if Instance.subset_id inst qi (i + 1) <> want then ok := false;
            if Propset.positions_in c q <> i + 1 then ok := false)
          (Propset.subsets q)
      done;
      for id = 0 to Instance.num_classifiers inst - 1 do
        let qs = Instance.queries_containing inst id in
        let ms = Instance.containing_masks inst id in
        if Array.length qs <> Array.length ms then ok := false
        else
          Array.iteri
            (fun j qi ->
              if j > 0 && qs.(j - 1) >= qi then ok := false;
              let want = Propset.positions_in (Instance.classifier inst id) (Instance.query inst qi) in
              if ms.(j) <> want then ok := false)
            qs
      done;
      !ok)

(* The DP against brute force over the unselected, allowed classifiers
   inside the query, from a state with some classifiers already bought.
   A cheapest cover needs at most one classifier per residual property
   (costs are non-negative), which bounds the search. *)
let cheapest_cover_matches_brute_residual =
  QCheck.Test.make ~name:"cheapest-cover DP = brute force on residuals (queries up to 5)"
    ~count:100 QCheck.small_int (fun seed ->
      let inst = table_instance seed in
      let rng = Rng.create (seed + 7) in
      let state = Cover.create inst in
      for id = 0 to Instance.num_classifiers inst - 1 do
        if Rng.int rng 6 = 0 then Cover.select state id
      done;
      let allowed id = (id * 7 + seed) mod 5 <> 0 in
      let ok = ref true in
      for qi = 0 to Instance.num_queries inst - 1 do
        let q = Instance.query inst qi in
        let target = Cover.full_mask state qi land lnot (Cover.mask state qi) in
        let cands =
          List.filter_map
            (fun c ->
              match Instance.classifier_id inst c with
              | Some id when (not (Cover.is_selected state id)) && allowed id ->
                  Some (id, Propset.positions_in c q land target)
              | _ -> None)
            (Propset.subsets q)
          |> Array.of_list
        in
        let best = ref infinity in
        let rec go start depth bits cost =
          if bits = target then best := Float.min !best cost
          else if depth > 0 && cost < !best then
            for i = start to Array.length cands - 1 do
              let id, b = cands.(i) in
              go (i + 1) (depth - 1) (bits lor b) (cost +. Instance.cost inst id)
            done
        in
        let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1) in
        if target <> 0 then go 0 (popcount target) 0 0.0;
        match Covers.cheapest_cover state ~allowed qi with
        | Some (cost, ids) ->
            let bits =
              List.fold_left
                (fun acc id ->
                  if Cover.is_selected state id || not (allowed id) then ok := false;
                  acc lor Propset.positions_in (Instance.classifier inst id) q)
                0 ids
            in
            let sum = List.fold_left (fun acc id -> acc +. Instance.cost inst id) 0.0 ids in
            if bits land target <> target then ok := false;
            if Float.abs (cost -. !best) > 1e-9 || Float.abs (sum -. cost) > 1e-9 then ok := false
        | None -> if target <> 0 && !best < infinity then ok := false
      done;
      !ok)

let propset_compare_is_stdlib =
  QCheck.Test.make ~name:"Propset.compare has Stdlib.compare's sign" ~count:500
    (QCheck.pair propset_gen propset_gen) (fun (a, b) ->
      let sign x = Int.compare x 0 in
      sign (Propset.compare a b) = sign (Stdlib.compare (Propset.to_array a) (Propset.to_array b))
      && Propset.compare a a = 0)

(* --- Decompose / Prune --- *)

let decompose_l1_is_knapsack () =
  (* Observation 4.3: with only singleton queries the decomposition is a
     pure knapsack; the QK side is empty. *)
  let queries = Array.init 5 (fun i -> (ps [ i ], float_of_int (i + 1))) in
  let inst = Instance.create ~budget:3.0 ~queries ~cost:(fun _ -> 1.0) () in
  let state = Cover.create inst in
  let knap, qkp = Decompose.build state ~budget:3.0 in
  Alcotest.(check int) "five items" 5 (Array.length knap.Decompose.values);
  (* The QK side holds only the items (as bonus-edge endpoints) plus the
     zero-cost virtual node: no genuine 2-cover edges exist. *)
  let g = qkp.Decompose.qk.Bcc_qk.Qk.graph in
  Alcotest.(check int) "QK = items + virtual node" 6 (Bcc_graph.Graph.n g);
  Alcotest.(check int) "only bonus edges" 5 (Bcc_graph.Graph.m g);
  Alcotest.(check bool) "virtual node marked -1" true
    (Array.exists (fun id -> id = -1) qkp.Decompose.node_classifier)

let decompose_respects_allowed () =
  let inst = Fixtures.figure2 ~budget:2.0 in
  let state = Cover.create inst in
  let knap, qkp = Decompose.build ~allowed:(fun _ -> false) state ~budget:2.0 in
  Alcotest.(check int) "no items when everything is filtered" 0
    (Array.length knap.Decompose.values);
  Alcotest.(check int) "no QK nodes either" 0
    (Bcc_graph.Graph.n qkp.Decompose.qk.Bcc_qk.Qk.graph)

let prune_uniform_keeps_singletons () =
  (* With uniform costs rule 1 reduces the universe to singletons
     (Section 4.2). *)
  let queries = [| (ps [ 0; 1 ], 1.0); (ps [ 1; 2; 3 ], 2.0) |] in
  let inst = Instance.create ~budget:100.0 ~queries ~cost:(fun _ -> 1.0) () in
  let keep = Prune.rule1 ~mode:`Paper inst in
  for id = 0 to Instance.num_classifiers inst - 1 do
    let len = Propset.length (Instance.classifier inst id) in
    Alcotest.(check bool)
      (Format.asprintf "classifier %a" (Propset.pp ?names:None) (Instance.classifier inst id))
      (len = 1) keep.(id)
  done

let prune_budget_guard () =
  (* Tight budget: the singletons cost 3 each (sum 6 > budget 2) but the
     pair classifier costs 2 — the guard must keep it. *)
  let queries = [| (ps [ 0; 1 ], 1.0) |] in
  let cost c = if Propset.length c = 2 then 2.0 else 3.0 in
  let inst = Instance.create ~budget:2.0 ~queries ~cost () in
  let keep = Prune.rule1 inst in
  let id = match Instance.classifier_id inst (ps [ 0; 1 ]) with Some i -> i | None -> -1 in
  Alcotest.(check bool) "XY survives the guard" true keep.(id)

let prune_keeps_cheap_conjunctions () =
  (* A conjunction much cheaper than its parts is kept: C(XY)=1,
     singletons cost 10 each (replacement 20 > 2*1). *)
  let queries = [| (ps [ 0; 1 ], 1.0) |] in
  let cost c = if Propset.length c = 2 then 1.0 else 10.0 in
  let inst = Instance.create ~budget:100.0 ~queries ~cost () in
  let keep = Prune.rule1 inst in
  let id = match Instance.classifier_id inst (ps [ 0; 1 ]) with Some i -> i | None -> -1 in
  Alcotest.(check bool) "cheap XY kept" true keep.(id)

(* --- Instance.patch --- *)

let count n =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some c when c > 0 -> c | _ -> n)
  | None -> n

(* A random workload, priced by explicit prices over either an oracle
   (the log kind: every set has a price) or infinity (the text kind),
   driven through a run of random change sets.  After every step the
   patched chain must equal [create] on the same content, and the
   instance it was patched from must be unchanged. *)
let patch_equals_create =
  QCheck.Test.make ~name:"Instance.patch = Instance.create over random change runs"
    ~count:(count 300) QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let num_props = 3 + Rng.int rng 6 in
      let max_len = 1 + Rng.int rng 5 in
      let random_set ?(props = num_props) () =
        let len = 1 + Rng.int rng max_len in
        Propset.of_array (Rng.sample_without_replacement rng (min len props) props)
      in
      let random_utility () =
        match Rng.int rng 8 with 0 -> 0.0 | 1 -> -0.0 | k -> float_of_int k +. 0.5
      in
      let random_price () =
        match Rng.int rng 6 with 0 -> infinity | 1 -> 0.0 | k -> float_of_int k
      in
      let oracle = Rng.bool rng in
      let prices = Propset.Tbl.create 16 in
      let cost c =
        match Propset.Tbl.find_opt prices c with
        | Some x -> x
        | None when oracle -> (
            match Rng.int (Rng.create ((Propset.hash c * 131) lxor seed)) 5 with
            | 0 -> infinity
            | k -> float_of_int k)
        | None -> infinity
      in
      let work = Propset.Tbl.create 16 in
      for _ = 1 to Rng.int rng 12 do
        let q = random_set () in
        Propset.Tbl.replace work q (random_utility ());
        List.iter
          (fun c -> if Rng.int rng 2 = 0 then Propset.Tbl.replace prices c (random_price ()))
          (Propset.subsets q)
      done;
      let budget = ref (float_of_int (Rng.int rng 20)) in
      let build step =
        Instance.create ~name:(Printf.sprintf "w@%d" step) ~budget:!budget
          ~queries:(Array.of_seq (Propset.Tbl.to_seq work))
          ~cost ()
      in
      let existing () = Array.of_seq (Propset.Tbl.to_seq_keys work) in
      let prev = ref (build 0) and prev_created = ref (build 0) in
      for step = 1 to 1 + Rng.int rng 6 do
        let changes = Propset.Tbl.create 8 and repriced = Propset.Tbl.create 8 in
        for _ = 1 to Rng.int rng 6 do
          let keys = existing () in
          match Rng.int rng 7 with
          | 0 ->
              (* inserts anywhere, and past the last property seen so far *)
              let q = random_set ~props:(num_props + Rng.int rng 3) () in
              Propset.Tbl.replace changes q (Some (random_utility ()))
          | 1 when keys <> [||] ->
              (* a removal, orphaning what only that query held *)
              Propset.Tbl.replace changes (Rng.choose rng keys) None
          | 2 when keys <> [||] ->
              Propset.Tbl.replace changes (Rng.choose rng keys) (Some (random_utility ()))
          | 3 -> Propset.Tbl.replace changes (random_set ()) None
          | 4 | 5 when keys <> [||] ->
              let subs = Array.of_list (Propset.subsets (Rng.choose rng keys)) in
              Propset.Tbl.replace repriced (Rng.choose rng subs) ()
          | _ -> Propset.Tbl.replace repriced (random_set ()) ()
        done;
        let probes =
          List.init (Instance.num_classifiers !prev) (Instance.classifier !prev)
          @ List.of_seq (Propset.Tbl.to_seq_keys repriced)
        in
        Propset.Tbl.iter (fun c () -> Propset.Tbl.replace prices c (random_price ())) repriced;
        Propset.Tbl.iter
          (fun q u ->
            match u with
            | Some u -> Propset.Tbl.replace work q u
            | None -> Propset.Tbl.remove work q)
          changes;
        if Rng.int rng 3 = 0 then budget := float_of_int (Rng.int rng 20);
        let patched =
          Instance.patch ~name:(Printf.sprintf "w@%d" step) ~budget:!budget
            ~changes:(List.of_seq (Propset.Tbl.to_seq changes))
            ~repriced:(List.of_seq (Propset.Tbl.to_seq_keys repriced))
            ~cost !prev
        in
        let created = build step in
        (match Fixtures.instance_diff ~probes patched created with
        | Some msg ->
            QCheck.Test.fail_reportf "seed %d step %d: patched vs created: %s" seed step msg
        | None -> ());
        (match Fixtures.instance_diff ~probes !prev !prev_created with
        | Some msg -> QCheck.Test.fail_reportf "seed %d step %d: prev mutated: %s" seed step msg
        | None -> ());
        prev := patched;
        prev_created := created
      done;
      true)

(* --- Greedy sweep and cost-only cover DP --- *)

(* A random sweep case: 3-9 properties, queries of 1-5 of them (some
   repeated, which create merges), utilities with zeros, costs with
   zeros and infinities; a random pre-selected state and an optional
   random [allowed] filter. *)
let sweep_case seed =
  let rng = Rng.create seed in
  let num_props = 3 + Rng.int rng 7 in
  let distinct =
    Array.init (1 + Rng.int rng 14) (fun _ ->
        let len = 1 + Rng.int rng (min 5 num_props) in
        ( Propset.of_array (Rng.sample_without_replacement rng len num_props),
          float_of_int (Rng.int rng 10) ))
  in
  let repeated = Array.init (Rng.int rng 4) (fun _ -> distinct.(Rng.int rng (Array.length distinct))) in
  let salt = Rng.int rng 1_000_000 in
  let cost c =
    match Rng.int (Rng.create ((Propset.hash c * 131) lxor salt)) 10 with
    | 0 -> 0.0
    | 1 -> infinity
    | k -> float_of_int k *. 0.75
  in
  let inst =
    Instance.create ~budget:100.0 ~queries:(Array.append distinct repeated) ~cost ()
  in
  let state = Cover.create inst in
  for id = 0 to Instance.num_classifiers inst - 1 do
    if Rng.int rng 5 = 0 then Cover.select state id
  done;
  let allowed =
    if Rng.bool rng then None
    else begin
      let ok = Array.init (Instance.num_classifiers inst) (fun _ -> Rng.int rng 4 <> 0) in
      Some (fun id -> ok.(id))
    end
  in
  (inst, state, allowed, rng)

let cheapest_cost_is_cheapest_cover =
  QCheck.Test.make ~name:"Covers.cheapest_cost = fst cheapest_cover (or infinity), bit for bit"
    ~count:(count 300) QCheck.small_int (fun seed ->
      let inst, state, allowed, _ = sweep_case seed in
      (* One scratch across every query and filter: stale entries must
         not leak between calls. *)
      let scratch = Covers.scratch () in
      for qi = 0 to Instance.num_queries inst - 1 do
        List.iter
          (fun allowed ->
            let want =
              match Covers.cheapest_cover state ?allowed qi with
              | Some (c, _) -> c
              | None -> infinity
            in
            let got = Covers.cheapest_cost scratch state ?allowed qi in
            if Int64.bits_of_float got <> Int64.bits_of_float want then
              QCheck.Test.fail_reportf "seed %d query %d: cheapest_cost %h, cheapest_cover %h"
                seed qi got want)
          [ None; allowed ]
      done;
      true)

let greedy_sweep_matches_reference =
  QCheck.Test.make ~name:"greedy_sweep = the pre-memo sweep: same selection and spend"
    ~count:(count 300) QCheck.small_int (fun seed ->
      let inst, state, allowed, rng = sweep_case seed in
      let usable id =
        (not (Cover.is_selected state id))
        && match allowed with None -> true | Some ok -> ok id
      in
      let cheapest_classifier = ref infinity and finite_total = ref 0.0 in
      for id = 0 to Instance.num_classifiers inst - 1 do
        let c = Instance.cost inst id in
        if usable id then cheapest_classifier := Float.min !cheapest_classifier c;
        finite_total := !finite_total +. c
      done;
      let cheapest_pick =
        List.fold_left
          (fun acc qi ->
            match Covers.cheapest_cover state ?allowed qi with
            | Some (c, _) -> Float.min acc c
            | None -> acc)
          infinity (Cover.uncovered_queries state)
      in
      let below x d = if x < infinity then [ Float.max 0.0 (x -. d) ] else [] in
      let limits =
        [ 0.0; Rng.float rng !finite_total; !finite_total; Instance.budget inst ]
        (* Either side of the early exit: [limit + 1e-9] just below and
           just above the cheapest usable classifier. *)
        @ below !cheapest_classifier 2e-9
        @ below !cheapest_classifier 5e-10
        @ below cheapest_pick 1e-6
      in
      List.iter
        (fun limit ->
          let got = Cover.clone state and want = Cover.clone state in
          Solver.greedy_sweep ?allowed got ~limit;
          Fixtures.greedy_sweep_reference ?allowed want ~limit;
          if
            Cover.selected got <> Cover.selected want
            || Int64.bits_of_float (Cover.spent got) <> Int64.bits_of_float (Cover.spent want)
          then
            QCheck.Test.fail_reportf "seed %d limit %h: selected [%s] spent %h, reference [%s] spent %h"
              seed limit
              (String.concat " " (List.map string_of_int (Cover.selected got)))
              (Cover.spent got)
              (String.concat " " (List.map string_of_int (Cover.selected want)))
              (Cover.spent want))
        limits;
      true)

let suite =
  [
    qtest propset_union_commutes;
    qtest propset_inter_diff;
    qtest propset_subset_reflexive;
    Alcotest.test_case "propset sorts and dedups" `Quick propset_sorted_dedup;
    qtest propset_subsets_count;
    Alcotest.test_case "propset position masks" `Quick propset_positions;
    Alcotest.test_case "propset named printing" `Quick propset_pp_names;
    Alcotest.test_case "instance merges duplicate queries" `Quick instance_merges_duplicates;
    Alcotest.test_case "instance derives CL correctly" `Quick instance_classifier_universe;
    Alcotest.test_case "instance restrict" `Quick instance_restrict;
    Alcotest.test_case "instance rejects negative utility" `Quick instance_rejects_negative;
    qtest containment_index_sound;
    qtest cover_incremental_matches_oracle;
    Alcotest.test_case "coverage is exact-union" `Quick cover_exact_union_semantics;
    Alcotest.test_case "residuals shrink" `Quick cover_residual_shrinks;
    Alcotest.test_case "select_traced reports new covers" `Quick cover_select_traced;
    Alcotest.test_case "clone independence" `Quick cover_clone_independent;
    qtest cheapest_cover_matches_brute;
    Alcotest.test_case "decompose l=1 is knapsack" `Quick decompose_l1_is_knapsack;
    Alcotest.test_case "decompose respects allowed filter" `Quick decompose_respects_allowed;
    Alcotest.test_case "paper-mode prune keeps singletons under uniform costs" `Quick
      prune_uniform_keeps_singletons;
    Alcotest.test_case "prune budget guard" `Quick prune_budget_guard;
    Alcotest.test_case "prune keeps cheap conjunctions" `Quick prune_keeps_cheap_conjunctions;
    qtest subset_table_agrees;
    qtest cheapest_cover_matches_brute_residual;
    qtest propset_compare_is_stdlib;
    qtest patch_equals_create;
    qtest cheapest_cost_is_cheapest_cover;
    qtest greedy_sweep_matches_reference;
  ]
