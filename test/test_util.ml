(* Unit and property tests for the bcc_util substrate. *)

module Rng = Bcc_util.Rng
module Heap = Bcc_util.Heap
module Union_find = Bcc_util.Union_find
module Stats = Bcc_util.Stats
module Zipf = Bcc_util.Zipf
module Texttable = Bcc_util.Texttable

let qtest = QCheck_alcotest.to_alcotest

(* --- Rng --- *)

let rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Rng.int64 a) (Rng.int64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = Array.init 50 (fun _ -> Rng.int64 a) in
  let ys = Array.init 50 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let rng_derive_reproducible () =
  let mk () = Rng.create 7 in
  for i = 0 to 9 do
    let a = Rng.derive (mk ()) i and b = Rng.derive (mk ()) i in
    for _ = 1 to 20 do
      Alcotest.(check int64) "same (state, index), same stream" (Rng.int64 a) (Rng.int64 b)
    done
  done

let rng_derive_indices_diverge () =
  let parent = Rng.create 7 in
  let draws i = Array.init 20 (fun _ -> Rng.int64 (Rng.derive parent i)) in
  for i = 0 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "streams %d and %d differ" i (i + 1))
      true
      (draws i <> draws (i + 1))
  done

let rng_derive_leaves_parent_untouched () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for i = 0 to 9 do
    ignore (Rng.derive a i)
  done;
  for _ = 1 to 50 do
    Alcotest.(check int64) "derive does not advance the parent" (Rng.int64 b) (Rng.int64 a)
  done

let rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float stays in bounds" ~count:200
    QCheck.(pair small_int (float_range 0.001 1000.0))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.float rng bound in
      x >= 0.0 && x < bound)

let rng_shuffle_permutes =
  QCheck.Test.make ~name:"Rng.shuffle preserves the multiset" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Rng.create seed in
      let a = Array.of_list xs in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let rng_sample_distinct =
  QCheck.Test.make ~name:"sample_without_replacement draws distinct indices" ~count:100
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let k = 1 + (seed mod n) in
      let s = Rng.sample_without_replacement rng k n in
      let l = Array.to_list s in
      List.length (List.sort_uniq compare l) = k
      && List.for_all (fun x -> x >= 0 && x < n) l)

let rng_weighted_skips_zero () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let i = Rng.weighted_index rng [| 0.0; 1.0; 0.0 |] in
    Alcotest.(check int) "only the positive weight can be drawn" 1 i
  done

(* --- Heap --- *)

let heap_pop_sorted =
  QCheck.Test.make ~name:"Heap pops in priority order" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (float_range (-100.0) 100.0))
    (fun prios ->
      let n = List.length prios in
      let h = Heap.create n in
      List.iteri (fun i p -> Heap.insert h i p) prios;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (_, p) -> drain (p :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare prios)

(* Two heaps fed the same random operations over few distinct
   priorities (so most comparisons tie): one drained by [pop], the other
   by [top], [top_priority] and [pop_key], with [add_to] and
   [add_to_present] on the first and their [update] and [add_to]
   formulations on the second.  Pops between operations and
   the final drain must agree key for key: tie order is what keeps
   solver answers bit-identical. *)
let heap_pop_key_is_pop =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun k p -> `Insert (k, float_of_int p)) (0 -- 15) (0 -- 3));
          (3, map2 (fun k p -> `Update (k, float_of_int p)) (0 -- 15) (0 -- 3));
          (3, map2 (fun k d -> `Add_to (k, float_of_int d)) (0 -- 15) (-1 -- 1));
          (2, map (fun k -> `Remove k) (0 -- 15));
          ( 2,
            map
              (fun l -> `Add_present (Array.of_list (List.map fst l), Array.of_list (List.map snd l)))
              (list_size (0 -- 6) (pair (0 -- 15) (map float_of_int (-1 -- 1)))) );
          (2, return `Pop);
        ])
  in
  let print = function
    | `Insert (k, p) -> Printf.sprintf "insert %d %g" k p
    | `Update (k, p) -> Printf.sprintf "update %d %g" k p
    | `Add_to (k, d) -> Printf.sprintf "add_to %d %g" k d
    | `Remove k -> Printf.sprintf "remove %d" k
    | `Add_present (ks, ds) ->
        Printf.sprintf "add_to_present [%s]"
          (String.concat "; " (Array.to_list (Array.mapi (fun i k -> Printf.sprintf "%d %g" k ds.(i)) ks)))
    | `Pop -> "pop"
  in
  QCheck.Test.make
    ~name:"Heap top/top_priority/pop_key drain = pop drain, ties included"
    ~count:500
    (QCheck.make ~print:QCheck.Print.(pair bool (list print))
       QCheck.Gen.(pair bool (list_size (0 -- 80) op)))
    (fun (max, ops) ->
      let a = Heap.create ~max 16 and b = Heap.create ~max 16 in
      let pop_b () =
        if Heap.is_empty b then None
        else begin
          let k = Heap.top b and p = Heap.top_priority b in
          let k' = Heap.pop_key b in
          if k <> k' then QCheck.Test.fail_reportf "top %d but pop_key %d" k k';
          Some (k, p)
        end
      in
      let same what x y =
        if x <> y then
          QCheck.Test.fail_reportf "%s: pop %s vs pop_key %s" what
            (match x with Some (k, p) -> Printf.sprintf "(%d, %g)" k p | None -> "none")
            (match y with Some (k, p) -> Printf.sprintf "(%d, %g)" k p | None -> "none")
      in
      List.iter
        (function
          | `Insert (k, p) ->
              if not (Heap.mem a k) then begin
                Heap.insert a k p;
                Heap.insert b k p
              end
          | `Update (k, p) ->
              Heap.update a k p;
              Heap.update b k p
          | `Add_to (k, d) ->
              Heap.add_to a k d;
              if Heap.mem b k then Heap.update b k (Heap.priority b k +. d) else Heap.insert b k d
          | `Remove k ->
              if Heap.remove a k <> Heap.remove b k then QCheck.Test.fail_report "remove differs"
          | `Add_present (ks, ds) ->
              Heap.add_to_present a ks ds 0 (Array.length ks);
              Array.iteri (fun i k -> if Heap.mem b k then Heap.add_to b k ds.(i)) ks
          | `Pop -> same "mid-sequence" (Heap.pop a) (pop_b ()))
        ops;
      while not (Heap.is_empty a && Heap.is_empty b) do
        same "drain" (Heap.pop a) (pop_b ())
      done;
      true)

let heap_update_reorders () =
  let h = Heap.create 3 in
  Heap.insert h 0 5.0;
  Heap.insert h 1 10.0;
  Heap.insert h 2 1.0;
  Heap.update h 1 0.5;
  Alcotest.(check (option (pair int (float 1e-12)))) "updated key on top" (Some (1, 0.5))
    (Heap.pop h)

let heap_add_to () =
  let h = Heap.create 2 in
  Heap.insert h 0 1.0;
  Heap.add_to h 0 2.5;
  Alcotest.(check (float 1e-12)) "accumulated priority" 3.5 (Heap.priority h 0);
  Heap.add_to h 1 4.0;
  Alcotest.(check bool) "add_to inserts absent key" true (Heap.mem h 1)

let heap_remove () =
  let h = Heap.create 4 in
  List.iteri (fun i p -> Heap.insert h i p) [ 4.0; 2.0; 3.0; 1.0 ];
  Alcotest.(check bool) "remove present" true (Heap.remove h 3);
  Alcotest.(check bool) "remove absent" false (Heap.remove h 3);
  Alcotest.(check (option (pair int (float 1e-12)))) "next min" (Some (1, 2.0)) (Heap.pop h)

let heap_max_mode () =
  let h = Heap.create ~max:true 3 in
  List.iteri (fun i p -> Heap.insert h i p) [ 1.0; 3.0; 2.0 ];
  Alcotest.(check (option (pair int (float 1e-12)))) "max first" (Some (1, 3.0)) (Heap.pop h)

let heap_insert_duplicate_rejected () =
  let h = Heap.create 2 in
  Heap.insert h 0 1.0;
  Alcotest.check_raises "duplicate insert" (Invalid_argument "Heap.insert: key already present")
    (fun () -> Heap.insert h 0 2.0)

(* --- Union_find --- *)

let union_find_basics () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial count" 6 (Union_find.count uf);
  Alcotest.(check bool) "union merges" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "repeat union is a no-op" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  Alcotest.(check bool) "transitively connected" true (Union_find.same uf 1 2);
  Alcotest.(check int) "component size" 4 (Union_find.size_of uf 3);
  Alcotest.(check int) "count after unions" 3 (Union_find.count uf)

let union_find_components =
  QCheck.Test.make ~name:"Union_find.count equals distinct components" ~count:100
    QCheck.(list_of_size Gen.(0 -- 30) (pair (int_bound 9) (int_bound 9)))
    (fun edges ->
      let uf = Union_find.create 10 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) edges;
      (* Reference count via roots. *)
      let roots = Hashtbl.create 10 in
      for v = 0 to 9 do
        Hashtbl.replace roots (Union_find.find uf v) ()
      done;
      Hashtbl.length roots = Union_find.count uf)

(* --- Stats --- *)

let stats_known () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min xs);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max xs);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "sample variance" (5.0 /. 3.0) (Stats.variance xs)

let stats_histogram () =
  let xs = [| 0.0; 0.1; 0.9; 1.0; 2.0 |] in
  let bins = Stats.histogram 2 xs in
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 bins in
  Alcotest.(check int) "histogram conserves the count" 5 total

(* --- Zipf --- *)

let zipf_head_heavier () =
  let z = Zipf.create ~s:1.0 100 in
  let rng = Rng.create 11 in
  let counts = Array.make 100 0 in
  for _ = 1 to 5000 do
    let r = Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 sampled more than rank 50" true (counts.(0) > counts.(50));
  Alcotest.(check bool) "weights decrease" true (Zipf.weight z 0 > Zipf.weight z 10)

(* --- Texttable --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let texttable_renders () =
  let t = Texttable.create [ "algo"; "utility" ] in
  Texttable.add_row t [ "A^BCC"; "42" ];
  Texttable.add_row t [ "RAND" ];
  let s = Texttable.render t in
  Alcotest.(check bool) "contains header" true (contains s "algo");
  Alcotest.(check bool) "contains cells" true (contains s "A^BCC" && contains s "RAND");
  Alcotest.(check int) "four lines (header, rule, two rows)" 4
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)))

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick rng_seed_sensitivity;
    Alcotest.test_case "rng split independence" `Quick rng_split_independent;
    Alcotest.test_case "rng derive reproducible" `Quick rng_derive_reproducible;
    Alcotest.test_case "rng derive indices diverge" `Quick rng_derive_indices_diverge;
    Alcotest.test_case "rng derive leaves parent untouched" `Quick
      rng_derive_leaves_parent_untouched;
    qtest rng_int_bounds;
    qtest rng_float_bounds;
    qtest rng_shuffle_permutes;
    qtest rng_sample_distinct;
    Alcotest.test_case "rng weighted index" `Quick rng_weighted_skips_zero;
    qtest heap_pop_sorted;
    qtest heap_pop_key_is_pop;
    Alcotest.test_case "heap update reorders" `Quick heap_update_reorders;
    Alcotest.test_case "heap add_to" `Quick heap_add_to;
    Alcotest.test_case "heap remove" `Quick heap_remove;
    Alcotest.test_case "heap max mode" `Quick heap_max_mode;
    Alcotest.test_case "heap duplicate insert rejected" `Quick heap_insert_duplicate_rejected;
    Alcotest.test_case "union-find basics" `Quick union_find_basics;
    qtest union_find_components;
    Alcotest.test_case "stats on known data" `Quick stats_known;
    Alcotest.test_case "stats histogram" `Quick stats_histogram;
    Alcotest.test_case "zipf shape" `Quick zipf_head_heavier;
    Alcotest.test_case "texttable renders" `Quick texttable_renders;
  ]
