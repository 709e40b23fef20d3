(* The incremental solve pipeline: deterministic component ordering,
   fingerprint-derived randomness, artifact (de)serialization, the
   incremental == cold bit-identity contract (as a qcheck property over
   random delta sequences, at 1 and 3 jobs), footprint-driven reuse
   accounting, torn-artifact recovery and the pipeline.artifact fault
   point. *)

module Instance = Bcc_core.Instance
module Propset = Bcc_core.Propset
module Solution = Bcc_core.Solution
module Solver = Bcc_core.Solver
module Solve_ctx = Bcc_core.Solve_ctx
module Pipeline = Bcc_core.Pipeline
module Decompose = Bcc_core.Decompose
module Baselines = Bcc_core.Baselines
module Engine = Bcc_engine.Engine
module Fault = Bcc_robust.Fault
module Store = Bcc_store.Store
module Delta = Bcc_store.Delta
module Rng = Bcc_util.Rng

let qtest = QCheck_alcotest.to_alcotest

let count n =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some c when c > 0 -> c | _ -> n)
  | None -> n

let ok = function
  | Ok v -> v
  | Error (`Bad msg) -> Alcotest.failf "unexpected `Bad: %s" msg
  | Error `Not_found -> Alcotest.fail "unexpected `Not_found"

let same_solution (a : Solution.t) (b : Solution.t) =
  a.Solution.utility = b.Solution.utility
  && a.Solution.cost = b.Solution.cost
  && List.length a.Solution.classifiers = List.length b.Solution.classifiers
  && List.for_all2 Propset.equal a.Solution.classifiers b.Solution.classifiers

(* --- fixtures --- *)

(* Three overlap-graph components over disjoint property ranges:
   {0,1,2}, {10,11,12}, {20,21}. *)
let clustered_queries =
  [|
    (Propset.of_list [ 0; 1 ], 10.0);
    (Propset.of_list [ 1; 2 ], 6.0);
    (Propset.of_list [ 10; 11 ], 8.0);
    (Propset.of_list [ 11; 12 ], 4.0);
    (Propset.of_list [ 20; 21 ], 7.0);
  |]

let clustered_cost c =
  (* Deterministic, prop-derived; singletons cheap, pairs pricier. *)
  Propset.fold (fun acc p -> acc +. float_of_int ((p mod 7) + 2)) 0.0 c
  +. if Propset.length c > 1 then 1.5 else 0.0

let clustered_instance ?(budget = 25.0) ?(perm = Fun.id) () =
  let qs = Array.map perm clustered_queries in
  Instance.create ~budget ~queries:qs ~cost:clustered_cost ()

(* --- satellite 1: deterministic components --- *)

let component_content inst (c : Decompose.component) =
  ( List.sort Propset.compare (List.map (Instance.query inst) c.Decompose.queries),
    c.Decompose.utility )

let components_permutation_invariant () =
  let a = clustered_instance () in
  (* Reverse the query array: ids change, content does not. *)
  let qs = Array.copy clustered_queries in
  let n = Array.length qs in
  let rev = Array.init n (fun i -> qs.(n - 1 - i)) in
  let b = Instance.create ~budget:25.0 ~queries:rev ~cost:clustered_cost () in
  let ca = List.map (component_content a) (Decompose.components a) in
  let cb = List.map (component_content b) (Decompose.components b) in
  Alcotest.(check int) "three components" 3 (List.length ca);
  Alcotest.(check bool) "identical component lists" true (ca = cb);
  List.iter2
    (fun x y ->
      let px, _ = x and py, _ = y in
      Alcotest.(check bool) "query sets match" true
        (List.for_all2 Propset.equal px py))
    ca cb

let components_ordered_and_disjoint () =
  let inst = clustered_instance () in
  let comps = Decompose.components inst in
  let minp = List.map (fun c -> c.Decompose.min_prop) comps in
  Alcotest.(check (list int)) "sorted by min prop" [ 0; 10; 20 ] minp;
  List.iteri
    (fun i ci ->
      List.iteri
        (fun j cj ->
          if i < j then
            Alcotest.(check bool) "props disjoint" true
              (Propset.is_empty (Propset.inter ci.Decompose.props cj.Decompose.props)))
        comps)
    comps

let components_keep_query () =
  let inst = clustered_instance () in
  (* Drop the two queries of the middle cluster. *)
  let keep qi = not (Propset.mem 11 (Instance.query inst qi)) in
  let comps = Decompose.components ~keep_query:keep inst in
  Alcotest.(check (list int)) "middle cluster gone" [ 0; 20 ]
    (List.map (fun c -> c.Decompose.min_prop) comps)

(* --- satellite 2: fingerprint-derived randomness --- *)

let derive_fingerprint_stable () =
  (* Hard-coded draws: these must never change across process runs,
     architectures or library versions — persisted artifacts depend on
     per-component streams being reproducible forever (a deliberate
     change requires bumping the pipeline format version). *)
  let base = Rng.create 0xBCC in
  let a = Rng.derive_fingerprint base "d41d8cd98f00b204e9800998ecf8427e" in
  let b = Rng.derive_fingerprint base "component-fp-test" in
  Alcotest.(check int) "stream a, point 0" 727543 (Rng.int (Rng.derive a 0) 1_000_000);
  Alcotest.(check int) "stream a, point 1" 783156 (Rng.int (Rng.derive a 1) 1_000_000);
  Alcotest.(check int) "stream b, point 0" 720011 (Rng.int (Rng.derive b 0) 1_000_000)

let derive_fingerprint_independent () =
  let base = Rng.create 42 in
  let a = Rng.derive_fingerprint base "alpha" in
  let a' = Rng.derive_fingerprint base "alpha" in
  let b = Rng.derive_fingerprint base "beta" in
  Alcotest.(check bool) "same key, same stream" true
    (Rng.int a 1_000_000 = Rng.int a' 1_000_000);
  Alcotest.(check bool) "different keys, different streams" true
    (Rng.int (Rng.derive a 0) 1_000_000 <> Rng.int (Rng.derive b 0) 1_000_000);
  (* Non-advancing: deriving must not perturb the base stream. *)
  let base2 = Rng.create 42 in
  ignore (Rng.derive_fingerprint base2 "gamma");
  Alcotest.(check bool) "base unperturbed" true
    (Rng.int base 1_000_000 = Rng.int base2 1_000_000)

(* --- artifact serialization --- *)

let sample_curve () =
  {
    Pipeline.curve_fingerprint = "0123456789abcdef0123456789abcdef";
    points =
      [|
        { Pipeline.point_budget = 0.0; point_utility = 0.0; point_cost = 0.0; sets = [] };
        {
          Pipeline.point_budget = 12.5;
          point_utility = 10.0;
          point_cost = 11.25;
          sets = [ Propset.of_list [ 0; 1 ]; Propset.of_list [ 2 ] ];
        };
      |];
  }

let curve_roundtrip () =
  let c = sample_curve () in
  let s = Pipeline.curve_to_string c in
  match Pipeline.curve_of_string ~fingerprint:c.Pipeline.curve_fingerprint s with
  | None -> Alcotest.fail "roundtrip failed"
  | Some c' ->
      Alcotest.(check int) "points" 2 (Array.length c'.Pipeline.points);
      let p = c'.Pipeline.points.(1) in
      Alcotest.(check (float 0.0)) "budget" 12.5 p.Pipeline.point_budget;
      Alcotest.(check (float 0.0)) "utility" 10.0 p.Pipeline.point_utility;
      Alcotest.(check bool) "sets" true
        (List.for_all2 Propset.equal p.Pipeline.sets
           [ Propset.of_list [ 0; 1 ]; Propset.of_list [ 2 ] ])

let curve_rejects_corruption () =
  let c = sample_curve () in
  let fp = c.Pipeline.curve_fingerprint in
  let s = Pipeline.curve_to_string c in
  (* Flip one byte anywhere in the body: the checksum must catch it. *)
  let flipped i =
    String.mapi (fun j ch -> if i = j then Char.chr (Char.code ch lxor 1) else ch) s
  in
  let header_len = String.index s '\n' in
  for i = header_len + 1 to String.length s - 2 do
    Alcotest.(check bool)
      (Printf.sprintf "flip at %d rejected" i)
      true
      (Pipeline.curve_of_string ~fingerprint:fp (flipped i) = None)
  done;
  (* Truncations (torn writes) are rejected too. *)
  for keep = 0 to String.length s - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "truncate to %d rejected" keep)
      true
      (Pipeline.curve_of_string ~fingerprint:fp (String.sub s 0 keep) = None)
  done;
  (* And a fingerprint mismatch. *)
  Alcotest.(check bool) "wrong fingerprint rejected" true
    (Pipeline.curve_of_string ~fingerprint:(String.map (fun _ -> 'f') fp) s = None)

(* --- cold pipeline semantics --- *)

let at_jobs jobs f =
  Engine.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Engine.set_default_jobs 1) f

let pipeline_bit_stable_across_jobs () =
  let inst = clustered_instance () in
  let solve jobs =
    at_jobs jobs (fun () -> Pipeline.solve (Solve_ctx.make ()) inst)
  in
  let a = solve 1 and b = solve 3 in
  Alcotest.(check int) "components" 3 a.Pipeline.components_total;
  Alcotest.(check int) "nothing cached" 0 a.Pipeline.components_reused;
  Alcotest.(check bool) "solutions identical" true
    (same_solution a.Pipeline.outcome.Solver.solution b.Pipeline.outcome.Solver.solution)

let pipeline_never_trails_ig2 () =
  let inst = clustered_instance () in
  let r = Pipeline.solve (Solve_ctx.make ()) inst in
  let ig2 = Baselines.ig2 inst Baselines.Budget in
  Alcotest.(check bool) "feasible" true
    (Solution.feasible inst r.Pipeline.outcome.Solver.solution);
  Alcotest.(check bool) "pipeline >= IG2" true
    (r.Pipeline.outcome.Solver.solution.Solution.utility >= ig2.Solution.utility -. 1e-9)

let pipeline_fingerprints_are_content_keyed () =
  let inst = clustered_instance () in
  let options = Solver.default_options in
  let stage inst =
    Pipeline.component_stage ~options ~grid:Pipeline.default_grid inst
      (Pipeline.prune_stage ~options ~deadline:Bcc_robust.Deadline.none
         ~pool:(Bcc_engine.Engine.default_pool ())
         ~note_degraded:(fun _ -> ())
         inst)
  in
  let fps inst =
    List.map (fun (s : Pipeline.staged_component) -> s.Pipeline.fingerprint) (stage inst)
  in
  (* Same content, permuted query order: identical fingerprints. *)
  let qs = Array.copy clustered_queries in
  let n = Array.length qs in
  let rev = Array.init n (fun i -> qs.(n - 1 - i)) in
  let permuted = Instance.create ~budget:25.0 ~queries:rev ~cost:clustered_cost () in
  Alcotest.(check (list string)) "permutation invariant" (fps inst) (fps permuted);
  (* Touch one cluster: exactly one fingerprint changes. *)
  let touched =
    let qs = Array.copy clustered_queries in
    qs.(0) <- (fst qs.(0), 11.0);
    Instance.create ~budget:25.0 ~queries:qs ~cost:clustered_cost ()
  in
  let changed =
    List.map2 (fun a b -> a <> b) (fps inst) (fps touched)
    |> List.filter Fun.id |> List.length
  in
  Alcotest.(check int) "one component re-fingerprinted" 1 changed

(* --- store integration: reuse, bit-identity, recovery --- *)

(* A three-cluster workload in the store's text format. *)
let cluster_text =
  "budget 25\n\
   query a0;a1 10\n\
   query a1;a2 6\n\
   query b0;b1 8\n\
   query b1;b2 4\n\
   query c0;c1 7\n\
   classifier a0 2\n\
   classifier a1 3\n\
   classifier a2 4\n\
   classifier a0;a1 4\n\
   classifier b0 2\n\
   classifier b1 3\n\
   classifier b2 4\n\
   classifier b0;b1 4\n\
   classifier c0 2\n\
   classifier c1 3\n\
   classifier c0;c1 4\n"

let incremental_reuses_clean_components () =
  let s = Store.create () in
  ignore (ok (Store.put s ~name:"w" (Store.Text cluster_text)));
  let first = ok (Store.solve s ~name:"w" ~incremental:true ()) in
  Alcotest.(check int) "three components" 3 first.Store.components_total;
  Alcotest.(check int) "cold first solve" 0 first.Store.components_reused;
  (* No delta: everything reuses, same answer. *)
  let again = ok (Store.solve s ~name:"w" ~incremental:true ()) in
  Alcotest.(check int) "full reuse" 3 again.Store.components_reused;
  Alcotest.(check bool) "bit-identical" true
    (same_solution first.Store.solution again.Store.solution);
  (* Touch only the "a" cluster: the other two curves survive. *)
  ignore (ok (Store.delta s ~name:"w" [ Delta.Upsert ([ "a0"; "a1" ], 12.0) ]));
  let after = ok (Store.solve s ~name:"w" ~incremental:true ()) in
  Alcotest.(check int) "still three components" 3 after.Store.components_total;
  Alcotest.(check int) "two reused" 2 after.Store.components_reused;
  (* And the incremental answer equals a cold pipeline solve of the same
     epoch on a pristine store. *)
  let fresh = Store.create () in
  ignore (ok (Store.put fresh ~name:"w" (Store.Text cluster_text)));
  ignore (ok (Store.delta fresh ~name:"w" [ Delta.Upsert ([ "a0"; "a1" ], 12.0) ]));
  let cold = ok (Store.solve fresh ~name:"w" ~incremental:true ()) in
  Alcotest.(check int) "cold baseline" 0 cold.Store.components_reused;
  Alcotest.(check bool) "incremental == cold" true
    (same_solution after.Store.solution cold.Store.solution)

(* The store skips rehashing components no delta touched by serving
   fingerprints from a hint table keyed by (fingerprint header,
   property footprint).  The header embeds the solver options, so a
   solve under different options must never alias a hint recorded under
   the defaults — its fingerprints differ, so nothing can be reused. *)
let hints_respect_options_change () =
  let s = Store.create () in
  ignore (ok (Store.put s ~name:"w" (Store.Text cluster_text)));
  ignore (ok (Store.solve s ~name:"w" ~incremental:true ()));
  let again = ok (Store.solve s ~name:"w" ~incremental:true ()) in
  Alcotest.(check int) "defaults reuse everything" 3 again.Store.components_reused;
  let options = { Solver.default_options with knapsack_grid = 7 } in
  let other = ok (Store.solve s ~name:"w" ~options ~incremental:true ()) in
  Alcotest.(check int) "changed options miss every artifact" 0
    other.Store.components_reused;
  (* And flipping back still hits the original artifacts. *)
  let back = ok (Store.solve s ~name:"w" ~incremental:true ()) in
  Alcotest.(check int) "original options hit again" 3 back.Store.components_reused

let budget_change_clears_artifacts () =
  let s = Store.create () in
  ignore (ok (Store.put s ~name:"w" (Store.Text cluster_text)));
  ignore (ok (Store.solve s ~name:"w" ~incremental:true ()));
  ignore (ok (Store.delta s ~name:"w" [ Delta.Set_budget 18.0 ]));
  let after = ok (Store.solve s ~name:"w" ~incremental:true ()) in
  Alcotest.(check int) "budget change invalidates everything" 0
    after.Store.components_reused

(* Random delta batches confined to the three clusters (so reuse
   actually happens), with occasional budget changes. *)
let random_ops rng =
  let clusters = [| [| "a0"; "a1"; "a2" |]; [| "b0"; "b1"; "b2" |]; [| "c0"; "c1" |] |] in
  let pick arr = arr.(Rng.int rng (Array.length arr)) in
  let props cl =
    let p1 = pick cl in
    let p2 = pick cl in
    if p1 = p2 then [ p1 ] else [ p1; p2 ]
  in
  List.init
    (1 + Rng.int rng 2)
    (fun _ ->
      let cl = clusters.(Rng.int rng 3) in
      match Rng.int rng 10 with
      | 0 -> Delta.Set_budget (float_of_int (15 + Rng.int rng 20))
      | 1 | 2 -> Delta.Add (props cl, float_of_int (1 + Rng.int rng 8))
      | 3 -> Delta.Set_cost (props cl, float_of_int (1 + Rng.int rng 6))
      | 4 -> Delta.Remove (props cl)
      | _ -> Delta.Upsert (props cl, float_of_int (1 + Rng.int rng 15)))

(* The tentpole property: after ANY random delta sequence, an
   incremental re-solve (with whatever artifacts accumulated along the
   way, at 3 jobs) is bit-identical to a cold pipeline solve of the
   same epoch on a pristine store (at 1 job). *)
let incremental_matches_cold =
  QCheck.Test.make ~name:"incremental re-solve bit-matches cold at same epoch"
    ~count:(count 12) QCheck.small_int (fun seed ->
      let rng = Rng.create (0x1AC + seed) in
      let live = Store.create () in
      let mirror = Store.create () in
      ignore (ok (Store.put live ~name:"w" (Store.Text cluster_text)));
      ignore (ok (Store.put mirror ~name:"w" (Store.Text cluster_text)));
      let steps = 1 + Rng.int rng 3 in
      let all_ok = ref true in
      for _ = 1 to steps do
        let ops = random_ops rng in
        ignore (ok (Store.delta live ~name:"w" ops));
        ignore (ok (Store.delta mirror ~name:"w" ops));
        (* Solve the live store every epoch so artifacts accumulate and
           get partially invalidated by later deltas. *)
        ignore (ok (Store.solve live ~name:"w" ~incremental:true ()))
      done;
      let incr = at_jobs 3 (fun () -> ok (Store.solve live ~name:"w" ~incremental:true ())) in
      let cold = at_jobs 1 (fun () -> ok (Store.solve mirror ~name:"w" ~incremental:true ())) in
      all_ok := !all_ok && cold.Store.components_reused = 0;
      all_ok := !all_ok && same_solution incr.Store.solution cold.Store.solution;
      !all_ok)

(* The serving-path corollary: requests coalesced onto one in-flight
   solve get the same bits as serial per-request solves.  Six threads
   push the same (workload, epoch) flight key through bccd's path — a
   single-flight cache whose leaders pass one scheduler — over a shared
   store, while a pristine mirror store is solved serially; every shared
   result must bit-match the serial answer.  Run at 1 and 3 jobs (seed
   parity picks). *)
let coalesced_matches_serial =
  QCheck.Test.make ~name:"coalesced batch solves bit-match serial solves"
    ~count:(count 8) QCheck.small_int (fun seed ->
      let jobs = if seed mod 2 = 0 then 1 else 3 in
      let rng = Rng.create (0x5C4ED + seed) in
      let live = Store.create () in
      let mirror = Store.create () in
      ignore (ok (Store.put live ~name:"w" (Store.Text cluster_text)));
      ignore (ok (Store.put mirror ~name:"w" (Store.Text cluster_text)));
      for _ = 1 to 1 + Rng.int rng 2 do
        let ops = random_ops rng in
        ignore (ok (Store.delta live ~name:"w" ops));
        ignore (ok (Store.delta mirror ~name:"w" ops))
      done;
      let reference =
        at_jobs 1 (fun () -> ok (Store.solve mirror ~name:"w" ~incremental:true ()))
      in
      let sched = Bcc_sched.Sched.create ~concurrency:1 () in
      let flights = Bcc_server.Cache.create ~capacity:1 in
      let results = Array.make 6 None in
      at_jobs jobs (fun () ->
          let ths =
            List.init 6 (fun i ->
                Thread.create
                  (fun () ->
                    match
                      Bcc_server.Cache.find_or_compute flights ~keep:(fun _ -> false)
                        "w@e" (fun () ->
                          Bcc_sched.Sched.submit sched
                            ~tenant:(Printf.sprintf "t%d" (i mod 3))
                            (fun () -> ok (Store.solve live ~name:"w" ~incremental:true ())))
                    with
                    | Ok (r, _) -> results.(i) <- Some r
                    | Error _ -> ())
                  ())
          in
          List.iter Thread.join ths);
      Array.for_all
        (function
          | None -> false
          | Some (r : Store.solved) ->
              same_solution r.Store.solution reference.Store.solution)
        results)

(* --- persistence: artifacts survive a reopen; torn files degrade --- *)

let temp_dir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  Unix.mkdir base 0o755;
  base

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = temp_dir "bcc_pipeline" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let artifacts_survive_reopen () =
  with_dir @@ fun dir ->
  let baseline =
    let s = Store.create ~dir () in
    ignore (ok (Store.put s ~name:"w" (Store.Text cluster_text)));
    let r = ok (Store.solve s ~name:"w" ~incremental:true ()) in
    Store.close s;
    r
  in
  Alcotest.(check bool) "artifact file written" true
    (Sys.file_exists (Filename.concat dir "w.artifacts"));
  let s = Store.create ~dir () in
  let r = ok (Store.solve s ~name:"w" ~incremental:true ()) in
  Store.close s;
  (* Replay re-interns property ids in snapshot order; name-keyed
     fingerprints must still hit. *)
  Alcotest.(check int) "all components reused after reopen" 3 r.Store.components_reused;
  Alcotest.(check bool) "same answer as before the restart" true
    (same_solution baseline.Store.solution r.Store.solution)

let torn_artifacts_degrade_to_cold () =
  with_dir @@ fun dir ->
  let baseline =
    let s = Store.create ~dir () in
    ignore (ok (Store.put s ~name:"w" (Store.Text cluster_text)));
    let r = ok (Store.solve s ~name:"w" ~incremental:true ()) in
    Store.close s;
    r
  in
  (* Corrupt the middle of the artifact file — a torn/garbled cache must
     silently fall back to recomputation, never a wrong answer. *)
  let path = Filename.concat dir "w.artifacts" in
  let bytes = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let mid = Bytes.length bytes / 2 in
  for i = mid to min (Bytes.length bytes - 1) (mid + 40) do
    Bytes.set bytes i '\xff'
  done;
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
  let s = Store.create ~dir () in
  let r = ok (Store.solve s ~name:"w" ~incremental:true ()) in
  Store.close s;
  Alcotest.(check bool) "not more reuse than components" true
    (r.Store.components_reused <= r.Store.components_total);
  Alcotest.(check bool) "same answer despite corruption" true
    (same_solution baseline.Store.solution r.Store.solution)

(* --- the pipeline.artifact fault point --- *)

let with_fault point action f =
  Fault.arm point action;
  Fun.protect ~finally:(fun () -> Fault.reset ()) f

let fault_throw_degrades_to_recompute () =
  let s = Store.create () in
  ignore (ok (Store.put s ~name:"w" (Store.Text cluster_text)));
  let clean = ok (Store.solve s ~name:"w" ~incremental:true ()) in
  let faulted, fired =
    with_fault "pipeline.artifact" Fault.Throw (fun () ->
        let r = ok (Store.solve s ~name:"w" ~incremental:true ()) in
        (r, Fault.fired "pipeline.artifact"))
  in
  Alcotest.(check bool) "fault fired" true (fired > 0);
  Alcotest.(check int) "no reuse under injected faults" 0 faulted.Store.components_reused;
  Alcotest.(check bool) "answer unchanged" true
    (same_solution clean.Store.solution faulted.Store.solution);
  let recovered = ok (Store.solve s ~name:"w" ~incremental:true ()) in
  Alcotest.(check int) "reuse recovers after disarm" 3 recovered.Store.components_reused

let fault_corrupt_degrades_to_recompute () =
  let s = Store.create () in
  ignore (ok (Store.put s ~name:"w" (Store.Text cluster_text)));
  let clean = ok (Store.solve s ~name:"w" ~incremental:true ()) in
  let faulted =
    with_fault "pipeline.artifact" Fault.Corrupt (fun () ->
        ok (Store.solve s ~name:"w" ~incremental:true ()))
  in
  Alcotest.(check int) "corrupted payloads all miss" 0 faulted.Store.components_reused;
  Alcotest.(check bool) "answer unchanged" true
    (same_solution clean.Store.solution faulted.Store.solution)

let suite =
  [
    Alcotest.test_case "components invariant under query permutation" `Quick
      components_permutation_invariant;
    Alcotest.test_case "components ordered by min prop, disjoint" `Quick
      components_ordered_and_disjoint;
    Alcotest.test_case "components honor keep_query" `Quick components_keep_query;
    Alcotest.test_case "derive_fingerprint stable across runs" `Quick
      derive_fingerprint_stable;
    Alcotest.test_case "derive_fingerprint independent and non-advancing" `Quick
      derive_fingerprint_independent;
    Alcotest.test_case "curve payload roundtrips" `Quick curve_roundtrip;
    Alcotest.test_case "curve payload rejects corruption and truncation" `Quick
      curve_rejects_corruption;
    Alcotest.test_case "cold pipeline bit-stable across jobs" `Quick
      pipeline_bit_stable_across_jobs;
    Alcotest.test_case "pipeline never trails IG2" `Quick pipeline_never_trails_ig2;
    Alcotest.test_case "fingerprints are content-keyed" `Quick
      pipeline_fingerprints_are_content_keyed;
    Alcotest.test_case "incremental solve reuses clean components" `Quick
      incremental_reuses_clean_components;
    Alcotest.test_case "fingerprint hints respect an options change" `Quick
      hints_respect_options_change;
    Alcotest.test_case "budget change clears artifacts" `Quick
      budget_change_clears_artifacts;
    qtest incremental_matches_cold;
    qtest coalesced_matches_serial;
    Alcotest.test_case "artifacts survive a store reopen" `Quick artifacts_survive_reopen;
    Alcotest.test_case "torn artifact file degrades to cold" `Quick
      torn_artifacts_degrade_to_cold;
    Alcotest.test_case "pipeline.artifact throw degrades to recompute" `Quick
      fault_throw_degrades_to_recompute;
    Alcotest.test_case "pipeline.artifact corrupt degrades to recompute" `Quick
      fault_corrupt_degrades_to_recompute;
  ]
