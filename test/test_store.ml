(* The workload store: delta codec and apply semantics, epoch-cached
   materialization, warm-vs-cold solve quality, snapshot + journal
   persistence (including torn tails, mid-file corruption, compaction
   and generation fencing on re-put), deadlines at the commit point, a
   live store (patched instances) against its reopened state
   directory (replayed ones), and qcheck properties over the journal
   record codec. *)

module Store = Bcc_store.Store
module Delta = Bcc_store.Delta
module Codec = Bcc_store.Codec
module Instance = Bcc_core.Instance
module Solution = Bcc_core.Solution
module Io = Bcc_data.Io
module Rng = Bcc_util.Rng
module Deadline = Bcc_robust.Deadline

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

let bad = function
  | Ok _ -> Alcotest.fail "expected `Bad, got Ok"
  | Error (`Bad _) -> ()
  | Error `Not_found -> Alcotest.fail "expected `Bad, got `Not_found"

(* Figure 1 as instance text (same optima as the bccd fixture: utility 9
   at budget 4, 11 at 11). *)
let fig_text =
  "budget 4\n\
   query x;y;z 8\n\
   query x;z 1\n\
   query x;y 2\n\
   classifier x 5\n\
   classifier y 3\n\
   classifier z 3\n\
   classifier x;y;z 3\n\
   classifier x;z 4\n\
   classifier y;z 0\n"

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
  let dir = temp_dir "bcc_store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let append_file path s =
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      Out_channel.output_string oc s)

(* --- delta codec --- *)

let delta_roundtrip () =
  let ops =
    [
      Delta.Set_budget 12.5;
      Delta.Upsert ([ "wooden"; "table" ], 8.0);
      Delta.Add ([ "round" ], 2.25);
      Delta.Remove [ "round"; "table" ];
      Delta.Set_cost ([ "wooden" ], 3.0);
      Delta.Set_cost ([ "round"; "wooden" ], infinity);
    ]
  in
  Alcotest.(check bool) "round-trips" true (Delta.parse (Delta.to_string ops) = ops);
  let expect_fail name text =
    match Delta.parse text with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Failure _ -> ()
  in
  expect_fail "malformed line" "wibble x 3";
  expect_fail "NaN utility" "upsert a nan";
  expect_fail "negative utility" "upsert a -1";
  expect_fail "infinite utility" "upsert a inf";
  expect_fail "empty property" "remove a;;b";
  expect_fail "duplicate property" "upsert a;a 3";
  expect_fail "missing field" "budget";
  (* infinity is legal for costs only: it evicts the explicit price *)
  Alcotest.(check bool) "cost inf parses" true
    (Delta.parse "cost a;b inf" = [ Delta.Set_cost ([ "a"; "b" ], infinity) ]);
  (* comments and blank lines are ignored *)
  Alcotest.(check bool) "comments skipped" true
    (Delta.parse "# drift\n\nbudget 7\n" = [ Delta.Set_budget 7.0 ])

let delta_of_log () =
  let ops, stats = Delta.of_log "wooden table\t5\nround\n" in
  Alcotest.(check int) "lines" 2 stats.Bcc_data.Log_parser.lines;
  let normalized =
    List.map
      (function Delta.Add (ps, u) -> (List.sort compare ps, u) | _ -> assert false)
      ops
    |> List.sort compare
  in
  Alcotest.(check bool) "adds with counts" true
    (normalized = [ ([ "round" ], 1.0); ([ "table"; "wooden" ], 5.0) ])

(* --- apply semantics and materialization --- *)

let apply_semantics () =
  let store = Store.create () in
  Alcotest.(check bool) "bad name rejected" true
    (match Store.put store ~name:".hidden" (Store.Text fig_text) with
    | Error (`Bad _) -> true
    | _ -> false);
  let info = ok (Store.put store ~name:"fig" (Store.Text fig_text)) in
  Alcotest.(check int) "epoch 0" 0 info.Store.epoch;
  Alcotest.(check int) "three queries" 3 info.Store.num_queries;
  let s0 = ok (Store.solve store ~name:"fig" ()) in
  Alcotest.(check (float 1e-9)) "figure1 optimum" 9.0 s0.Store.solution.Solution.utility;
  Alcotest.(check bool) "first solve is cold" false s0.Store.warm;
  (* the materialized instance is cached per epoch *)
  let s0' = ok (Store.solve store ~name:"fig" ()) in
  Alcotest.(check bool) "same-epoch instance physically shared" true
    (s0.Store.instance == s0'.Store.instance);
  Alcotest.(check bool) "second solve is warm" true s0'.Store.warm;
  (* a rejected batch leaves the workload untouched *)
  bad (Store.delta store ~name:"fig" [ Delta.Upsert ([ "x" ], -1.0) ]);
  bad (Store.delta store ~name:"fig" []);
  Alcotest.(check int) "epoch unchanged after rejected batch" 0
    (Option.get (Store.info store "fig")).Store.epoch;
  (* budget change + utility drift, applied atomically *)
  let info =
    ok
      (Store.delta store ~name:"fig"
         [ Delta.Set_budget 11.0; Delta.Add ([ "x"; "y" ], 1.0); Delta.Remove [ "x"; "z" ] ])
  in
  Alcotest.(check int) "epoch advanced" 1 info.Store.epoch;
  Alcotest.(check int) "query removed" 2 info.Store.num_queries;
  let s1 = ok (Store.solve store ~name:"fig" ()) in
  Alcotest.(check bool) "new epoch materializes a new instance" true
    (not (s1.Store.instance == s0.Store.instance));
  Alcotest.(check (float 1e-9)) "new budget" 11.0 (Instance.budget s1.Store.instance);
  (* all of figure1's per-query utility remains reachable at budget 11:
     8 + (2 + 1 drifted) = 11 *)
  Alcotest.(check (float 1e-9)) "drifted optimum" 11.0 s1.Store.solution.Solution.utility;
  Alcotest.(check bool) "warm-seeded" true s1.Store.warm;
  (* unknown workload is `Not_found, unsolved workload too *)
  Alcotest.(check bool) "unknown workload" true
    (Store.solve store ~name:"nope" () = Error `Not_found);
  ignore (ok (Store.put store ~name:"fresh" (Store.Text fig_text)));
  Alcotest.(check bool) "never-solved workload has no solution" true
    (match Store.solution store "fresh" with Error `Not_found -> true | _ -> false);
  Alcotest.(check int) "epochs committed: 2 puts + 1 delta" 3
    (Store.epochs_committed store);
  Store.close store

(* --- warm vs cold (the acceptance bar: small delta -> warm >= cold) --- *)

let drifting_log n =
  String.concat ""
    (List.init n (fun i ->
         Printf.sprintf "w%d x%d\t%d\n" (i mod 8) (i mod 5) (5 + (i * 7 mod 23))))

let warm_never_trails_cold () =
  let store = Store.create () in
  ignore (ok (Store.put store ~name:"drift" ~budget:90.0 (Store.Log (drifting_log 40))));
  let s0 = ok (Store.solve store ~name:"drift" ()) in
  Alcotest.(check bool) "baseline solve has utility" true
    (s0.Store.solution.Solution.utility > 0.0);
  (* 2 of 40 queries change (5%) *)
  ignore
    (ok
       (Store.delta store ~name:"drift"
          [ Delta.Upsert ([ "w1"; "x1" ], 60.0); Delta.Add ([ "w2"; "x2" ], 25.0) ]));
  let warm = ok (Store.solve store ~name:"drift" ()) in
  Alcotest.(check bool) "warm-seeded" true warm.Store.warm;
  Alcotest.(check bool) "seed re-validated to a positive utility" true
    (warm.Store.seed_utility > 0.0);
  let cold = ok (Store.solve store ~name:"drift" ~cold:true ()) in
  Alcotest.(check bool) "cold solve is cold" false cold.Store.warm;
  Alcotest.(check bool)
    (Printf.sprintf "warm (%.1f) >= cold (%.1f)" warm.Store.solution.Solution.utility
       cold.Store.solution.Solution.utility)
    true
    (warm.Store.solution.Solution.utility >= cold.Store.solution.Solution.utility -. 1e-9);
  (* warm ratio got exported *)
  (match (Option.get (Store.info store "drift")).Store.warm_ratio with
  | Some r -> Alcotest.(check bool) "warm ratio in (0, 1]" true (r > 0.0 && r <= 1.0 +. 1e-9)
  | None -> Alcotest.fail "warm_ratio missing after a warm solve");
  Store.close store

(* The solver-level guarantee behind it: the result never trails its own
   re-validated seed, even when the seed is junk for the new instance. *)
let solver_warm_contract () =
  let inst = Io.load_string ~name:"fig" fig_text in
  let cold = Bcc_core.Solver.solve inst in
  let shifted = Instance.with_budget inst 3.0 in
  (* warm seed from a bigger budget: picks that no longer fit are
     dropped, and the result is still feasible and >= the seed *)
  let warm = Bcc_core.Solver.solve ~warm:cold shifted in
  Alcotest.(check bool) "feasible under the tighter budget" true
    (Solution.verify shifted warm);
  let reseeded = Bcc_core.Solver.solve ~warm:cold inst in
  Alcotest.(check (float 1e-9)) "same instance + own seed keeps the optimum"
    cold.Solution.utility reseeded.Solution.utility

(* --- persistence --- *)

let persistence_roundtrip () =
  with_dir @@ fun dir ->
  let epoch1_solution =
    let store = Store.create ~dir () in
    ignore (ok (Store.put store ~name:"fig" (Store.Text fig_text)));
    ignore
      (ok (Store.delta store ~name:"fig" [ Delta.Set_budget 11.0; Delta.Add ([ "y" ], 3.0) ]));
    let s = ok (Store.solve store ~name:"fig" ()) in
    Store.close store;
    s
  in
  (* reopen: same epoch, same committed solution, and the journal keeps
     working *)
  let store = Store.create ~dir () in
  let info = Option.get (Store.info store "fig") in
  Alcotest.(check int) "epoch recovered" 1 info.Store.epoch;
  Alcotest.(check (option int)) "solved epoch recovered" (Some 1) info.Store.solved_epoch;
  let s = ok (Store.solution store "fig") in
  Alcotest.(check (float 1e-9)) "utility recovered"
    epoch1_solution.Store.solution.Solution.utility s.Store.solution.Solution.utility;
  Alcotest.(check (float 1e-9)) "cost recovered"
    epoch1_solution.Store.solution.Solution.cost s.Store.solution.Solution.cost;
  Alcotest.(check bool) "replay time measured" true (Store.replay_seconds store >= 0.0);
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "x"; "y" ], 1.0) ]));
  Alcotest.(check int) "journal usable after replay" 2
    (Option.get (Store.info store "fig")).Store.epoch;
  Store.close store

let torn_tail_truncated () =
  with_dir @@ fun dir ->
  let store = Store.create ~dir () in
  ignore (ok (Store.put store ~name:"fig" (Store.Text fig_text)));
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "y" ], 3.0) ]));
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "z" ], 2.0) ]));
  Store.close store;
  let journal = Filename.concat dir "fig.journal" in
  let intact = read_file journal in
  (* a crash mid-append: half a record at the tail *)
  append_file journal "@rec delta gXXX 3 250 0123456789abcdef0123456789abcdef\npartial";
  let store = Store.create ~dir () in
  Alcotest.(check int) "committed epochs survive" 2
    (Option.get (Store.info store "fig")).Store.epoch;
  Alcotest.(check string) "torn tail truncated from the file" intact (read_file journal);
  (* and appends continue cleanly after the truncation *)
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "x" ], 1.0) ]));
  Store.close store;
  let store = Store.create ~dir () in
  Alcotest.(check int) "post-recovery delta survives too" 3
    (Option.get (Store.info store "fig")).Store.epoch;
  Store.close store

let mid_journal_corruption () =
  with_dir @@ fun dir ->
  let store = Store.create ~dir () in
  ignore (ok (Store.put store ~name:"fig" (Store.Text fig_text)));
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "y" ], 3.0) ]));
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "z" ], 2.0) ]));
  Store.close store;
  let journal = Filename.concat dir "fig.journal" in
  let bytes = Bytes.of_string (read_file journal) in
  (* flip a payload byte of the SECOND record: its checksum breaks, so
     replay keeps epoch 1 and distrusts everything after *)
  Bytes.set bytes (Bytes.length bytes - 3)
    (match Bytes.get bytes (Bytes.length bytes - 3) with '0' -> '1' | _ -> '0');
  Out_channel.with_open_bin journal (fun oc -> Out_channel.output_bytes oc bytes);
  let store = Store.create ~dir () in
  Alcotest.(check int) "intact prefix survives corruption" 1
    (Option.get (Store.info store "fig")).Store.epoch;
  Store.close store

let compaction_folds_journal () =
  with_dir @@ fun dir ->
  let store = Store.create ~dir ~compact_bytes:64 () in
  ignore (ok (Store.put store ~name:"fig" (Store.Text fig_text)));
  for i = 1 to 5 do
    ignore
      (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "y" ], float_of_int i) ]))
  done;
  (* every delta record exceeds 64 bytes, so each commit compacts *)
  let info = Option.get (Store.info store "fig") in
  Alcotest.(check int) "journal folded into the snapshot" 0 info.Store.journal_bytes;
  Alcotest.(check int) "epochs intact" 5 info.Store.epoch;
  Store.close store;
  let store = Store.create ~dir ~compact_bytes:64 () in
  let info = Option.get (Store.info store "fig") in
  Alcotest.(check int) "compacted state replays" 5 info.Store.epoch;
  (* the folded utility drift is really in the materialized instance:
     query y accumulated 1+2+3+4+5 on top of nothing *)
  let s = ok (Store.solve store ~name:"fig" ~cold:true ()) in
  let inst = s.Store.instance in
  let found = ref false in
  for qi = 0 to Instance.num_queries inst - 1 do
    if Instance.utility inst qi = 15.0 then found := true
  done;
  Alcotest.(check bool) "accumulated adds survive compaction" true !found;
  Store.close store

(* A re-put starts a new generation: journal records from the previous
   life must not replay onto the new base, even if the crash happened
   before the journal truncation hit the disk. *)
let put_fences_old_generation () =
  with_dir @@ fun dir ->
  let store = Store.create ~dir () in
  ignore (ok (Store.put store ~name:"fig" (Store.Text fig_text)));
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "y" ], 3.0) ]));
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "z" ], 2.0) ]));
  Store.close store;
  let journal = Filename.concat dir "fig.journal" in
  let old_records = read_file journal in
  let store = Store.create ~dir () in
  ignore (ok (Store.put store ~name:"fig" (Store.Text fig_text)));
  Store.close store;
  (* simulate the crash window: old-generation records still (or again)
     in the journal after the new-generation snapshot landed *)
  append_file journal old_records;
  let store = Store.create ~dir () in
  Alcotest.(check int) "old-generation records are fenced off" 0
    (Option.get (Store.info store "fig")).Store.epoch;
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "x" ], 1.0) ]));
  Alcotest.(check int) "new generation advances normally" 1
    (Option.get (Store.info store "fig")).Store.epoch;
  Store.close store

(* --- solution codec --- *)

let solution_codec () =
  let inst = Io.load_string ~name:"fig" fig_text in
  let sol = Bcc_core.Solver.solve inst in
  let text = Codec.solution_to_string inst sol in
  let back = Codec.solution_of_string inst text in
  Alcotest.(check (float 1e-9)) "utility round-trips" sol.Solution.utility
    back.Solution.utility;
  Alcotest.(check (float 1e-9)) "cost round-trips" sol.Solution.cost back.Solution.cost;
  (* the same file format Io.save_solution writes loads as a warm seed *)
  let file = Filename.temp_file "bcc_sol" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Io.save_solution file inst sol;
      let loaded = Codec.solution_of_string inst (read_file file) in
      Alcotest.(check (float 1e-9)) "Io.save_solution interchanges" sol.Solution.utility
        loaded.Solution.utility);
  (* lenient mode drops drifted selections; strict refuses them *)
  let drifted = text ^ "select nosuch;props 9\n" in
  Alcotest.(check (float 1e-9)) "unknown selection dropped leniently"
    sol.Solution.utility (Codec.solution_of_string inst drifted).Solution.utility;
  (match Codec.solution_of_string ~strict:true inst drifted with
  | _ -> Alcotest.fail "strict mode accepted an unknown selection"
  | exception Failure _ -> ());
  match Codec.solution_of_string inst "select\n" with
  | _ -> Alcotest.fail "malformed select line accepted"
  | exception Failure _ -> ()

(* --- qcheck: journal record codec --- *)

let gen_record rng =
  let token () =
    let n = 1 + Rng.int rng 8 in
    String.init n (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26))
  in
  let payload =
    (* arbitrary bytes, newlines and NULs included: framing is by length *)
    String.init (Rng.int rng 200) (fun _ -> Char.chr (Rng.int rng 256))
  in
  { Codec.kind = token (); generation = token (); epoch = Rng.int rng 1000; payload }

let codec_roundtrip =
  QCheck.Test.make ~name:"codec: encode/decode round-trips" ~count:(count 200)
    QCheck.small_int (fun seed ->
      let rng = Rng.create (0x5374 lxor seed) in
      let records = List.init (1 + Rng.int rng 6) (fun _ -> gen_record rng) in
      let bytes = String.concat "" (List.map Codec.encode records) in
      let decoded, tail = Codec.decode bytes in
      decoded = records && tail = 0)

let codec_truncation =
  QCheck.Test.make ~name:"codec: any truncation yields a committed prefix"
    ~count:(count 200) QCheck.small_int (fun seed ->
      let rng = Rng.create (0x7472 lxor seed) in
      let records = List.init (1 + Rng.int rng 5) (fun _ -> gen_record rng) in
      let encodings = List.map Codec.encode records in
      let bytes = String.concat "" encodings in
      let cut = Rng.int rng (String.length bytes + 1) in
      let truncated = String.sub bytes 0 cut in
      let decoded, tail = Codec.decode truncated in
      (* expected: the longest whole-record prefix that fits in [cut] *)
      let rec prefix acc len = function
        | e :: rest when len + String.length e <= cut ->
            prefix (acc + 1) (len + String.length e) rest
        | _ -> (acc, len)
      in
      let n_expected, len_expected = prefix 0 0 encodings in
      List.length decoded = n_expected
      && decoded = List.filteri (fun i _ -> i < n_expected) records
      && tail = cut - len_expected)

(* --- deadlines and durability --- *)

(* A delta refused by an expired deadline must not reach the journal:
   replay keeps the first record at an epoch, so a refused record would
   replace the next accepted delta after a restart. *)
let refused_delta_not_replayed () =
  with_dir @@ fun dir ->
  let queries_of (s : Store.solved) =
    let inst = s.Store.instance in
    List.init (Instance.num_queries inst) (fun qi ->
        Bcc_core.Propset.to_string ?names:(Instance.names inst) (Instance.query inst qi))
  in
  let store = Store.create ~dir () in
  ignore (ok (Store.put store ~name:"w" (Store.Text "budget 5\nquery a;b 3\nclassifier a 1\n")));
  (match
     Deadline.with_current (Deadline.after 0.) (fun () ->
         Store.delta store ~name:"w" [ Delta.Upsert ([ "x" ], 1.0) ])
   with
  | exception Deadline.Expired _ -> ()
  | _ -> Alcotest.fail "an expired deadline must refuse the delta");
  Alcotest.(check int) "refused delta leaves the epoch" 0
    (Option.get (Store.info store "w")).Store.epoch;
  let info = ok (Store.delta store ~name:"w" [ Delta.Upsert ([ "y" ], 2.0) ]) in
  Alcotest.(check int) "accepted delta is epoch 1" 1 info.Store.epoch;
  let live = queries_of (ok (Store.solve store ~name:"w" ())) in
  Alcotest.(check (list string)) "live workload" [ "{y}"; "{a, b}" ] live;
  Store.close store;
  let store = Store.create ~dir () in
  Alcotest.(check (list string)) "replayed workload" live
    (queries_of (ok (Store.solve store ~name:"w" ~cold:true ())));
  Store.close store

(* --- patched instances vs replayed ones --- *)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          Out_channel.output_string oc (read_file (Filename.concat src f))))
    (Sys.readdir src)

let random_ops rng =
  (* "g" is new to every starting workload *)
  let vocab = [| "a"; "b"; "c"; "d"; "e"; "g" |] in
  let props () =
    List.sort_uniq compare
      (List.init (1 + Rng.int rng 3) (fun _ -> vocab.(Rng.int rng (Array.length vocab))))
  in
  List.init
    (1 + Rng.int rng 4)
    (fun _ ->
      match Rng.int rng 10 with
      | 0 -> Delta.Set_budget (float_of_int (Rng.int rng 30))
      | 1 | 2 -> Delta.Upsert (props (), float_of_int (Rng.int rng 10))
      | 3 -> Delta.Add (props (), float_of_int (1 + Rng.int rng 5))
      | 4 | 5 -> Delta.Remove (props ())
      | 6 | 7 -> Delta.Set_cost (props (), float_of_int (Rng.int rng 6))
      | _ -> Delta.Set_cost (props (), infinity))

let same_solved what (a : Store.solved) (b : Store.solved) =
  let sa = a.Store.solution and sb = b.Store.solution in
  if
    not
      (List.equal Bcc_core.Propset.equal sa.Solution.classifiers sb.Solution.classifiers
      && Int64.bits_of_float sa.Solution.utility = Int64.bits_of_float sb.Solution.utility
      && Int64.bits_of_float sa.Solution.cost = Int64.bits_of_float sb.Solution.cost)
  then
    QCheck.Test.fail_reportf "%s answers differ: utility %g vs %g, cost %g vs %g, %s vs %s" what
      sa.Solution.utility sb.Solution.utility sa.Solution.cost sb.Solution.cost
      (String.concat " " (List.map Bcc_core.Propset.to_string sa.Solution.classifiers))
      (String.concat " " (List.map Bcc_core.Propset.to_string sb.Solution.classifiers))

(* A live store, whose instances are patched epoch to epoch, against a
   copy of its state directory reopened by a second store, whose
   instances replay builds from the whole workload: the same instance,
   and the same warm, cold and incremental answers. *)
let patched_equals_replayed =
  QCheck.Test.make ~name:"live (patched) store = reopened (replayed) store" ~count:(count 12)
    QCheck.small_int (fun seed ->
      with_dir @@ fun dir ->
      let rng = Rng.create seed in
      let source =
        if Rng.bool rng then Store.Text fig_text
        else Store.Log "x y\t3\ny z\t2\na b\t4\nb\t1\nc d e\t2\n"
      in
      let store = Store.create ~dir ~compact_bytes:(if Rng.bool rng then 256 else 1 lsl 20) () in
      ignore (ok (Store.put store ~name:"w" source));
      for _ = 1 to 2 + Rng.int rng 10 do
        ignore (ok (Store.delta store ~name:"w" (random_ops rng)));
        match Rng.int rng 3 with
        | 0 -> ignore (ok (Store.solve store ~name:"w" ()))
        | 1 -> ignore (ok (Store.solve store ~name:"w" ~incremental:true ()))
        | _ -> ()
      done;
      let dir2 = dir ^ ".copy" in
      copy_dir dir dir2;
      Fun.protect ~finally:(fun () -> rm_rf dir2) @@ fun () ->
      let reopened = Store.create ~dir:dir2 () in
      (match (Store.solution store "w", Store.solution reopened "w") with
      | Ok a, Ok b -> same_solved (Printf.sprintf "seed %d: committed" seed) a b
      | Error _, Error _ -> ()
      | _ -> QCheck.Test.fail_reportf "seed %d: only one store has a solution" seed);
      let warm = ok (Store.solve store ~name:"w" ()) in
      let warm' = ok (Store.solve reopened ~name:"w" ()) in
      (match Fixtures.instance_diff warm.Store.instance warm'.Store.instance with
      | Some msg -> QCheck.Test.fail_reportf "seed %d: instances differ: %s" seed msg
      | None -> ());
      same_solved (Printf.sprintf "seed %d: warm" seed) warm warm';
      same_solved (Printf.sprintf "seed %d: cold" seed)
        (ok (Store.solve store ~name:"w" ~cold:true ()))
        (ok (Store.solve reopened ~name:"w" ~cold:true ()));
      same_solved (Printf.sprintf "seed %d: incremental" seed)
        (ok (Store.solve store ~name:"w" ~incremental:true ()))
        (ok (Store.solve reopened ~name:"w" ~incremental:true ()));
      Store.close store;
      Store.close reopened;
      true)

let suite =
  [
    ("delta: codec round-trip and rejects", `Quick, delta_roundtrip);
    ("delta: of_log", `Quick, delta_of_log);
    ("store: apply semantics + epoch cache", `Quick, apply_semantics);
    ("store: warm re-solve never trails cold", `Quick, warm_never_trails_cold);
    ("solver: warm seed contract", `Quick, solver_warm_contract);
    ("persistence: snapshot + journal round-trip", `Quick, persistence_roundtrip);
    ("persistence: torn tail truncated, not fatal", `Quick, torn_tail_truncated);
    ("persistence: mid-journal corruption keeps prefix", `Quick, mid_journal_corruption);
    ("persistence: compaction folds the journal", `Quick, compaction_folds_journal);
    ("persistence: re-put fences the old generation", `Quick, put_fences_old_generation);
    ("solution codec: round-trip, lenient drift, strict", `Quick, solution_codec);
    qtest codec_roundtrip;
    qtest codec_truncation;
    ("durability: a refused delta is never replayed", `Quick, refused_delta_not_replayed);
    qtest patched_equals_replayed;
  ]
