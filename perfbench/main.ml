(* The benchmark's command line:

     main.exe --workload batch|serve|drift --seed N --seconds S --trace 0|1

   runs one workload and prints a human-readable report followed, as the
   last line, by one JSON object: whether every answer checked out, how
   many operations were attempted and failed, and the metrics that
   BENCHMARK.json lists, end-to-end ones untraced and per-layer ones
   traced.  The metric names and units are read from BENCHMARK.json, so
   the file and the output cannot drift apart.  The exit code is
   non-zero when any operation failed or any answer failed its check. *)

open Common
module Json = Bcc_server.Json
module P = Perfbench.Pstats

let spec_file = "BENCHMARK.json"

let load_spec () =
  let ic = open_in_bin spec_file in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  let j = Json.of_string_exn text in
  let list name = Option.bind (Json.member name j) Json.get_list |> Option.value ~default:[] in
  let field k o = Option.bind (Json.member k o) Json.get_string |> Option.get in
  let metrics name = List.map (fun o -> (field "name" o, field "unit" o)) (list name) in
  (metrics "end_to_end", metrics "per_layer")

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME batch, serve or drift");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S how long the run measures");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
    ]
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; verify = true }

let dispatch (a : args) =
  match a.workload with
  | "batch" -> Batch.run a
  | "serve" -> Serve.run a
  | "drift" -> Drift.run a
  | w -> failwith ("unknown workload " ^ w)

(* Per build and (workload, seed, run length): the utility total every
   run must reproduce, traced or not, and the latest untraced busy time,
   against which a traced run states its overhead.  The build is the
   digest of this executable and of the daemon, so runs of other code
   (a change that moves utility on purpose) start a record of their
   own. *)
let build_id =
  lazy
    (Digest.to_hex
       (Digest.string (Digest.file Sys.executable_name ^ Digest.file Serve.bccd_exe)))

let record_file (a : args) =
  Filename.concat out_dir
    (Printf.sprintf "runs/%s/%s-%d-%g.txt" (Lazy.force build_id) a.workload a.seed a.seconds)

let read_record a =
  match open_in (record_file a) with
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          try Scanf.sscanf (input_line ic) "%f %f" (fun u b -> Some (u, b))
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
  | exception Sys_error _ -> None

let write_record a ~utility ~busy =
  mkdir_p (Filename.dirname (record_file a));
  let oc = open_out (record_file a) in
  Printf.fprintf oc "%.17g %.17g\n" utility busy;
  close_out oc

let () =
  let a = parse_args () in
  let e2e, per_layer = load_spec () in
  (* A traced run needs an untraced reference of the same inputs; only
     its busy time is used, so it skips the answer checks, which the
     traced run makes itself. *)
  let untraced_ref =
    if not a.trace then None
    else
      match read_record a with
      | Some _ as r -> r
      | None ->
          let r = dispatch { a with trace = false; verify = false } in
          if r.failed = 0 then write_record a ~utility:r.utility_total ~busy:r.busy_s;
          Some (r.utility_total, r.busy_s)
  in
  let r = dispatch a in
  let lat = r.op_ms in
  let values =
    [
      ("setup_s", r.setup_s);
      ("utility_total", r.utility_total);
      ("peak_rss_mb", r.peak_rss_mb);
      ("lat_p50_ms", Stats.median (Array.of_list lat));
      ("lat_p90_ms", Stats.percentile (Array.of_list lat) 90.0);
      ("busy_s", r.busy_s);
    ]
  in
  let deterministic =
    match read_record a with
    | Some (u, _) when u <> r.utility_total ->
        Printf.printf "%s: utility_total %.17g differs from %.17g of an earlier run of seed %d\n"
          a.workload r.utility_total u a.seed;
        false
    | _ -> true
  in
  if (not a.trace) && r.failed = 0 && deterministic then
    write_record a ~utility:r.utility_total ~busy:r.busy_s;
  let overhead =
    match untraced_ref with
    | Some (_, b) -> [ ("trace.overhead_frac", P.ratio (r.busy_s -. b) b) ]
    | None -> []
  in
  List.iter print_endline r.notes;
  let lat_summary = P.summarize lat in
  Printf.printf "%s, seed %d, %s run: %s over %d operations\n" a.workload a.seed
    (if a.trace then "traced" else "untraced")
    (P.pp_summary ~unit_:"ms" lat_summary) lat_summary.P.n;
  Printf.printf "  %-32s %14s  %s\n" "failed_frac" (Printf.sprintf "%.4f" (P.ratio (float_of_int r.failed) (float_of_int r.attempted)))
    (Printf.sprintf "ratio (%d of %d)" r.failed r.attempted);
  let metrics =
    if not a.trace then
      List.map
        (fun (name, unit_) ->
          match List.assoc_opt name values with
          | Some v -> Perfbench.Report.metric name unit_ v
          | None -> failwith ("no value for end-to-end metric " ^ name))
        e2e
    else
      List.map
        (fun (name, unit_) ->
          Perfbench.Report.metric name unit_
            (Option.value ~default:0.0 (List.assoc_opt name (r.layers @ overhead))))
        per_layer
  in
  List.iter
    (fun (m : Perfbench.Report.metric) ->
      Printf.printf "  %-32s %14.6g  %s\n" m.Perfbench.Report.name m.Perfbench.Report.value m.Perfbench.Report.unit_)
    metrics;
  let correct = r.failed = 0 && deterministic in
  print_endline (Perfbench.Report.result_line ~correct ~attempted:r.attempted ~failed:r.failed metrics);
  if not correct then exit 1
