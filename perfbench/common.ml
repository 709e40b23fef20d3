(* What every workload shares: run arguments, the per-run result record,
   memory and scratch-directory helpers, and span collection. *)

module Stats = Bcc_util.Stats

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  verify : bool;
      (** false only for a traced run's untraced reference, which then
          skips drift's replay checks; the traced run makes them *)
}

(* One run's raw measurements; [Main] turns them into metrics. *)
type run = {
  setup_s : float;
  utility_total : float;  (** over every distinct answer returned *)
  peak_rss_mb : float;
  op_ms : float list;  (** latency of each timed operation, scaled (Refclock) *)
  busy_s : float;  (** time the program was busy on the run's fixed work, scaled *)
  attempted : int;
  failed : int;  (** failed or refused operations plus failed answer checks *)
  notes : string list;  (** human-readable lines printed before the result *)
  layers : (string * float) list;  (** per-layer values, traced runs only *)
}

let out_dir = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A fresh scratch directory under the checkout, removed by [f]'s end. *)
let with_tmp_dir name f =
  let d = Filename.concat out_dir (Printf.sprintf "tmp-%s-%d" name (Unix.getpid ())) in
  rm_rf d;
  mkdir_p d;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  find ()

(* CPU time (user + system) a process has used, in seconds; Linux
   reports it in clock ticks of 1/100 s. *)
let cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* Fields after the parenthesised command name, which may hold blanks. *)
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  match String.split_on_char ' ' rest with
  | _state :: _ppid :: _pgrp :: _session :: _tty :: _tpgid :: _flags :: _minflt :: _cminflt
    :: _majflt :: _cmajflt :: utime :: stime :: _ ->
      (float_of_string utime +. float_of_string stime) /. 100.0
  | _ -> failwith ("unexpected /proc stat line for pid " ^ string_of_int pid)

let now = Bcc_util.Timer.now_s

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Several set-ups, each torn down but the last; the last one's state is
   kept.  Each set-up is bracketed by reference timings and scaled by
   them ([Perfbench.Refclock]).  Returns the state, the median scaled
   set-up time (the reported one) and the median measured one. *)
let repeated_setup ~times ~setup ~teardown =
  let rec go i before scaled measured =
    let st, dt = time setup in
    let after = (Perfbench.Refclock.measure ()).wall_s in
    let scaled = Perfbench.Refclock.scale_between ~before ~after dt :: scaled and measured = dt :: measured in
    if i + 1 >= times then
      (st, Stats.median (Array.of_list scaled), Stats.median (Array.of_list measured))
    else begin
      teardown st;
      go (i + 1) (Perfbench.Refclock.measure ()).wall_s scaled measured
    end
  in
  go 0 (Perfbench.Refclock.measure ()).wall_s [] []

(* --- traced runs --- *)

(* The bench's own spans go through the program's span recorder, so the
   program's stage spans nest under them.  The ring is drained after
   every operation: its spans are folded into the self-time table and
   appended, as Chrome trace events, to a text buffer that is written
   out at the end.  Text, unlike a list of span records, is not scanned
   by the GC, so the kept trace does not slow the traced program down
   as it grows. *)
let trace_capacity = 1 lsl 18
let trace_events = Buffer.create (1 lsl 20)
let self_times : (string, Perfbench.Selftime.stat) Hashtbl.t = Hashtbl.create 32

let start_tracing () =
  Buffer.clear trace_events;
  Hashtbl.reset self_times;
  Bcc_obs.Trace.set_tracing ~capacity:trace_capacity true

(* The event list of [chrome_json]'s document, without its wrapper. *)
let chrome_events spans =
  let doc = Bcc_obs.Trace.chrome_json spans in
  let prefix = {|{"displayTimeUnit":"ms","traceEvents":[|} and suffix = "]}" in
  if not (String.starts_with ~prefix doc && String.ends_with ~suffix doc) then
    failwith "unexpected Chrome trace document";
  String.sub doc (String.length prefix) (String.length doc - String.length prefix - String.length suffix)

let drain () =
  if Bcc_obs.Trace.tracing () then begin
    if Bcc_obs.Trace.dropped () > 0 then
      failwith "span ring overflowed: raise Common.trace_capacity";
    let spans = Bcc_obs.Trace.spans () in
    Bcc_obs.Trace.clear ();
    if spans <> [] then begin
      if Buffer.length trace_events > 0 then Buffer.add_char trace_events ',';
      Buffer.add_string trace_events (chrome_events spans);
      ignore
        (Perfbench.Selftime.compute ~into:self_times
           (List.map
              (fun (s : Bcc_obs.Trace.span) ->
                { Perfbench.Selftime.name = s.Bcc_obs.Trace.name; tid = s.Bcc_obs.Trace.tid;
                  start = s.Bcc_obs.Trace.start_s; stop = s.Bcc_obs.Trace.end_s })
              spans))
    end
  end

let stop_tracing ~file =
  drain ();
  Bcc_obs.Trace.set_tracing false;
  mkdir_p out_dir;
  let oc = open_out (Filename.concat out_dir file) in
  output_string oc {|{"displayTimeUnit":"ms","traceEvents":[|};
  Buffer.output_buffer oc trace_events;
  output_string oc "]}";
  close_out oc;
  self_times

(* A bench span around one public call, tagged with the operation id
   that every span of that operation shares. *)
let span name ~op f =
  Bcc_obs.Trace.with_span ~name ~attrs:[ ("op", Bcc_obs.Trace.Str op) ] (fun _ -> f ())

(* Stage self times as per-layer values, under the names of lib/ stages. *)
let stage_layers st =
  let s name = Perfbench.Selftime.find st name in
  [
    ("stage.prune.self_s", (s "prune").self_s);
    ("stage.decompose.self_s", (s "decompose").self_s);
    ("stage.knapsack.self_s", (s "knapsack").self_s);
    ("stage.knapsack.calls", float_of_int (s "knapsack").calls);
    ("stage.qk.self_s", (s "qk").self_s);
    ("stage.qk.pipeline.self_s", (s "qk.pipeline").self_s);
    ("stage.qk.pipeline.calls", float_of_int (s "qk.pipeline").calls);
    ("stage.mc3.self_s", (s "mc3").self_s);
    ("stage.sweep.self_s", (s "sweep").self_s);
    ("stage.round.self_s", (s "round").self_s);
    ("stage.warm_seed.self_s", (s "warm_seed").self_s);
    ("stage.store.materialize.self_s", (s "store.materialize").self_s);
    ("stage.pipeline.curves.self_s", (s "pipeline.curves").self_s);
    ("stage.pipeline.components.self_s", (s "pipeline.components").self_s);
    ("stage.pipeline.assemble.self_s", (s "pipeline.assemble").self_s);
  ]

let engine_task_total () =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (Bcc_engine.Engine.task_counts ())

let gc_snapshot () =
  let g = Gc.quick_stat () in
  (g.Gc.major_collections, Gc.allocated_bytes ())

let gc_layers (maj0, alloc0) =
  let maj1, alloc1 = gc_snapshot () in
  [
    ("gc.major_collections", float_of_int (maj1 - maj0));
    ("gc.allocated_mb", (alloc1 -. alloc0) /. 1048576.0);
  ]

(* Answers compared across paths: the classifier sets by property name,
   order-free, plus utility and cost. *)
let answer_key ~names (sol : Bcc_core.Solution.t) =
  let set c = String.concat ";" (List.sort compare (List.map names (Bcc_core.Propset.to_list c))) in
  let sets = List.sort compare (List.map set sol.Bcc_core.Solution.classifiers) in
  Printf.sprintf "u=%.6f c=%.6f %s" sol.Bcc_core.Solution.utility sol.Bcc_core.Solution.cost
    (String.concat "|" sets)

(* Re-express [sets] (property-name lists) over [inst]'s ids; a name the
   instance does not know makes the answer unverifiable. *)
let sets_in inst (sets : string list list) =
  match Bcc_core.Instance.names inst with
  | None -> None
  | Some tbl ->
      let ids names =
        List.fold_right
          (fun n acc ->
            match (acc, Bcc_core.Symtab.find tbl n) with
            | Some l, Some id -> Some (id :: l)
            | _ -> None)
          names (Some [])
      in
      List.fold_right
        (fun s acc ->
          match (acc, ids s) with
          | Some l, Some l' -> Some (Bcc_core.Propset.of_list l' :: l)
          | _ -> None)
        sets (Some [])

let close_to a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)

(* Rebuild an answer from its classifier sets against the bench's own
   instance and verify it: every set is in the universe, cost and
   utility recompute to the reported values, and (unless [any_budget])
   the answer fits the budget. *)
let check_sets ?(any_budget = false) inst ~sets ~utility ~cost =
  match sets_in inst sets with
  | None -> false
  | Some ps ->
      let sol = Bcc_core.Solution.of_sets inst ps in
      let inst = if any_budget then Bcc_core.Instance.with_budget inst infinity else inst in
      List.length sol.Bcc_core.Solution.classifiers = List.length ps
      && Bcc_core.Solution.verify inst sol
      && close_to sol.Bcc_core.Solution.utility utility
      && close_to sol.Bcc_core.Solution.cost cost
