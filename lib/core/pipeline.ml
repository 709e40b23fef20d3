module Engine = Bcc_engine.Engine
module Deadline = Bcc_robust.Deadline
module Fault = Bcc_robust.Fault
module Rng = Bcc_util.Rng
module Timer = Bcc_util.Timer
module Trace = Bcc_obs.Trace
module Event = Bcc_obs.Event

let log_src = Logs.Src.create "bcc.pipeline" ~doc:"incremental solve pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

let default_grid = 8
let fault_point = "pipeline.artifact"

(* All per-component randomness descends from this constant through
   [Rng.derive_fingerprint], so a component's curve is a pure function
   of its content — independent of the workload seed, the other
   components, and the solve order.  Changing it invalidates every
   cached curve, which the format version below makes explicit. *)
let pipeline_seed = 0xBCC

(* Serialization format version: bump whenever the curve payload, the
   fingerprint canonicalization or [pipeline_seed] changes, so stale
   artifacts from older builds miss instead of parsing wrong.
   v2: component sub-solves cap the QK tick resolution by component
   content and serve the zero-budget point without a solve. *)
let format_version = 2

(* --- staged artifacts --- *)

type pruned = {
  keep : bool array;
  kept_queries : int list;
  cheapest : float array;
}

type staged_component = {
  comp : Decompose.component;
  fingerprint : string;
  sub : Instance.t Lazy.t;
  cap : float;
  comp_grid : int;
}

type point = {
  point_budget : float;
  point_utility : float;
  point_cost : float;
  sets : Propset.t list;
}

type curve = { curve_fingerprint : string; points : point array }

(* The decoded-memo bridge: a cache provider that can hold decoded
   values (the store's curve cache) hands parsed curves back without
   re-running [curve_of_string] — the dominant per-component cost of an
   all-clean incremental re-solve.  Fingerprint-keyed, so exactly as
   self-validating as the payload. *)
type Solve_ctx.decoded += Decoded_curve of curve

type component_report = {
  fingerprint : string;
  num_queries : int;
  min_prop : int;
  props : Propset.t;
  cap : float;
  reused : bool;
  best_utility : float;
  comp_wall_s : float;
}

type report = {
  outcome : Solver.outcome;
  components_total : int;
  components_reused : int;
  components : component_report list;
  wall_s : float;
}

(* --- fingerprints --- *)

(* Everything a per-component solve can observe, in a canonical order:
   the format version, the solver options, the global budget and grid,
   the component's queries (sorted by property set, so the fingerprint
   is independent of query ids and insertion order) and its classifier
   universe (every distinct finite-cost subset of a component query,
   with its cost).  Two components with equal fingerprints are the same
   subproblem, so a fingerprint-keyed cache is self-validating: a hit
   can only ever return the curve a cold solve would recompute. *)
let options_sig (o : Solver.options) =
  Printf.sprintf "p%b,pm%s,mc%b,rr%b,fs%b,mr%d,qn%d,kg%d,qk[%d,%d,%d,%d],mq%d" o.prune
    (match o.prune_mode with `Lossless -> "l" | `Paper -> "p")
    o.mc3_improve o.residual_rounds o.final_sweep o.max_rounds o.max_qk_nodes
    o.knapsack_grid o.qk.Bcc_qk.Qk.bipartitions o.qk.Bcc_qk.Qk.resolution
    o.qk.Bcc_qk.Qk.max_expensive_branches o.qk.Bcc_qk.Qk.seed o.mc3_max_queries

(* Canonical key for a property set: sorted names when the instance
   carries a symbol table, raw ids otherwise.  Name-based keys survive
   the store's replay re-interning (ids are assigned in first-sight
   order and renumber across restarts; names do not), so fingerprints —
   and therefore persisted artifacts — stay valid across process
   lifetimes. *)
let set_key names s =
  match names with
  | Some tab ->
      String.concat ";" (List.sort compare (List.map (Symtab.name tab) (Propset.to_list s)))
  | None -> String.concat "," (List.map string_of_int (Propset.to_list s))

(* Shared memo tables for a batch of fingerprints over one instance.
   Canonical keys and [%.17g] renderings repeat heavily across
   components (clustered queries share property sets, costs repeat), so
   one stage-wide context turns most of the canonicalization into hash
   lookups.  Pure memoization: the emitted bytes are identical with or
   without it. *)
type fp_ctx = {
  fp_header : int -> string;  (* grid -> header line *)
  fp_key : Propset.t -> string;
  fp_flt : float -> string;
}

let fp_ctx ~options inst =
  let names = Instance.names inst in
  let pre = Printf.sprintf "bcc-fp %d|B=%.17g|G=" format_version (Instance.budget inst) in
  let post = Printf.sprintf "|opts=%s\n" (options_sig options) in
  let keys = Hashtbl.create 512 in
  let flts = Hashtbl.create 512 in
  let fp_key s =
    match Hashtbl.find_opt keys s with
    | Some k -> k
    | None ->
        let k = set_key names s in
        Hashtbl.add keys s k;
        k
  in
  let fp_flt v =
    match Hashtbl.find_opt flts v with
    | Some s -> s
    | None ->
        let s = Printf.sprintf "%.17g" v in
        Hashtbl.add flts v s;
        s
  in
  { fp_header = (fun g -> pre ^ string_of_int g ^ post); fp_key; fp_flt }

let fingerprint_with ctx ~grid inst (comp : Decompose.component) =
  let b = Buffer.create 512 in
  Buffer.add_string b (ctx.fp_header grid);
  let queries =
    List.map
      (fun qi ->
        let q = Instance.query inst qi in
        (ctx.fp_key q, q, Instance.utility inst qi))
      comp.Decompose.queries
    |> List.sort (fun (k1, _, _) (k2, _, _) -> compare k1 k2)
  in
  List.iter
    (fun (k, _, u) ->
      Buffer.add_string b "q:";
      Buffer.add_string b k;
      Buffer.add_string b "|u=";
      Buffer.add_string b (ctx.fp_flt u);
      Buffer.add_char b '\n')
    queries;
  (* Every finite-cost classifier inside the component's queries. *)
  let ids = ref [] in
  List.iter
    (fun qi ->
      for mask = 1 to (1 lsl Propset.length (Instance.query inst qi)) - 1 do
        let id = Instance.subset_id inst qi mask in
        if id >= 0 then ids := id :: !ids
      done)
    comp.Decompose.queries;
  let classifiers =
    List.sort_uniq Int.compare !ids
    |> List.map (fun id -> (ctx.fp_key (Instance.classifier inst id), Instance.cost inst id))
    |> List.sort compare
  in
  List.iter
    (fun (k, w) ->
      Buffer.add_string b "c:";
      Buffer.add_string b k;
      Buffer.add_string b "|w=";
      Buffer.add_string b (ctx.fp_flt w);
      Buffer.add_char b '\n')
    classifiers;
  Digest.to_hex (Digest.string (Buffer.contents b))

let fingerprint ~options ~grid inst comp =
  fingerprint_with (fp_ctx ~options inst) ~grid inst comp

(* --- curve serialization --- *)

(* Self-checking payload: a one-line header with the format version,
   the fingerprint and an md5 of the body, then one [p] line per curve
   point followed by its selection sets.  Parsing is strict and total —
   any torn, truncated or bit-flipped artifact yields [None], which the
   solve treats as a miss (recompute = the cold answer). *)
let curve_to_string ?names c =
  let b = Buffer.create 1024 in
  Array.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "p %.17g %.17g %.17g %d\n" p.point_budget p.point_utility p.point_cost
           (List.length p.sets));
      List.iter (fun s -> Buffer.add_string b (Printf.sprintf "s %s\n" (set_key names s))) p.sets)
    c.points;
  let body = Buffer.contents b in
  Printf.sprintf "bcc-curve %d %s %d %s\n%s" format_version c.curve_fingerprint
    (Array.length c.points)
    (Digest.to_hex (Digest.string body))
    body

let curve_of_string ?names ~fingerprint:fp payload =
  match String.index_opt payload '\n' with
  | None -> None
  | Some nl -> (
      let header = String.sub payload 0 nl in
      let body = String.sub payload (nl + 1) (String.length payload - nl - 1) in
      match String.split_on_char ' ' header with
      | [ "bcc-curve"; version; fp'; npoints; checksum ]
        when int_of_string_opt version = Some format_version
             && fp' = fp
             && Digest.to_hex (Digest.string body) = checksum -> (
          try
            let npoints =
              match int_of_string_opt npoints with
              | Some n when n >= 0 -> n
              | _ -> failwith "npoints"
            in
            let lines = String.split_on_char '\n' body in
            let rest = ref lines in
            let next () =
              match !rest with
              | [] -> failwith "truncated"
              | l :: tl ->
                  rest := tl;
                  l
            in
            let float_of s =
              match float_of_string_opt s with Some f -> f | None -> failwith "float"
            in
            let parse_set l =
              match String.split_on_char ' ' l with
              | [ "s"; key ] -> (
                  match names with
                  | Some tab ->
                      Propset.of_list
                        (List.map
                           (fun tok ->
                             match Symtab.find tab tok with
                             | Some i -> i
                             | None -> failwith "unknown property name")
                           (String.split_on_char ';' key))
                  | None ->
                      Propset.of_list
                        (List.map
                           (fun tok ->
                             match int_of_string_opt tok with
                             | Some i when i >= 0 -> i
                             | _ -> failwith "prop id")
                           (String.split_on_char ',' key)))
              | _ -> failwith "set line"
            in
            let points =
              Array.init npoints (fun _ ->
                  match String.split_on_char ' ' (next ()) with
                  | [ "p"; bud; util; cost; nsets ] ->
                      let nsets =
                        match int_of_string_opt nsets with
                        | Some n when n >= 0 -> n
                        | _ -> failwith "nsets"
                      in
                      let sets = List.init nsets (fun _ -> parse_set (next ())) in
                      {
                        point_budget = float_of bud;
                        point_utility = float_of util;
                        point_cost = float_of cost;
                        sets;
                      }
                  | _ -> failwith "point line")
            in
            (match !rest with [] | [ "" ] -> () | _ -> failwith "trailing");
            Some { curve_fingerprint = fp; points }
          with _ -> None)
      | _ -> None)

(* Structural sanity behind the checksum: the right number of points,
   budgets on the expected grid for this component's cap, and claimed
   costs that respect their budgets.  Content equivalence is already
   carried by the fingerprint key (the payload's fingerprint and
   checksum were just verified), and the assembled selection is
   re-priced on the live cover state downstream, so a deeper per-point
   re-solve here would buy nothing but latency on the reuse path. *)
let validate_curve (staged : staged_component) (c : curve) =
  let grid = staged.comp_grid in
  Array.length c.points = grid + 1
  && Array.for_all
       (fun p ->
         Float.is_finite p.point_utility
         && Float.is_finite p.point_cost
         && p.point_cost >= 0.0
         && p.point_cost <= p.point_budget +. 1e-6)
       c.points
  &&
  let ok = ref true in
  Array.iteri
    (fun j p ->
      let b = staged.cap *. float_of_int j /. float_of_int staged.comp_grid in
      if abs_float (p.point_budget -. b) > 1e-9 *. (1.0 +. abs_float b) then ok := false)
    c.points;
  !ok

(* Cache lookup with the fault point armed-in: a [throw] arm and a
   [corrupt] arm (which scrambles the payload so the checksum fails)
   both surface as a miss — the caller recomputes, so injected faults
   degrade availability of the speedup, never correctness. *)
let lookup_cached ?names (cache : Solve_ctx.artifact_cache) (staged : staged_component) =
  match
    Fault.hit fault_point;
    (* A corrupt arm scrambles payload bytes; skip the decoded memo so
       the injected corruption still reaches the checksum. *)
    if Fault.corrupting fault_point then None
    else cache.Solve_ctx.find_decoded staged.fingerprint
  with
  | exception _ -> None
  | Some (Decoded_curve c)
    when c.curve_fingerprint = staged.fingerprint && validate_curve staged c ->
      Some c
  | _ -> (
      match cache.Solve_ctx.find staged.fingerprint with
      | exception _ -> None
      | None -> None
      | Some payload -> (
          let payload =
            if Fault.corrupting fault_point then
              String.map (fun ch -> Char.chr (Char.code ch lxor 0x5A)) payload
            else payload
          in
          match curve_of_string ?names ~fingerprint:staged.fingerprint payload with
          | Some c when validate_curve staged c ->
              (try cache.Solve_ctx.store_decoded staged.fingerprint (Decoded_curve c)
               with _ -> ());
              Some c
          | _ -> None))

let store_cached ?names (cache : Solve_ctx.artifact_cache) curve =
  try
    cache.Solve_ctx.store curve.curve_fingerprint (curve_to_string ?names curve);
    cache.Solve_ctx.store_decoded curve.curve_fingerprint (Decoded_curve curve)
  with _ -> ()

(* --- stages --- *)

let prune_stage ~options ~deadline ~pool ~note_degraded inst =
  let n = Instance.num_classifiers inst in
  let keep =
    if options.Solver.prune then
      try Prune.rule1 ~mode:options.Solver.prune_mode ~deadline inst
      with Deadline.Expired _ ->
        note_degraded "prune";
        Array.make n true
    else Array.make n true
  in
  let state = Cover.create inst in
  let budget = Instance.budget inst in
  let cheapest =
    (* Per-query cheapest covers are independent pure reads of the fresh
       cover state, so large instances fan the scan out over the engine
       pool in fixed chunks; each task writes its own index range.
       Results are identical at any job count, per-element. *)
    let nq = Instance.num_queries inst in
    let chunk = 128 in
    if nq <= chunk then begin
      let scratch = Covers.scratch () in
      Array.init nq (fun qi ->
          Deadline.check deadline;
          Covers.cheapest_cost scratch state qi)
    end
    else begin
      let out = Array.make nq infinity in
      let tasks =
        List.init ((nq + chunk - 1) / chunk) (fun k ->
            let lo = k * chunk in
            let hi = min (lo + chunk) nq - 1 in
            Engine.Task.make ~label:(Printf.sprintf "pipeline.cheapest:%d" k) (fun _ ->
                let scratch = Covers.scratch () in
                for qi = lo to hi do
                  Deadline.check deadline;
                  out.(qi) <- Covers.cheapest_cost scratch state qi
                done))
      in
      ignore (Engine.Portfolio.collect pool tasks);
      out
    end
  in
  let kept_queries =
    List.filter
      (fun qi -> cheapest.(qi) <= budget +. 1e-9)
      (List.init (Instance.num_queries inst) Fun.id)
  in
  { keep; kept_queries; cheapest }

(* Small components get a coarser curve: their caps are small, so few
   budget splits are meaningfully distinct, and halving the grid halves
   the sub-solves a dirty component costs.  The effective grid is a
   function of component content (its query count), so it feeds the
   fingerprint and the incremental == cold contract is untouched. *)
let effective_grid ~grid (comp : Decompose.component) =
  if List.length comp.Decompose.queries <= 64 then min grid 4 else grid

let component_stage ?hints ~options ~grid inst pruned =
  let affordable = Array.make (Instance.num_queries inst) false in
  List.iter (fun qi -> affordable.(qi) <- true) pruned.kept_queries;
  let budget = Instance.budget inst in
  let fpc = fp_ctx ~options inst in
  (* Hinted fingerprints: the hint key is the full fingerprint header
     (budget, grid, options, format version) plus the component's
     canonical property footprint, so a header change can never match a
     stale hint — only the query/classifier content relies on the
     provider's footprint-eviction guarantee (see {!Solve_ctx.fp_hints}).
     Name-based footprints require a symbol table; without one hints are
     ignored and every component hashes. *)
  let hinted =
    match (hints, Instance.names inst) with
    | Some h, Some tab ->
        Some
          (fun comp comp_grid ->
            (* The lookup key footprint is id-based: property ids are
               stable for the life of a hint table (the workload's
               symbol table only grows, and a re-put starts a fresh
               table), and skipping the name-map + sort on every
               component is most of an all-clean re-solve's fixed cost.
               The {e name} footprint — what delta eviction intersects —
               is only built on the miss path, once per recorded hint. *)
            let key =
              fpc.fp_header comp_grid ^ "F="
              ^ String.concat ","
                  (List.map string_of_int (Propset.to_list comp.Decompose.props))
            in
            match h.Solve_ctx.hint_find key with
            | Some fp -> fp
            | None ->
                let foot =
                  List.sort compare
                    (List.map (Symtab.name tab) (Propset.to_list comp.Decompose.props))
                in
                let fp = fingerprint_with fpc ~grid:comp_grid inst comp in
                h.Solve_ctx.hint_record key foot fp;
                fp)
    | _ -> None
  in
  List.map
    (fun comp ->
      let cap =
        min budget
          (List.fold_left (fun acc qi -> acc +. pruned.cheapest.(qi)) 0.0 comp.Decompose.queries)
      in
      let comp_grid = effective_grid ~grid comp in
      {
        comp;
        fingerprint =
          (match hinted with
          | Some f -> f comp comp_grid
          | None -> fingerprint_with fpc ~grid:comp_grid inst comp);
        sub = lazy (Instance.restrict inst comp.Decompose.queries);
        cap;
        comp_grid;
      })
    (Decompose.components ~keep_query:(fun qi -> affordable.(qi)) inst)

(* QK's tick resolution and the knapsack DP grid are sized for whole
   instances; against a small component they round costs to a
   granularity far below the cheapest classifier, blowing each pass up
   into thousands of nodes / DP rows that add no precision —
   milliseconds per curve point, which is what made a one-dirty-cluster
   incremental re-solve slower than a plain warm solve.  Cap both so a
   tick is at least a quarter of the component's cheapest positive
   classifier cost.  The caps are pure functions of component content
   (its cap budget and classifier costs) and the caller's options, so
   curves remain pure functions of component content; the
   [format_version] bump to 2 retired artifacts computed without
   them. *)
let sub_options ~options (staged : staged_component) =
  let sub = Lazy.force staged.sub in
  let min_cost = ref infinity in
  for id = 0 to Instance.num_classifiers sub - 1 do
    let c = Instance.cost sub id in
    if c > 0.0 && c < !min_cost then min_cost := c
  done;
  if staged.cap <= 0.0 || not (Float.is_finite !min_cost) then options
  else
    let bound = int_of_float (ceil (4.0 *. staged.cap /. !min_cost)) in
    let cap_to ~floor current = max floor (min current bound) in
    let res = options.Solver.qk.Bcc_qk.Qk.resolution in
    let res' = cap_to ~floor:16 res in
    let kg = options.Solver.knapsack_grid in
    let kg' = cap_to ~floor:64 kg in
    let bip = options.Solver.qk.Bcc_qk.Qk.bipartitions in
    let bip' =
      if Instance.num_queries sub <= 32 then min bip 1 else bip
    in
    if res' >= res && kg' >= kg && bip' >= bip then options
    else
      {
        options with
        Solver.knapsack_grid = min kg kg';
        Solver.qk =
          {
            options.Solver.qk with
            Bcc_qk.Qk.resolution = min res res';
            bipartitions = min bip bip';
          };
      }

let compute_curve ~options ~deadline ~pool (staged : staged_component) =
  let grid = staged.comp_grid in
  let options = sub_options ~options staged in
  let comp_rng = Rng.derive_fingerprint (Rng.create pipeline_seed) staged.fingerprint in
  let clean = ref true in
  let solve_at ?warm j b =
    let pctx = Solve_ctx.make ~deadline ?pool ?warm ~rng:(Rng.derive comp_rng j) () in
    let o =
      Solver.solve_with_ctx ~options pctx (Instance.with_budget (Lazy.force staged.sub) b)
    in
    if o.Solver.degraded then clean := false;
    ( {
        point_budget = b;
        point_utility = o.Solver.solution.Solution.utility;
        point_cost = o.Solver.solution.Solution.cost;
        sets = o.Solver.solution.Solution.classifiers;
      },
      o.Solver.solution )
  in
  (* Saturation shortcut: the full-cap point first; any lower budget the
     cap selection already fits inside reuses it verbatim.  The curve
     stays a pure function of component content (the shortcut depends
     only on the cap solve, itself deterministic), which is all the
     incremental == cold contract needs — and it skips most sub-solves,
     since caps are a loose upper bound on what a component can usefully
     spend. *)
  let top, top_sol = solve_at grid staged.cap in
  (* Budget 0 affords exactly the zero-cost classifiers, which every
     solve selects upfront — serve that point directly instead of
     running a full sub-solve to conclude it. *)
  let zero_point () =
    let sub = Lazy.force staged.sub in
    let state = Cover.create sub in
    for id = 0 to Instance.num_classifiers sub - 1 do
      if Instance.cost sub id <= 0.0 then Cover.select state id
    done;
    let sol = Solution.of_ids sub (Cover.selected state) in
    {
      point_budget = 0.0;
      point_utility = sol.Solution.utility;
      point_cost = sol.Solution.cost;
      sets = sol.Solution.classifiers;
    }
  in
  let points =
    Array.init (grid + 1) (fun j ->
        if j = grid then top
        else
          let b = staged.cap *. float_of_int j /. float_of_int grid in
          if top.point_cost <= b +. 1e-9 then { top with point_budget = b }
          else if j = 0 then zero_point ()
          else
            (* Seed the lower-budget solve from the cap solution: the
               picks that fit [b] start as the incumbent, so the rounds
               work a small residual instead of the whole component.
               The seed is itself a pure function of component content
               (the cap solve is deterministic), so points stay pure
               functions of content and the incremental == cold contract
               holds. *)
            fst (solve_at ~warm:top_sol j b))
  in
  ({ curve_fingerprint = staged.fingerprint; points }, !clean)

(* --- assembly --- *)

(* Multiple-choice knapsack over the curves: pick exactly one point per
   component (the zero-budget point doubles as "skip") maximizing total
   utility, on a tick grid with costs rounded {e up} so the assembled
   selection is always budget-feasible.  Components are disjoint, so
   utilities and costs add exactly. *)
let assembly_ticks = 1024

let assemble inst (curves : (staged_component * curve) list) =
  let budget = Instance.budget inst in
  (* An integral budget below the generic grid gets an exact DP: one
     tick per cost unit, so integer-valued point costs (the paper's
     workloads) are not rounded at all — fewer DP rows than the generic
     grid and never a worse selection (rounding up can only discard
     feasible combinations). *)
  let ticks =
    let b = int_of_float budget in
    if Float.is_integer budget && b > 0 && b < assembly_ticks then b else assembly_ticks
  in
  let tick = budget /. float_of_int ticks in
  let weight_of cost =
    if cost <= 1e-12 then 0
    else if tick <= 0.0 then ticks + 1 (* infeasible: positive cost, zero budget *)
    else int_of_float (ceil ((cost -. 1e-12) /. tick))
  in
  (* Saturated shortcut: when every curve's cap point is its strict
     utility maximum and all cap points fit the budget together, the DP
     can only pick exactly those points (any other choice loses utility
     somewhere and components are disjoint), so skip it.  Deterministic
     on instance content — incremental and cold assemble identically. *)
  let all_tops =
    tick > 0.0
    && List.for_all
         (fun (_, curve) ->
           let n = Array.length curve.points in
           n > 0
           &&
           let top = curve.points.(n - 1) in
           Array.for_all
             (fun p ->
               p == top
               || p.point_utility < top.point_utility -. 1e-12
               || (p.point_utility = top.point_utility && p.point_cost >= top.point_cost))
             curve.points)
         curves
    && List.fold_left
         (fun acc (_, curve) ->
           acc + weight_of curve.points.(Array.length curve.points - 1).point_cost)
         0 curves
       <= ticks
  in
  if all_tops then
    List.fold_left
      (fun acc (_, curve) ->
        List.rev_append curve.points.(Array.length curve.points - 1).sets acc)
      [] (List.rev curves)
  else
  let dp = ref (Array.make (ticks + 1) 0.0) in
  let choices =
    List.map
      (fun (_, curve) ->
        (* The saturation shortcut makes most low-budget points exact
           copies of the cap point, so the inner loop would rescan the
           same (weight, utility) pair many times.  Keep the first point
           of each pair — a later exact duplicate can never strictly
           beat its predecessor under the DP's [> +. 1e-12] rule, so the
           chosen points (and tie-breaks) are unchanged. *)
        let kept =
          let seen = Hashtbl.create 16 in
          let acc = ref [] in
          Array.iter
            (fun p ->
              let w = weight_of p.point_cost in
              if w <= ticks && not (Hashtbl.mem seen (w, p.point_utility)) then begin
                Hashtbl.add seen (w, p.point_utility) ();
                acc := p :: !acc
              end)
            curve.points;
          Array.of_list (List.rev !acc)
        in
        let prev = !dp in
        let next = Array.make (ticks + 1) neg_infinity in
        let choice = Array.make (ticks + 1) 0 in
        (* Unsafe accesses: [t] ranges over [w .. ticks] with
           [0 <= w <= ticks] guaranteed by the dedup filter above, and
           all three arrays have [ticks + 1] slots. *)
        Array.iteri
          (fun pi p ->
            let w = weight_of p.point_cost in
            let u = p.point_utility in
            for t = w to ticks do
              let v = Array.unsafe_get prev (t - w) +. u in
              if v > Array.unsafe_get next t +. 1e-12 then begin
                Array.unsafe_set next t v;
                Array.unsafe_set choice t pi
              end
            done)
          kept;
        (* Every curve has the zero-budget point (weight 0), so [next]
           is finite everywhere. *)
        dp := next;
        (kept, choice))
      curves
  in
  (* Walk the choices back in reverse stage order to recover the picked
     point per component. *)
  let t = ref ticks in
  let sets = ref [] in
  List.iter
    (fun (kept, choice) ->
      let p = kept.(choice.(!t)) in
      sets := List.rev_append p.sets !sets;
      t := !t - weight_of p.point_cost)
    (List.rev choices);
  !sets

(* Warm bank, mirroring the monolithic solver's re-validation: picks
   sorted by (cost, set) adopted while they fit the budget. *)
let warm_bank inst prev =
  let budget = Instance.budget inst in
  let state = Cover.create inst in
  List.filter_map (Instance.classifier_id inst) prev.Solution.classifiers
  |> List.sort_uniq compare
  |> List.map (fun id -> (Instance.cost inst id, Instance.classifier inst id, id))
  |> List.sort (fun (c1, s1, _) (c2, s2, _) ->
         match Float.compare c1 c2 with 0 -> Propset.compare s1 s2 | n -> n)
  |> List.iter (fun (cost, _, id) ->
         if (not (Cover.is_selected state id)) && Cover.spent state +. cost <= budget +. 1e-9
         then Cover.select state id);
  Solution.of_ids inst (Cover.selected state)

(* --- the pipeline --- *)

let solve ?(options = Solver.default_options) ?(grid = default_grid) (ctx : Solve_ctx.t) inst =
  Solve_ctx.with_corr ctx @@ fun () ->
  Trace.with_span ~name:"pipeline" @@ fun sp ->
  let t0 = Timer.now_s () in
  let deadline = ctx.Solve_ctx.deadline in
  let pool = Solve_ctx.pool ctx in
  let budget = Instance.budget inst in
  let ev = Event.enabled () in
  let degraded = ref false in
  let note_degraded reason =
    degraded := true;
    if ev then Event.emit "degraded" ~attrs:[ ("reason", Event.Str reason) ]
  in
  if Trace.recording sp then begin
    Trace.add_attr sp "classifiers" (Trace.Int (Instance.num_classifiers inst));
    Trace.add_attr sp "queries" (Trace.Int (Instance.num_queries inst));
    Trace.add_attr sp "budget" (Trace.Float budget)
  end;
  Deadline.with_current deadline @@ fun () ->
  match
    (* Stage 1 + 2: prune and component artifacts.  An expiry this early
       falls back to the monolithic solve, which owns graceful
       degradation — the pipeline never raises and never returns a
       worse-than-classic degraded answer. *)
    try
      let pruned =
        Trace.with_span ~name:"pipeline.prune" @@ fun _ ->
        prune_stage ~options ~deadline ~pool ~note_degraded inst
      in
      let staged =
        Trace.with_span ~name:"pipeline.components" @@ fun _ ->
        component_stage ?hints:ctx.Solve_ctx.hints ~options ~grid inst pruned
      in
      Some (pruned, staged)
    with Deadline.Expired _ ->
      note_degraded "pipeline_stages";
      None
  with
  | None ->
      let outcome = Solver.solve_with_ctx ~options ctx inst in
      {
        outcome = { outcome with Solver.degraded = true };
        components_total = 0;
        components_reused = 0;
        components = [];
        wall_s = Timer.now_s () -. t0;
      }
  | Some (pruned, staged) ->
      (* Stage 3: per-component curves — cached ones load and re-validate,
         dirty ones recompute as engine tasks in deterministic task
         order. *)
      let cached =
        Trace.with_span ~name:"pipeline.lookup" @@ fun _ ->
        match ctx.Solve_ctx.cache with
        | None -> List.map (fun _ -> None) staged
        | Some cache ->
            List.map (lookup_cached ?names:(Instance.names inst) cache) staged
      in
      let tasks =
        List.concat
          (List.map2
             (fun (s : staged_component) cached ->
               match cached with
               | Some _ -> []
               | None ->
                   [
                     Engine.Task.make
                       ~label:("pipeline.curve:" ^ String.sub s.fingerprint 0 8)
                       (fun _ ->
                         let t = Timer.now_s () in
                         let curve, clean = compute_curve ~options ~deadline ~pool:ctx.Solve_ctx.pool s in
                         (curve, clean, Timer.now_s () -. t));
                   ])
             staged cached)
      in
      let computed =
        ref
          (Trace.with_span ~name:"pipeline.curves" @@ fun _ ->
           Engine.Portfolio.collect pool tasks)
      in
      let curves =
        List.map2
          (fun (s : staged_component) cached ->
            match cached with
            | Some curve -> (s, curve, true, 0.0)
            | None -> (
                match !computed with
                | (curve, clean, wall) :: rest ->
                    computed := rest;
                    if not clean then note_degraded "component_curve";
                    (match (ctx.Solve_ctx.cache, clean) with
                    | Some cache, true -> store_cached ?names:(Instance.names inst) cache curve
                    | _ -> ());
                    (s, curve, false, wall)
                | [] -> assert false))
          staged cached
      in
      (* Stage 4: assembly — outer knapsack over the curves, leftover
         sweep, and the final race against the greedy baselines (and the
         warm bank, when the context carries one). *)
      let assembled_sets =
        Trace.with_span ~name:"pipeline.assemble" @@ fun _ ->
        assemble inst (List.map (fun ((s : staged_component), c, _, _) -> (s, c)) curves)
      in
      let structured =
        let state = Cover.create inst in
        for id = 0 to Instance.num_classifiers inst - 1 do
          if Instance.cost inst id <= 0.0 then Cover.select state id
        done;
        List.iter (fun s -> ignore (Cover.select_set state s)) assembled_sets;
        (try Solver.greedy_sweep state ~limit:(budget -. Cover.spent state)
         with Deadline.Expired _ -> note_degraded "assembly_sweep");
        Solution.of_ids inst (Cover.selected state)
      in
      let result =
        Trace.with_span ~name:"pipeline.race" @@ fun _ ->
        (* IG2 is cheap and always races.  The from-scratch greedy is an
           order of magnitude more expensive and almost never beats the
           assembled solution (which already ends in a greedy sweep of
           the leftover budget), so it only runs when the assembly
           failed to beat IG2 — a deterministic condition on instance
           content, so incremental and cold solves race identically. *)
        try
          let by_classifier =
            match
              Engine.Portfolio.collect pool
                [
                  Engine.Task.make ~label:"pipeline.race:ig2" (fun _ ->
                      Baselines.ig2 inst Baselines.Budget);
                ]
            with
            | [ s ] -> s
            | _ -> structured
          in
          if structured.Solution.utility >= by_classifier.Solution.utility then structured
          else
            let best = Solution.better structured by_classifier in
            match
              Engine.Portfolio.collect pool
                [
                  Engine.Task.make ~label:"pipeline.race:greedy" (fun _ ->
                      let greedy_state = Cover.create inst in
                      for id = 0 to Instance.num_classifiers inst - 1 do
                        if Instance.cost inst id <= 0.0 then Cover.select greedy_state id
                      done;
                      Solver.greedy_sweep greedy_state
                        ~limit:(budget -. Cover.spent greedy_state);
                      Solution.of_ids inst (Cover.selected greedy_state));
                ]
            with
            | [ by_query ] -> Solution.better best by_query
            | _ -> best
        with Deadline.Expired _ ->
          note_degraded "race";
          structured
      in
      let result =
        match ctx.Solve_ctx.warm with
        | Some prev -> Solution.better result (warm_bank inst prev)
        | None -> result
      in
      let components =
        List.map
          (fun ((s : staged_component), curve, reused, wall) ->
            {
              fingerprint = s.fingerprint;
              num_queries = List.length s.comp.Decompose.queries;
              min_prop = s.comp.Decompose.min_prop;
              props = s.comp.Decompose.props;
              cap = s.cap;
              reused;
              best_utility =
                (if Array.length curve.points = 0 then 0.0
                 else curve.points.(Array.length curve.points - 1).point_utility);
              comp_wall_s = wall;
            })
          curves
      in
      let total = List.length components in
      let reused = List.length (List.filter (fun c -> c.reused) components) in
      let wall_s = Timer.now_s () -. t0 in
      Log.debug (fun m ->
          m "pipeline: %d components, %d reused, %d kept queries, utility %.1f (%.3fs)" total
            reused
            (List.length pruned.kept_queries)
            result.Solution.utility wall_s);
      if Trace.recording sp then begin
        Trace.add_attr sp "components" (Trace.Int total);
        Trace.add_attr sp "reused" (Trace.Int reused);
        Trace.add_attr sp "utility" (Trace.Float result.Solution.utility);
        Trace.add_attr sp "degraded" (Trace.Bool !degraded)
      end;
      if ev then
        Event.emit "pipeline_reuse"
          ~attrs:
            [
              ("components", Event.Int total);
              ("reused", Event.Int reused);
              ("utility", Event.Float result.Solution.utility);
              ("wall_s", Event.Float wall_s);
            ];
      {
        outcome = { Solver.solution = result; degraded = !degraded };
        components_total = total;
        components_reused = reused;
        components;
        wall_s;
      }
