module Trace = Bcc_obs.Trace

type mode = [ `Lossless | `Paper ]

let kept_count mask = Array.fold_left (fun acc k -> if k then acc + 1 else acc) 0 mask

let rule1 ?budget ?(mode = `Lossless) ?(deadline = Bcc_robust.Deadline.none) inst =
  Trace.with_span ~name:"prune" @@ fun sp ->
  let budget = match budget with Some b -> b | None -> Instance.budget inst in
  let n = Instance.num_classifiers inst in
  let keep = Array.make n true in
  (* Total cost of the singletons at [mask]'s positions in query [qi],
     summed in ascending property order. *)
  let singleton_sum qi mask =
    let sum = ref 0.0 in
    for i = 0 to Propset.length (Instance.query inst qi) - 1 do
      if mask land (1 lsl i) <> 0 then begin
        let id = Instance.subset_id inst qi (1 lsl i) in
        sum := !sum +. if id >= 0 then Instance.cost inst id else infinity
      end
    done;
    !sum
  in
  for id = 0 to n - 1 do
    let len = Propset.length (Instance.classifier inst id) in
    if len > 1 then begin
      (* Every classifier is a subset of some query. *)
      let replacement =
        singleton_sum (Instance.queries_containing inst id).(0)
          (Instance.containing_masks inst id).(0)
      in
      let threshold =
        match mode with
        | `Lossless -> Instance.cost inst id
        | `Paper -> float_of_int len *. Instance.cost inst id
      in
      if replacement <= threshold then keep.(id) <- false
    end
  done;
  (* Budget guard: re-admit long classifiers for queries that pruning
     would make unaffordable.  The fast path — the all-singleton cover
     fits the budget — skips the exact DP. *)
  let state = Cover.create inst in
  let scratch = Covers.scratch () in
  let allowed id = keep.(id) in
  for qi = 0 to Instance.num_queries inst - 1 do
    (* The budget guard's cheapest-cover scans dominate on big
       instances; the explicit context deadline bounds them per query. *)
    Bcc_robust.Deadline.check deadline;
    (* Affordable, but only with pruned classifiers (an uncoverable
       query prices at [infinity]): re-admit the query's subsets. *)
    if
      singleton_sum qi (Cover.full_mask state qi) > budget
      && Covers.cheapest_cost scratch state ~allowed qi > budget
      && Covers.cheapest_cost scratch state qi <= budget
    then
      for mask = 1 to Cover.full_mask state qi do
        let id = Instance.subset_id inst qi mask in
        if id >= 0 then keep.(id) <- true
      done
  done;
  if Trace.recording sp then begin
    Trace.add_attr sp "total" (Trace.Int n);
    Trace.add_attr sp "kept" (Trace.Int (kept_count keep));
    Trace.add_attr sp "mode"
      (Trace.Str (match mode with `Lossless -> "lossless" | `Paper -> "paper"))
  end;
  keep
