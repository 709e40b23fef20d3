let check_beta beta =
  if beta < 0.0 || beta > 1.0 then invalid_arg "Overlap: beta out of range"

let share inst id =
  Instance.cost inst id /. float_of_int (Propset.length (Instance.classifier inst id))

(* Cost of a selection under the shared-training-data discount: per
   property, the most expensive share is paid in full, the rest at
   (1 - beta). *)
let set_cost ?(beta = 0.3) inst ids =
  check_beta beta;
  let ids = List.sort_uniq compare ids in
  let by_prop : (int, float list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun id ->
      let s = share inst id in
      Propset.iter
        (fun p ->
          match Hashtbl.find_opt by_prop p with
          | Some cell -> cell := s :: !cell
          | None -> Hashtbl.add by_prop p (ref [ s ]))
        (Instance.classifier inst id))
    ids;
  Hashtbl.fold
    (fun _ cell acc ->
      match List.sort (fun a b -> compare b a) !cell with
      | [] -> acc
      | most :: rest ->
          acc +. most +. ((1.0 -. beta) *. List.fold_left ( +. ) 0.0 rest))
    by_prop 0.0

let marginal_cost ?(beta = 0.3) inst ~selected id =
  check_beta beta;
  if List.mem id selected then 0.0
  else begin
    (* Incremental: for each property of [id], the newcomer either pays
       the discounted share, or becomes the new maximum and pays full
       while the previous maximum drops to discounted. *)
    let prop_max : (int, float) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun d ->
        let s = share inst d in
        Propset.iter
          (fun p ->
            match Hashtbl.find_opt prop_max p with
            | Some m when m >= s -> ()
            | _ -> Hashtbl.replace prop_max p s)
          (Instance.classifier inst d))
      selected;
    let s = share inst id in
    Propset.fold
      (fun acc p ->
        match Hashtbl.find_opt prop_max p with
        | None -> acc +. s
        | Some m when s <= m -> acc +. ((1.0 -. beta) *. s)
        | Some m -> acc +. s -. (beta *. m))
      0.0 (Instance.classifier inst id)
  end

type result = { solution : Solution.t; overlap_cost : float }

let greedy beta inst =
  let budget = Instance.budget inst in
  let state = Cover.create inst in
  let selected = ref [] in
  let spent = ref 0.0 in
  for id = 0 to Instance.num_classifiers inst - 1 do
    if Instance.cost inst id <= 0.0 then begin
      Cover.select state id;
      selected := id :: !selected
    end
  done;
  let n = Instance.num_classifiers inst in
  (* Per-property maximum share of the current selection, maintained
     incrementally so each candidate's marginal cost is O(|c|). *)
  let prop_max : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let absorb id =
    let s = share inst id in
    Propset.iter
      (fun p ->
        match Hashtbl.find_opt prop_max p with
        | Some m when m >= s -> ()
        | _ -> Hashtbl.replace prop_max p s)
      (Instance.classifier inst id)
  in
  List.iter absorb !selected;
  let quick_marginal id =
    let s = share inst id in
    Propset.fold
      (fun acc p ->
        match Hashtbl.find_opt prop_max p with
        | None -> acc +. s
        | Some m when s <= m -> acc +. ((1.0 -. beta) *. s)
        | Some m -> acc +. s -. (beta *. m))
      0.0 (Instance.classifier inst id)
  in
  let continue_ = ref true in
  while !continue_ do
    (* Full scan each iteration: marginal costs depend on the whole
       selection, and instances at this extension's scale are modest. *)
    let best = ref None in
    for id = 0 to n - 1 do
      if not (Cover.is_selected state id) then begin
        let mc = quick_marginal id in
        if mc <= budget -. !spent +. 1e-9 then begin
          (* Strict marginal gain via cover masks (no cloning). *)
          let masks = Instance.containing_masks inst id in
          let gain = ref 0.0 in
          Array.iteri
            (fun j qi ->
              let full = Cover.full_mask state qi in
              let m = Cover.mask state qi in
              if m <> full && m lor masks.(j) = full then
                gain := !gain +. Instance.utility inst qi)
            (Instance.queries_containing inst id);
          let gain = !gain in
          if gain > 1e-12 then begin
            let ratio = gain /. max mc 1e-9 in
            match !best with
            | Some (_, _, r) when r >= ratio -> ()
            | _ -> best := Some (id, mc, ratio)
          end
        end
      end
    done;
    match !best with
    | Some (id, mc, _) ->
        Cover.select state id;
        selected := id :: !selected;
        absorb id;
        spent := !spent +. mc
    | None -> continue_ := false
  done;
  (Cover.selected state, set_cost ~beta inst (Cover.selected state))

let solve ?(beta = 0.3) inst =
  check_beta beta;
  let greedy_ids, greedy_cost = greedy beta inst in
  let greedy_result =
    { solution = Solution.of_ids inst greedy_ids; overlap_cost = greedy_cost }
  in
  (* The independent-cost solver's output re-priced under the overlap
     model: costs only shrink, so feasibility is preserved. *)
  let strict = Solver.solve inst in
  let strict_ids =
    List.filter_map (fun c -> Instance.classifier_id inst c) strict.Solution.classifiers
  in
  let strict_result =
    { solution = strict; overlap_cost = set_cost ~beta inst strict_ids }
  in
  if greedy_result.solution.Solution.utility >= strict_result.solution.Solution.utility
  then greedy_result
  else strict_result
