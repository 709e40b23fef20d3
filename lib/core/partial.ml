module Heap = Bcc_util.Heap

type credit = Strict | Linear of float | Threshold of float

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

let credit_value credit ~utility ~covered ~length =
  if length = 0 then 0.0
  else begin
    let f = float_of_int covered /. float_of_int length in
    match credit with
    | Strict -> if covered = length then utility else 0.0
    | Linear alpha ->
        if alpha < 0.0 || alpha > 1.0 then invalid_arg "Partial: Linear factor out of range";
        if covered = length then utility else alpha *. f *. utility
    | Threshold theta ->
        if theta < 0.0 || theta > 1.0 then invalid_arg "Partial: threshold out of range";
        if f +. 1e-12 >= theta then utility else 0.0
  end

let query_credit credit state qi =
  let inst = Cover.instance state in
  credit_value credit
    ~utility:(Instance.utility inst qi)
    ~covered:(popcount (Cover.mask state qi))
    ~length:(Propset.length (Instance.query inst qi))

let credited_utility credit state =
  let inst = Cover.instance state in
  let acc = ref 0.0 in
  for qi = 0 to Instance.num_queries inst - 1 do
    acc := !acc +. query_credit credit state qi
  done;
  !acc

let credited_of credit inst sets =
  let state = Cover.create inst in
  List.iter (fun c -> ignore (Cover.select_set state c)) sets;
  credited_utility credit state

type result = { solution : Solution.t; credited : float }

(* Marginal credited gain of selecting classifier [id] on top of
   [state]. *)
let gain_of credit state id =
  let inst = Cover.instance state in
  let masks = Instance.containing_masks inst id in
  let gain = ref 0.0 in
  Array.iteri
    (fun j qi ->
      let len = Propset.length (Instance.query inst qi) in
      let m = Cover.mask state qi in
      let m' = m lor masks.(j) in
      if m' <> m then begin
        let u = Instance.utility inst qi in
        gain :=
          !gain
          +. credit_value credit ~utility:u ~covered:(popcount m') ~length:len
          -. credit_value credit ~utility:u ~covered:(popcount m) ~length:len
      end)
    (Instance.queries_containing inst id);
  !gain

let greedy credit inst =
  let budget = Instance.budget inst in
  let state = Cover.create inst in
  for id = 0 to Instance.num_classifiers inst - 1 do
    if Instance.cost inst id <= 0.0 then Cover.select state id
  done;
  let n = Instance.num_classifiers inst in
  let heap = Heap.create ~max:true n in
  let prio id =
    let g = gain_of credit state id in
    let c = Instance.cost inst id in
    if c <= 1e-12 then if g > 0.0 then infinity else 0.0 else g /. c
  in
  for id = 0 to n - 1 do
    if not (Cover.is_selected state id) then begin
      let p = prio id in
      if p > 0.0 then Heap.insert heap id p
    end
  done;
  let continue_ = ref true in
  while !continue_ do
    match Heap.pop heap with
    | None -> continue_ := false
    | Some (id, stale) ->
        if Cover.is_selected state id then ()
        else if Instance.cost inst id > budget -. Cover.spent state +. 1e-9 then ()
          (* never affordable again: budgets only shrink *)
        else begin
          (* Threshold credits make gains non-monotone, so re-validate at
             the top of the heap and re-insert when stale. *)
          let fresh = prio id in
          if fresh <= 0.0 then ()
          else if fresh < stale -. 1e-12 then Heap.insert heap id fresh
          else begin
            let affected = Cover.select_traced state id in
            ignore affected;
            (* Exact refresh of the classifiers whose gains the selection
               touched: all subsets of the queries containing [id]. *)
            Array.iter
              (fun qi ->
                for mask = 1 to Cover.full_mask state qi do
                  let d = Instance.subset_id inst qi mask in
                  if d >= 0 && (not (Cover.is_selected state d)) && Heap.mem heap d then
                    Heap.update heap d (prio d)
                done)
              (Instance.queries_containing inst id)
          end
        end
  done;
  state

let solve ?(credit = Linear 0.5) inst =
  let greedy_state = greedy credit inst in
  let greedy_result =
    {
      solution = Solution.of_ids inst (Cover.selected greedy_state);
      credited = credited_utility credit greedy_state;
    }
  in
  (* Best affordable single classifier (completes the submodular
     guarantee). *)
  let best_single = ref None in
  let state0 = Cover.create inst in
  for id = 0 to Instance.num_classifiers inst - 1 do
    if Instance.cost inst id <= Instance.budget inst then begin
      let g = gain_of credit state0 id in
      match !best_single with
      | Some (_, g') when g' >= g -> ()
      | _ -> best_single := Some (id, g)
    end
  done;
  let single_result =
    match !best_single with
    | Some (id, _) ->
        let sets = [ Instance.classifier inst id ] in
        Some
          {
            solution = Solution.of_sets inst sets;
            credited = credited_of credit inst sets;
          }
    | None -> None
  in
  (* Strict A^BCC is also a valid candidate (credit >= strict utility). *)
  let strict = Solver.solve inst in
  let strict_result =
    { solution = strict; credited = credited_of credit inst strict.Solution.classifiers }
  in
  let best a b = if a.credited >= b.credited then a else b in
  let r = best greedy_result strict_result in
  match single_result with Some s -> best r s | None -> r
