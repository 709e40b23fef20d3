module Hypergraph = Bcc_graph.Hypergraph
module Densest = Bcc_dks.Densest
module Trace = Bcc_obs.Trace

let ratio_of (sol : Solution.t) =
  if sol.Solution.cost > 1e-12 then sol.Solution.utility /. sol.Solution.cost
  else if sol.Solution.utility > 1e-12 then infinity
  else 0.0

(* Minimal covers of query [qi] by classifiers of length <= [vertex_len],
   of cardinality <= [max_size], plus the all-singleton cover. *)
let minimal_covers inst qi ~vertex_len ~max_size =
  let q = Instance.query inst qi in
  let full = (1 lsl Propset.length q) - 1 in
  let ids = ref [] and masks = ref [] in
  for mask = full downto 1 do
    let id = Instance.subset_id inst qi mask in
    if id >= 0 && Propset.length (Instance.classifier inst id) <= vertex_len then begin
      ids := id :: !ids;
      masks := mask :: !masks
    end
  done;
  let cands = Array.of_list (List.map (Instance.classifier inst) !ids) in
  let bits = Array.of_list !masks in
  let n = Array.length cands in
  let out = ref [] in
  for i = 0 to n - 1 do
    if bits.(i) = full then out := [ cands.(i) ] :: !out
  done;
  if max_size >= 2 then
    for i = 0 to n - 1 do
      if bits.(i) <> full then
        for j = i + 1 to n - 1 do
          if bits.(j) <> full && bits.(i) lor bits.(j) = full then
            out := [ cands.(i); cands.(j) ] :: !out
        done
    done;
  if max_size >= 3 then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if bits.(i) lor bits.(j) <> full then
          for k = j + 1 to n - 1 do
            if
              bits.(i) lor bits.(j) lor bits.(k) = full
              && bits.(i) lor bits.(k) <> full
              && bits.(j) lor bits.(k) <> full
            then out := [ cands.(i); cands.(j); cands.(k) ] :: !out
          done
      done
    done;
  (* The all-singleton cover (always minimal when it exists). *)
  let k = Propset.length q in
  if k > max_size && List.for_all (fun i -> Instance.subset_id inst qi (1 lsl i) >= 0) (List.init k Fun.id)
  then out := List.map Propset.singleton (Propset.to_list q) :: !out;
  !out

let solve inst =
  Trace.with_span ~name:"ecc" @@ fun sp ->
  let l = max (Instance.max_length inst) 2 in
  let vertex_len = l - 1 in
  (* Vertex table: participating classifiers + the auxiliary v*. *)
  let vertex_of = Propset.Tbl.create 256 in
  let rev = ref [] in
  let next = ref 0 in
  let intern c =
    match Propset.Tbl.find_opt vertex_of c with
    | Some v -> v
    | None ->
        let v = !next in
        incr next;
        Propset.Tbl.add vertex_of c v;
        rev := c :: !rev;
        v
  in
  let edges = ref [] in
  let best_single = ref Solution.empty in
  for qi = 0 to Instance.num_queries inst - 1 do
    let q = Instance.query inst qi in
    let u = Instance.utility inst qi in
    let max_size = if Propset.length q <= 4 then 3 else 2 in
    List.iter
      (fun cover ->
        let nodes = List.map intern cover in
        (* Singleton covers attach to v* (added below) to avoid
           single-node hyperedges degenerating. *)
        edges := (nodes, u) :: !edges)
      (minimal_covers inst qi ~vertex_len ~max_size);
    (* The exact-match classifier candidate (length-l arm of the
       proof). *)
    if Instance.subset_id inst qi ((1 lsl Propset.length q) - 1) >= 0 then begin
      let sol = Solution.of_sets inst [ q ] in
      if ratio_of sol > ratio_of !best_single then best_single := sol
    end
  done;
  let vstar = !next in
  incr next;
  let n = !next in
  let node_costs = Array.make n 0.0 in
  List.iteri
    (fun i c ->
      let v = n - 2 - i in
      node_costs.(v) <- Instance.cost_of inst c)
    !rev;
  node_costs.(vstar) <- 0.0;
  let edge_array =
    Array.of_list
      (List.map
         (fun (nodes, u) ->
           let nodes = match nodes with [ single ] -> [ single; vstar ] | _ -> nodes in
           (Array.of_list nodes, u))
         !edges)
  in
  let densest_sol =
    if n <= 1 || Array.length edge_array = 0 then Solution.empty
    else begin
      let sel =
        if Array.for_all (fun (nodes, _) -> Array.length nodes <= 2) edge_array then begin
          (* All covers are pairs (the l <= 2 regime): the hypergraph is a
             graph and the densest subgraph is solvable exactly
             (Theorem 5.4's PTIME claim), via Dinkelbach + min-cut. *)
          let b = Bcc_graph.Graph.builder n in
          Array.iteri (fun v c -> Bcc_graph.Graph.set_node_cost b v c) node_costs;
          Array.iter
            (fun (nodes, w) ->
              match nodes with
              | [| u; v |] -> Bcc_graph.Graph.add_edge b u v w
              | _ -> assert false)
            edge_array;
          fst (Densest.exact_graph (Bcc_graph.Graph.build b))
        end
        else begin
          let h = Hypergraph.create ~node_costs ~edges:edge_array in
          fst (Densest.peel h)
        end
      in
      let classifiers = ref [] in
      List.iteri
        (fun i c ->
          let v = n - 2 - i in
          if sel.(v) then classifiers := c :: !classifiers)
        !rev;
      Solution.of_sets inst !classifiers
    end
  in
  let win_densest = ratio_of densest_sol >= ratio_of !best_single in
  if Trace.recording sp then begin
    Trace.add_attr sp "vertices" (Trace.Int n);
    Trace.add_attr sp "hyperedges" (Trace.Int (Array.length edge_array));
    Trace.add_attr sp "arm" (Trace.Str (if win_densest then "densest" else "single"))
  end;
  if win_densest then densest_sol else !best_single
