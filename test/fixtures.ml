(* Shared test fixtures: the paper's worked examples and random-instance
   generators used across suites. *)

module Propset = Bcc_core.Propset
module Instance = Bcc_core.Instance
module Rng = Bcc_util.Rng
module Cover = Bcc_core.Cover
module Covers = Bcc_core.Covers
module Trace = Bcc_obs.Trace
module Deadline = Bcc_robust.Deadline

let ps = Propset.of_list

(* Figure 1: Q = {xyz, xz, xy}; U = 8/1/2; C(X)=5, C(Y)=C(Z)=C(XYZ)=3,
   C(XZ)=4, C(YZ)=0, C(XY)=inf.  Properties x=0, y=1, z=2. *)
let figure1 ~budget =
  let x = 0 and y = 1 and z = 2 in
  let queries =
    [| (ps [ x; y; z ], 8.0); (ps [ x; z ], 1.0); (ps [ x; y ], 2.0) |]
  in
  let cost c =
    if Propset.equal c (ps [ x ]) then 5.0
    else if Propset.equal c (ps [ y ]) then 3.0
    else if Propset.equal c (ps [ z ]) then 3.0
    else if Propset.equal c (ps [ x; y; z ]) then 3.0
    else if Propset.equal c (ps [ x; z ]) then 4.0
    else if Propset.equal c (ps [ y; z ]) then 0.0
    else if Propset.equal c (ps [ x; y ]) then infinity
    else infinity
  in
  Instance.create ~name:"figure1" ~budget ~queries ~cost ()

(* Figure 2: Q = {xy, yz, xz}; U(xy)=2, U(yz)=1, U(xz)=1;
   C(X)=C(Y)=1, C(Z)=2, C(XY)=2, C(YZ)=1, C(XZ)=1; budget 2. *)
let figure2 ~budget =
  let x = 0 and y = 1 and z = 2 in
  let queries = [| (ps [ x; y ], 2.0); (ps [ y; z ], 1.0); (ps [ x; z ], 1.0) |] in
  let cost c =
    if Propset.equal c (ps [ x ]) then 1.0
    else if Propset.equal c (ps [ y ]) then 1.0
    else if Propset.equal c (ps [ z ]) then 2.0
    else if Propset.equal c (ps [ x; y ]) then 2.0
    else if Propset.equal c (ps [ y; z ]) then 1.0
    else if Propset.equal c (ps [ x; z ]) then 1.0
    else infinity
  in
  Instance.create ~name:"figure2" ~budget ~queries ~cost ()

(* Small random instances for oracle comparisons. *)
let random_instance ?(max_len = 3) ?(num_props = 6) ?(num_queries = 6) ~seed ~budget () =
  let rng = Rng.create seed in
  let queries =
    Array.init num_queries (fun _ ->
        let len = 1 + Rng.int rng max_len in
        let props = Rng.sample_without_replacement rng (min len num_props) num_props in
        (Propset.of_array props, float_of_int (1 + Rng.int rng 9)))
  in
  let cost c =
    let h = Rng.create ((Propset.hash c * 131) lxor seed) in
    match Rng.int h 12 with
    | 0 -> 0.0
    | 11 -> infinity
    | k -> float_of_int k
  in
  Instance.create ~name:"random" ~budget ~queries ~cost ()

let random_graph ~seed ~n ~density ~max_cost ~max_weight =
  let rng = Rng.create seed in
  let b = Bcc_graph.Graph.builder n in
  for v = 0 to n - 1 do
    Bcc_graph.Graph.set_node_cost b v (float_of_int (1 + Rng.int rng max_cost))
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.float rng 1.0 < density then
        Bcc_graph.Graph.add_edge b u v (float_of_int (1 + Rng.int rng max_weight))
    done
  done;
  Bcc_graph.Graph.build b

(* The first difference between two instances through every accessor,
   or [None]: queries, utilities and costs to the bit, classifier ids,
   the subset table, the containment index, [n], [l] and the budget.
   [probes] are extra sets whose [classifier_id] must agree (sets that
   left the universe, say). *)
let instance_diff ?(probes = []) a b =
  let bits x = Int64.bits_of_float x in
  let fail fmt = Printf.ksprintf (fun s -> raise (Failure s)) fmt in
  let str = Propset.to_string in
  let id_of inst c = Option.value ~default:(-1) (Instance.classifier_id inst c) in
  try
    if Instance.name a <> Instance.name b then
      fail "name %s vs %s" (Instance.name a) (Instance.name b);
    if bits (Instance.budget a) <> bits (Instance.budget b) then fail "budget";
    if Instance.num_queries a <> Instance.num_queries b then
      fail "num_queries %d vs %d" (Instance.num_queries a) (Instance.num_queries b);
    if Instance.num_properties a <> Instance.num_properties b then fail "num_properties";
    if Instance.max_length a <> Instance.max_length b then fail "max_length";
    if Instance.num_classifiers a <> Instance.num_classifiers b then
      fail "num_classifiers %d vs %d" (Instance.num_classifiers a) (Instance.num_classifiers b);
    for qi = 0 to Instance.num_queries a - 1 do
      let q = Instance.query a qi in
      if not (Propset.equal q (Instance.query b qi)) then
        fail "query %d: %s vs %s" qi (str q) (str (Instance.query b qi));
      if bits (Instance.utility a qi) <> bits (Instance.utility b qi) then
        fail "utility of %s" (str q);
      List.iteri
        (fun i c ->
          if Instance.subset_id a qi (i + 1) <> Instance.subset_id b qi (i + 1) then
            fail "subset_id %s mask %d" (str q) (i + 1);
          if id_of a c <> id_of b c then fail "classifier_id %s" (str c))
        (Propset.subsets q)
    done;
    for id = 0 to Instance.num_classifiers a - 1 do
      let c = Instance.classifier a id in
      if not (Propset.equal c (Instance.classifier b id)) then
        fail "classifier %d: %s vs %s" id (str c) (str (Instance.classifier b id));
      if bits (Instance.cost a id) <> bits (Instance.cost b id) then fail "cost of %s" (str c);
      if Instance.queries_containing a id <> Instance.queries_containing b id then
        fail "queries_containing %s" (str c);
      if Instance.containing_masks a id <> Instance.containing_masks b id then
        fail "containing_masks %s" (str c)
    done;
    List.iter (fun c -> if id_of a c <> id_of b c then fail "probe %s" (str c)) probes;
    None
  with Failure msg -> Some msg

(* The oracle for [Solver.greedy_sweep]: the ratio-greedy sweep as it
   was before it kept per-query prices and exited early, verbatim.  It
   prices a query (cover ids included) at every pop and re-pop. *)
let greedy_sweep_reference ?allowed state ~limit =
  Trace.with_span ~name:"sweep" @@ fun sp ->
  let inst = Cover.instance state in
  let spent0 = Cover.spent state in
  let heap = Bcc_util.Heap.create ~max:true (Instance.num_queries inst) in
  let ratio_of qi =
    match Covers.cheapest_cover ?allowed state qi with
    | None -> None
    | Some (cost, ids) ->
        let u = Instance.utility inst qi in
        Some ((if cost <= 1e-12 then infinity else u /. cost), cost, ids)
  in
  List.iter
    (fun qi ->
      match ratio_of qi with
      | Some (r, _, _) -> Bcc_util.Heap.insert heap qi r
      | None -> ())
    (Cover.uncovered_queries state);
  let parked = ref [] in
  let continue_ = ref true in
  while !continue_ do
    Deadline.poll ();
    match Bcc_util.Heap.pop heap with
    | None -> continue_ := false
    | Some (qi, _) ->
        if not (Cover.is_covered state qi) then begin
          match ratio_of qi with
          | None -> ()
          | Some (r, cost, ids) ->
              if cost <= limit -. (Cover.spent state -. spent0) +. 1e-9 then begin
                List.iter (fun id -> Cover.select state id) ids;
                (* Eagerly refresh the queries whose covers the new
                   selections may have cheapened. *)
                List.iter
                  (fun id ->
                    Array.iter
                      (fun q ->
                        if not (Cover.is_covered state q) then begin
                          match ratio_of q with
                          | Some (r', _, _) -> Bcc_util.Heap.update heap q r'
                          | None -> ignore (Bcc_util.Heap.remove heap q)
                        end)
                      (Instance.queries_containing inst id))
                  ids;
                (* And give the parked queries another chance. *)
                List.iter
                  (fun (q, pr) ->
                    if not (Bcc_util.Heap.mem heap q) then Bcc_util.Heap.insert heap q pr)
                  !parked;
                parked := []
              end
              else parked := (qi, r) :: !parked
        end
  done;
  if Trace.recording sp then begin
    Trace.add_attr sp "limit" (Trace.Float limit);
    Trace.add_attr sp "spent" (Trace.Float (Cover.spent state -. spent0))
  end
