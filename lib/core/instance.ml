type t = {
  name : string;
  names : Symtab.t option;
  budget : float;
  queries : Propset.t array;
  utilities : float array;
  classifiers : Propset.t array;
  costs : float array;
  ids : int Propset.Tbl.t; (* classifier set -> id; -1 marks infinite cost *)
  containing : int array array; (* classifier id -> query ids containing it *)
  containing_masks : int array array; (* parallel: its position mask in each *)
  sub_off : int array; (* query id -> start of its row in [subsets] *)
  subsets : int array; (* per query, per position mask 1..2^k-1: id or -1 *)
  num_properties : int;
  max_length : int;
}

let max_query_length = 16

let create ?(name = "bcc") ?names ~budget ~queries ~cost () =
  if budget < 0.0 then invalid_arg "Instance.create: negative budget";
  (* Merge duplicate queries (utilities add up), drop empty ones. *)
  let merged = Propset.Tbl.create (max (Array.length queries) 16) in
  Array.iter
    (fun (q, u) ->
      if u < 0.0 then invalid_arg "Instance.create: negative utility";
      if not (Propset.is_empty q) then begin
        let prev = try Propset.Tbl.find merged q with Not_found -> 0.0 in
        Propset.Tbl.replace merged q (prev +. u)
      end)
    queries;
  let qlist = Propset.Tbl.fold (fun q u acc -> (q, u) :: acc) merged [] in
  let qlist = List.sort (fun (a, _) (b, _) -> Propset.compare a b) qlist in
  let queries = Array.of_list (List.map fst qlist) in
  let utilities = Array.of_list (List.map snd qlist) in
  (* CL = union of the queries' power sets; infinite-cost classifiers are
     excluded from the universe but remembered (id -1) so the oracle is
     consulted only once per set.  The same pass fills the subset table:
     query [qi]'s subset at position mask [m] has id
     [subsets.(sub_off.(qi) + m - 1)]. *)
  let nq = Array.length queries in
  let sub_off = Array.make (nq + 1) 0 in
  Array.iteri
    (fun qi q ->
      let k = Propset.length q in
      if k > max_query_length then invalid_arg "Instance.create: query too long";
      sub_off.(qi + 1) <- sub_off.(qi) + (1 lsl k) - 1)
    queries;
  let subsets = Array.make sub_off.(nq) (-1) in
  let ids = Propset.Tbl.create (4 * max nq 16) in
  let rev_entries = ref [] in
  let next_id = ref 0 in
  Array.iteri
    (fun qi q ->
      List.iteri
        (fun i c ->
          let id =
            match Propset.Tbl.find_opt ids c with
            | Some id -> id
            | None ->
                let cl_cost = cost c in
                if cl_cost < 0.0 then invalid_arg "Instance.create: negative cost";
                if cl_cost = infinity then begin
                  Propset.Tbl.add ids c (-1);
                  -1
                end
                else begin
                  let id = !next_id in
                  incr next_id;
                  Propset.Tbl.add ids c id;
                  rev_entries := (c, cl_cost) :: !rev_entries;
                  id
                end
          in
          subsets.(sub_off.(qi) + i) <- id)
        (Propset.subsets q))
    queries;
  let n_cl = !next_id in
  let classifiers = Array.make (max n_cl 1) Propset.empty in
  let costs = Array.make (max n_cl 1) 0.0 in
  List.iteri
    (fun i (c, cl_cost) ->
      classifiers.(n_cl - 1 - i) <- c;
      costs.(n_cl - 1 - i) <- cl_cost)
    !rev_entries;
  (* Containment index by counting: size every row, then fill it in
     ascending query order. *)
  let count = Array.make n_cl 0 in
  Array.iter (fun id -> if id >= 0 then count.(id) <- count.(id) + 1) subsets;
  let containing = Array.init n_cl (fun id -> Array.make count.(id) 0) in
  let containing_masks = Array.init n_cl (fun id -> Array.make count.(id) 0) in
  Array.fill count 0 n_cl 0;
  for qi = 0 to nq - 1 do
    let off = sub_off.(qi) in
    for m = 1 to sub_off.(qi + 1) - off do
      let id = subsets.(off + m - 1) in
      if id >= 0 then begin
        containing.(id).(count.(id)) <- qi;
        containing_masks.(id).(count.(id)) <- m;
        count.(id) <- count.(id) + 1
      end
    done
  done;
  let props = Hashtbl.create 256 in
  Array.iter (fun q -> Propset.iter (fun p -> Hashtbl.replace props p ()) q) queries;
  let max_length = Array.fold_left (fun acc q -> max acc (Propset.length q)) 0 queries in
  {
    name;
    names;
    budget;
    queries;
    utilities;
    classifiers = (if n_cl = 0 then [||] else Array.sub classifiers 0 n_cl);
    costs = (if n_cl = 0 then [||] else Array.sub costs 0 n_cl);
    ids;
    containing;
    containing_masks;
    sub_off;
    subsets;
    num_properties = Hashtbl.length props;
    max_length;
  }

let name t = t.name
let names t = t.names
let budget t = t.budget
let with_budget t budget = { t with budget }
let num_queries t = Array.length t.queries
let query t i = t.queries.(i)
let utility t i = t.utilities.(i)
let total_utility t = Array.fold_left ( +. ) 0.0 t.utilities
let max_length t = t.max_length
let num_properties t = t.num_properties
let num_classifiers t = Array.length t.classifiers
let classifier t i = t.classifiers.(i)
let cost t i = t.costs.(i)

let classifier_id t c =
  match Propset.Tbl.find_opt t.ids c with Some id when id >= 0 -> Some id | _ -> None

let cost_of t c = match classifier_id t c with Some id -> t.costs.(id) | None -> infinity
let queries_containing t id = t.containing.(id)
let containing_masks t id = t.containing_masks.(id)
let subset_id t qi mask = t.subsets.(t.sub_off.(qi) + mask - 1)

let restrict t qids =
  let qids = List.sort_uniq compare qids in
  let queries =
    Array.of_list (List.map (fun qi -> (t.queries.(qi), t.utilities.(qi))) qids)
  in
  create ~name:t.name ?names:t.names ~budget:t.budget ~queries
    ~cost:(fun c -> cost_of t c)
    ()

let pp_summary fmt t =
  Format.fprintf fmt
    "instance %s: %d queries, %d properties, %d classifiers, l=%d, budget=%g, total utility=%g"
    t.name (num_queries t) t.num_properties (num_classifiers t) t.max_length t.budget
    (total_utility t)
