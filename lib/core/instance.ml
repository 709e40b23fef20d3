type t = {
  name : string;
  names : Symtab.t option;
  budget : float;
  queries : Propset.t array;
  utilities : float array;
  classifiers : Propset.t array;
  costs : float array;
  ids : int Propset.Tbl.t; (* classifier set -> id; [create] keeps -1 for infinite cost *)
  containing : int array array; (* classifier id -> query ids containing it *)
  containing_masks : int array array; (* parallel: its position mask in each *)
  sub_off : int array; (* query id -> start of its row in [subsets] *)
  subsets : int array; (* per query, per position mask 1..2^k-1: id or -1 *)
  num_properties : int;
  max_length : int;
}

let max_query_length = 16

(* What [create] and [patch] both derive from the queries and the
   subset table: the containment index, [n] and [l]. *)
let finish ~name ~names ~budget ~queries ~utilities ~classifiers ~costs ~ids ~sub_off ~subsets =
  let n_cl = Array.length classifiers in
  let nq = Array.length queries in
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
  (* Distinct properties: a marker per id between the smallest and the
     largest (ids are interned, so the range is dense). *)
  let lo = ref max_int and hi = ref min_int and max_length = ref 0 in
  Array.iter
    (fun q ->
      Propset.iter
        (fun p ->
          if p < !lo then lo := p;
          if p > !hi then hi := p)
        q;
      max_length := Int.max !max_length (Propset.length q))
    queries;
  let num_properties =
    if !hi < !lo then 0
    else begin
      let seen = Bytes.make (!hi - !lo + 1) '\000' in
      let n = ref 0 in
      Array.iter
        (Propset.iter (fun p ->
             if Bytes.get seen (p - !lo) = '\000' then begin
               Bytes.set seen (p - !lo) '\001';
               incr n
             end))
        queries;
      !n
    end
  in
  {
    name;
    names;
    budget;
    queries;
    utilities;
    classifiers;
    costs;
    ids;
    containing;
    containing_masks;
    sub_off;
    subsets;
    num_properties;
    max_length = !max_length;
  }

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
  let classifiers = Array.make n_cl Propset.empty in
  let costs = Array.make n_cl 0.0 in
  List.iteri
    (fun i (c, cl_cost) ->
      classifiers.(n_cl - 1 - i) <- c;
      costs.(n_cl - 1 - i) <- cl_cost)
    !rev_entries;
  finish ~name ~names ~budget ~queries ~utilities ~classifiers ~costs ~ids ~sub_off ~subsets

(* Index of [q] in the sorted [qs], or the insertion point. *)
let search qs q =
  let rec go lo hi =
    if lo >= hi then (lo, false)
    else
      let mid = (lo + hi) / 2 in
      let c = Propset.compare qs.(mid) q in
      if c = 0 then (mid, true) else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length qs)

(* [patch] renumbers in a key space: the previous instance's ids
   [0, n_old) and, past them, the sets that enter the universe with this
   patch.  One pass over the subset table in query and mask order then
   hands out ids first-seen, exactly the order in which [create] meets
   them.  Nothing [prev] owns is written to: its arrays and its id table
   are only read. *)
let patch ?name ~budget ~changes ~repriced ~cost prev =
  if budget < 0.0 then invalid_arg "Instance.patch: negative budget";
  let name = Option.value name ~default:prev.name in
  List.iter
    (fun (q, u) ->
      match u with
      | Some u when u < 0.0 -> invalid_arg "Instance.patch: negative utility"
      | Some _ when Propset.length q > max_query_length ->
          invalid_arg "Instance.patch: query too long"
      | _ -> ())
    changes;
  let changes =
    List.filter (fun (q, _) -> not (Propset.is_empty q)) changes
    |> List.sort (fun (a, _) (b, _) -> Propset.compare a b)
    |> Array.of_list
  in
  Array.iteri
    (fun i (q, _) ->
      if i > 0 && Propset.equal (fst changes.(i - 1)) q then
        invalid_arg "Instance.patch: duplicate query key")
    changes;
  (* Queries: the previous array with the changes merged in.  [src]
     maps each new query to the old one it keeps, or -1 when inserted. *)
  let at = Array.map (fun (q, _) -> search prev.queries q) changes in
  let nq_old = Array.length prev.queries in
  let nq = ref nq_old in
  Array.iteri
    (fun c (_, u) ->
      match (u, snd at.(c)) with
      | Some _, false -> incr nq
      | None, true -> decr nq
      | _ -> ())
    changes;
  let nq = !nq in
  let queries = Array.make nq Propset.empty in
  let utilities = Array.make nq 0.0 in
  let src = Array.make nq (-1) in
  let o = ref 0 and n = ref 0 in
  let keep_until stop =
    let len = stop - !o in
    Array.blit prev.queries !o queries !n len;
    Array.blit prev.utilities !o utilities !n len;
    for i = 0 to len - 1 do
      src.(!n + i) <- !o + i
    done;
    o := stop;
    n := !n + len
  in
  Array.iteri
    (fun c (q, u) ->
      let pos, found = at.(c) in
      keep_until pos;
      match u with
      | Some u ->
          (* [create] sums into 0.0, which turns -0.0 into 0.0. *)
          queries.(!n) <- q;
          utilities.(!n) <- 0.0 +. u;
          if found then begin
            src.(!n) <- pos;
            incr o
          end;
          incr n
      | None -> if found then incr o)
    changes;
  keep_until nq_old;
  let sub_off = Array.make (nq + 1) 0 in
  for qi = 0 to nq - 1 do
    sub_off.(qi + 1) <- sub_off.(qi) + (1 lsl Propset.length queries.(qi)) - 1
  done;
  (* The subset table in keys: kept queries keep their rows. *)
  let subsets = Array.make sub_off.(nq) (-1) in
  Array.iteri
    (fun qi o ->
      if o >= 0 then
        Array.blit prev.subsets prev.sub_off.(o) subsets sub_off.(qi)
          (sub_off.(qi + 1) - sub_off.(qi)))
    src;
  let n_old = Array.length prev.classifiers in
  (* Sets this patch has priced or resolved: set -> key, or -1 when
     infinite.  Sets new to the universe get keys from [n_old] on. *)
  let fresh = Propset.Tbl.create 16 in
  let fresh_sets = ref [] and n_fresh = ref 0 in
  let add_fresh c x =
    let key = n_old + !n_fresh in
    incr n_fresh;
    fresh_sets := (c, x) :: !fresh_sets;
    Propset.Tbl.replace fresh c key;
    key
  in
  let price c =
    let x = cost c in
    if x < 0.0 then invalid_arg "Instance.patch: negative cost";
    x
  in
  let killed = ref [] and repriced_old = ref [] in
  List.iter
    (fun c ->
      if (not (Propset.is_empty c)) && not (Propset.Tbl.mem fresh c) then begin
        let x = price c in
        match Propset.Tbl.find_opt prev.ids c with
        | Some id when id >= 0 ->
            if x = infinity then killed := id :: !killed
            else repriced_old := (id, x) :: !repriced_old;
            Propset.Tbl.replace fresh c (if x = infinity then -1 else id)
        | _ when x = infinity -> Propset.Tbl.replace fresh c (-1)
        | _ ->
            (* It joins the universe: the kept queries that contain it
               had it at -1. *)
            let key = add_fresh c x in
            Array.iteri
              (fun qi q ->
                if src.(qi) >= 0 && Propset.subset c q then
                  subsets.(sub_off.(qi) + Propset.positions_in c q - 1) <- key)
              queries
      end)
    repriced;
  (* Inserted queries: hash their subsets, and price only the sets
     neither this patch nor [prev] has seen. *)
  Array.iteri
    (fun qi o ->
      if o < 0 then begin
        List.iteri
          (fun i c ->
            let key =
              match Propset.Tbl.find_opt fresh c with
              | Some key -> key
              | None -> (
                  match Propset.Tbl.find_opt prev.ids c with
                  | Some key -> key
                  | None ->
                      let x = price c in
                      if x = infinity then begin
                        Propset.Tbl.replace fresh c (-1);
                        -1
                      end
                      else add_fresh c x)
            in
            subsets.(sub_off.(qi) + i) <- key)
          (Propset.subsets queries.(qi))
      end)
    src;
  (* Renumber: key -> id, first seen; -1 for a killed id, -2 unseen. *)
  let fresh_sets = Array.of_list (List.rev !fresh_sets) in
  let remap = Array.make (n_old + !n_fresh) (-2) in
  List.iter (fun id -> remap.(id) <- -1) !killed;
  let key_of = Array.make (n_old + !n_fresh) 0 in
  let n_cl = ref 0 in
  for i = 0 to Array.length subsets - 1 do
    let key = subsets.(i) in
    if key >= 0 then begin
      if remap.(key) = -2 then begin
        remap.(key) <- !n_cl;
        key_of.(!n_cl) <- key;
        incr n_cl
      end;
      subsets.(i) <- remap.(key)
    end
  done;
  let classifiers =
    Array.init !n_cl (fun id ->
        let key = key_of.(id) in
        if key < n_old then prev.classifiers.(key) else fst fresh_sets.(key - n_old))
  in
  let costs =
    Array.init !n_cl (fun id ->
        let key = key_of.(id) in
        if key < n_old then prev.costs.(key) else snd fresh_sets.(key - n_old))
  in
  List.iter (fun (key, x) -> if remap.(key) >= 0 then costs.(remap.(key)) <- x) !repriced_old;
  (* A fresh id table, one entry per classifier: copying [prev]'s would
     carry its bucket array, sized by the instance [create] built first,
     and its infinite-cost entries, a pricing memo only [create] needs. *)
  let ids = Propset.Tbl.create (max !n_cl 16) in
  Array.iteri (fun id c -> Propset.Tbl.add ids c id) classifiers;
  finish ~name ~names:prev.names ~budget ~queries ~utilities ~classifiers ~costs ~ids ~sub_off
    ~subsets

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
