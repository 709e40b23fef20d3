type t = {
  inst : Instance.t;
  mask : int array; (* per query: bitmask over its sorted positions *)
  full : int array;
  selected : bool array; (* per classifier id *)
  mutable covered_utility : float;
  mutable covered_count : int;
  mutable spent : float;
  mutable n_selected : int;
}

let create inst =
  let nq = Instance.num_queries inst in
  {
    inst;
    mask = Array.make (max nq 1) 0;
    full = Array.init (max nq 1) (fun i ->
        if i < nq then (1 lsl Propset.length (Instance.query inst i)) - 1 else 0);
    selected = Array.make (max (Instance.num_classifiers inst) 1) false;
    covered_utility = 0.0;
    covered_count = 0;
    spent = 0.0;
    n_selected = 0;
  }

let clone t =
  {
    t with
    mask = Array.copy t.mask;
    full = t.full;
    selected = Array.copy t.selected;
  }

let instance t = t.inst
let is_selected t id = t.selected.(id)

let select_traced t id =
  if t.selected.(id) then []
  else begin
    t.selected.(id) <- true;
    t.n_selected <- t.n_selected + 1;
    t.spent <- t.spent +. Instance.cost t.inst id;
    let qs = Instance.queries_containing t.inst id in
    let masks = Instance.containing_masks t.inst id in
    let newly = ref [] in
    for j = 0 to Array.length qs - 1 do
      let qi = qs.(j) in
      if t.mask.(qi) <> t.full.(qi) then begin
        t.mask.(qi) <- t.mask.(qi) lor masks.(j);
        if t.mask.(qi) = t.full.(qi) then begin
          t.covered_utility <- t.covered_utility +. Instance.utility t.inst qi;
          t.covered_count <- t.covered_count + 1;
          newly := qi :: !newly
        end
      end
    done;
    List.rev !newly
  end

let select t id = ignore (select_traced t id)

let select_set t c =
  match Instance.classifier_id t.inst c with
  | Some id ->
      select t id;
      true
  | None -> false

let selected t =
  let out = ref [] in
  for id = Array.length t.selected - 1 downto 0 do
    if t.selected.(id) then out := id :: !out
  done;
  !out

let spent t = t.spent
let is_covered t qi = t.mask.(qi) = t.full.(qi)
let mask t qi = t.mask.(qi)
let full_mask t qi = t.full.(qi)

let residual t qi =
  let q = Instance.query t.inst qi in
  let keep = ref [] in
  let mask = t.mask.(qi) in
  let i = ref 0 in
  Propset.iter
    (fun p ->
      if mask land (1 lsl !i) = 0 then keep := p :: !keep;
      incr i)
    q;
  Propset.of_list !keep

let covered_utility t = t.covered_utility
let covered_count t = t.covered_count

let covered_queries t =
  let out = ref [] in
  for qi = Instance.num_queries t.inst - 1 downto 0 do
    if is_covered t qi then out := qi :: !out
  done;
  !out

let uncovered_queries t =
  let out = ref [] in
  for qi = Instance.num_queries t.inst - 1 downto 0 do
    if not (is_covered t qi) then out := qi :: !out
  done;
  !out

let utility_of_selection inst sets =
  let state = create inst in
  List.iter (fun c -> ignore (select_set state c)) sets;
  covered_utility state
