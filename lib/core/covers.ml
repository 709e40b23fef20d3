type candidate = { id : int; bits : int }

type scratch = {
  mutable cid : int array; (* candidate ids *)
  mutable cbits : int array; (* candidate residual bits *)
  mutable ccost : float array; (* candidate costs *)
  mutable dp : float array; (* indexed by submask of the target *)
  mutable parent_c : int array; (* dp entry -> its last candidate *)
  mutable parent_m : int array; (* dp entry -> the submask before it *)
}

let scratch () =
  { cid = [||]; cbits = [||]; ccost = [||]; dp = [||]; parent_c = [||]; parent_m = [||] }

(* The residual target: the query's positions no selection covers yet. *)
let target state qi = Cover.full_mask state qi land lnot (Cover.mask state qi)

let usable state allowed id =
  (not (Cover.is_selected state id)) && match allowed with None -> true | Some ok -> ok id

(* [f id bits] for every unselected, allowed classifier inside query
   [qi] that covers part of [target], in descending position mask: the
   order the DP's strict-improvement tie-break depends on. *)
let iter_candidates state allowed qi target f =
  let inst = Cover.instance state in
  for mask = Cover.full_mask state qi downto 1 do
    let id = Instance.subset_id inst qi mask in
    if id >= 0 && usable state allowed id then begin
      let bits = mask land target in
      if bits <> 0 then f id bits
    end
  done

let candidates state ?allowed qi =
  let target = target state qi in
  if target = 0 then ([], 0)
  else begin
    let out = ref [] in
    iter_candidates state allowed qi target (fun id bits -> out := { id; bits } :: !out);
    (List.rev !out, target)
  end

(* [iter_candidates] into [sc]'s candidate arrays, without a closure;
   returns the number of candidates. *)
let scan sc state allowed qi target =
  let inst = Cover.instance state in
  let full = Cover.full_mask state qi in
  if Array.length sc.dp <= full then begin
    sc.cid <- Array.make (full + 1) 0;
    sc.cbits <- Array.make (full + 1) 0;
    sc.ccost <- Array.make (full + 1) 0.0;
    sc.dp <- Array.make (full + 1) 0.0;
    sc.parent_c <- Array.make (full + 1) 0;
    sc.parent_m <- Array.make (full + 1) 0
  end;
  let n = ref 0 in
  for mask = full downto 1 do
    let id = Instance.subset_id inst qi mask in
    if id >= 0 && usable state allowed id then begin
      let bits = mask land target in
      if bits <> 0 then begin
        sc.cid.(!n) <- id;
        sc.cbits.(!n) <- bits;
        sc.ccost.(!n) <- Instance.cost inst id;
        incr n
      end
    end
  done;
  !n

(* The DP over submasks of [target], ascending, on [sc]'s first [n]
   candidates: because each transition ORs bits in, per-candidate
   relaxation from [m land lnot bits] is exact, and every [prev] is a
   smaller submask already reset and relaxed.  With [parents] it also
   records how each entry was reached. *)
let relax sc n target ~parents =
  let dp = sc.dp in
  dp.(0) <- 0.0;
  let m = ref (-target land target) in
  while !m <> 0 do
    let m' = !m in
    dp.(m') <- infinity;
    for ci = 0 to n - 1 do
      let bits = sc.cbits.(ci) in
      if bits land m' <> 0 then begin
        let prev = m' land lnot bits in
        if dp.(prev) < infinity then begin
          let c = dp.(prev) +. sc.ccost.(ci) in
          if c < dp.(m') then begin
            dp.(m') <- c;
            if parents then begin
              sc.parent_c.(m') <- ci;
              sc.parent_m.(m') <- prev
            end
          end
        end
      end
    done;
    m := (m' - target) land target
  done

let cheapest_cost sc state ?allowed qi =
  let target = target state qi in
  if target = 0 then infinity
  else begin
    relax sc (scan sc state allowed qi target) target ~parents:false;
    sc.dp.(target)
  end

let cheapest_cover state ?allowed qi =
  let target = target state qi in
  if target = 0 then None
  else begin
    let sc = scratch () in
    relax sc (scan sc state allowed qi target) target ~parents:true;
    if sc.dp.(target) = infinity then None
    else begin
      let ids = ref [] in
      let m = ref target in
      while !m <> 0 do
        ids := sc.cid.(sc.parent_c.(!m)) :: !ids;
        m := sc.parent_m.(!m)
      done;
      Some (sc.dp.(target), List.sort_uniq compare !ids)
    end
  end

let one_covers cands ~target =
  List.filter (fun { bits; _ } -> bits land target = target) cands

let two_covers cands ~target =
  let cands = Array.of_list cands in
  let n = Array.length cands in
  let out = ref [] in
  for i = 0 to n - 1 do
    if cands.(i).bits land target <> target then
      for j = i + 1 to n - 1 do
        if
          cands.(j).bits land target <> target
          && (cands.(i).bits lor cands.(j).bits) land target = target
        then out := (cands.(i), cands.(j)) :: !out
      done
  done;
  !out
