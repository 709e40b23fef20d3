type candidate = { id : int; bits : int }

(* The residual target: the query's positions no selection covers yet. *)
let target state qi = Cover.full_mask state qi land lnot (Cover.mask state qi)

(* [f id bits] for every unselected, allowed classifier inside query
   [qi] that covers part of [target], in descending position mask: the
   order the DP's strict-improvement tie-break depends on. *)
let iter_candidates state allowed qi target f =
  let inst = Cover.instance state in
  for mask = Cover.full_mask state qi downto 1 do
    let id = Instance.subset_id inst qi mask in
    if id >= 0 && (not (Cover.is_selected state id)) && allowed id then begin
      let bits = mask land target in
      if bits <> 0 then f id bits
    end
  done

let candidates state ?(allowed = fun _ -> true) qi =
  let target = target state qi in
  if target = 0 then ([], 0)
  else begin
    let out = ref [] in
    iter_candidates state allowed qi target (fun id bits -> out := { id; bits } :: !out);
    (List.rev !out, target)
  end

let cheapest_cover state ?(allowed = fun _ -> true) qi =
  let inst = Cover.instance state in
  let target = target state qi in
  if target = 0 then None
  else begin
    let n_max = Cover.full_mask state qi in
    let cid = Array.make n_max 0 and cbits = Array.make n_max 0 in
    let ccost = Array.make n_max 0.0 in
    let n = ref 0 in
    iter_candidates state allowed qi target (fun id bits ->
        cid.(!n) <- id;
        cbits.(!n) <- bits;
        ccost.(!n) <- Instance.cost inst id;
        incr n);
    let n = !n in
    let size = target + 1 in
    let dp = Array.make size infinity in
    let parent_c = Array.make size (-1) and parent_m = Array.make size (-1) in
    dp.(0) <- 0.0;
    (* dp over submasks of [target], ascending: because each transition
       ORs bits in, per-candidate relaxation from [m land lnot bits] is
       exact. *)
    let m = ref (-target land target) in
    while !m <> 0 do
      let m' = !m in
      for ci = 0 to n - 1 do
        let bits = cbits.(ci) in
        if bits land m' <> 0 then begin
          let prev = m' land lnot bits in
          if dp.(prev) < infinity then begin
            let c = dp.(prev) +. ccost.(ci) in
            if c < dp.(m') then begin
              dp.(m') <- c;
              parent_c.(m') <- ci;
              parent_m.(m') <- prev
            end
          end
        end
      done;
      m := (m' - target) land target
    done;
    if dp.(target) = infinity then None
    else begin
      let ids = ref [] in
      let m = ref target in
      while !m <> 0 do
        ids := cid.(parent_c.(!m)) :: !ids;
        m := parent_m.(!m)
      done;
      Some (dp.(target), List.sort_uniq compare !ids)
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
