type t = int array

let empty : t = [||]
let singleton p = [| p |]

let of_list ps = Array.of_list (List.sort_uniq Stdlib.compare ps)
let of_array ps = of_list (Array.to_list ps)
let to_list (t : t) = Array.to_list t
let to_array (t : t) = Array.copy t
let length = Array.length
let is_empty t = length t = 0

let mem p (t : t) =
  let rec go lo hi =
    if lo > hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if t.(mid) = p then true else if t.(mid) < p then go (mid + 1) hi else go lo (mid - 1)
    end
  in
  go 0 (length t - 1)

let subset (a : t) (b : t) =
  let na = length a and nb = length b in
  let rec go i j =
    if i >= na then true
    else if j >= nb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  go 0 0

let equal (a : t) (b : t) =
  let n = length a in
  n = length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

(* Stdlib.compare's order on int arrays (shorter first, then
   elementwise), without the polymorphic walk. *)
let compare (a : t) (b : t) =
  let na = length a and nb = length b in
  if na <> nb then Int.compare na nb
  else begin
    let rec go i =
      if i >= na then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end
let hash (t : t) = Hashtbl.hash t

let union (a : t) (b : t) =
  let na = length a and nb = length b in
  let out = Array.make (na + nb) 0 in
  let rec go i j k =
    if i >= na && j >= nb then k
    else if j >= nb || (i < na && a.(i) < b.(j)) then begin
      out.(k) <- a.(i);
      go (i + 1) j (k + 1)
    end
    else if i >= na || b.(j) < a.(i) then begin
      out.(k) <- b.(j);
      go i (j + 1) (k + 1)
    end
    else begin
      out.(k) <- a.(i);
      go (i + 1) (j + 1) (k + 1)
    end
  in
  let k = go 0 0 0 in
  Array.sub out 0 k

let inter (a : t) (b : t) =
  let na = length a and nb = length b in
  let out = Array.make (min na nb) 0 in
  let rec go i j k =
    if i >= na || j >= nb then k
    else if a.(i) = b.(j) then begin
      out.(k) <- a.(i);
      go (i + 1) (j + 1) (k + 1)
    end
    else if a.(i) < b.(j) then go (i + 1) j k
    else go i (j + 1) k
  in
  let k = go 0 0 0 in
  Array.sub out 0 k

let diff (a : t) (b : t) =
  let na = length a in
  let out = Array.make na 0 in
  let k = ref 0 in
  for i = 0 to na - 1 do
    if not (mem a.(i) b) then begin
      out.(!k) <- a.(i);
      incr k
    end
  done;
  Array.sub out 0 !k

let iter f (t : t) = Array.iter f t
let fold f init (t : t) = Array.fold_left f init t

let subset_of_mask (t : t) mask =
  let n = length t in
  let out = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if mask land (1 lsl i) <> 0 then begin
      out.(!k) <- t.(i);
      incr k
    end
  done;
  (Array.sub out 0 !k : t)

let subsets t =
  let n = length t in
  if n > 16 then invalid_arg "Propset.subsets: set too large";
  let out = ref [] in
  for mask = (1 lsl n) - 1 downto 1 do
    out := subset_of_mask t mask :: !out
  done;
  !out

let strict_subsets t =
  let n = length t in
  if n > 16 then invalid_arg "Propset.strict_subsets: set too large";
  let out = ref [] in
  for mask = (1 lsl n) - 2 downto 1 do
    out := subset_of_mask t mask :: !out
  done;
  !out

let positions_in (c : t) (q : t) =
  let nq = length q in
  let mask = ref 0 in
  iter
    (fun p ->
      let rec go lo hi =
        if lo > hi then ()
        else begin
          let mid = (lo + hi) / 2 in
          if q.(mid) = p then mask := !mask lor (1 lsl mid)
          else if q.(mid) < p then go (mid + 1) hi
          else go lo (mid - 1)
        end
      in
      go 0 (nq - 1))
    c;
  !mask

let pp ?names fmt (t : t) =
  Format.fprintf fmt "{";
  Array.iteri
    (fun i p ->
      if i > 0 then Format.fprintf fmt ", ";
      match names with
      | Some tbl -> Format.fprintf fmt "%s" (Symtab.name tbl p)
      | None -> Format.fprintf fmt "%d" p)
    t;
  Format.fprintf fmt "}"

let to_string ?names t = Format.asprintf "%a" (pp ?names) t

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
