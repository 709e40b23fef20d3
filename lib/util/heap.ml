type t = {
  mutable size : int;
  keys : int array; (* slot -> key *)
  pos : int array; (* key -> slot, or -1 when absent *)
  prio : float array; (* key -> priority *)
  sign : float; (* +1 for min-heap, -1 for max-heap *)
}

let create ?(max = false) capacity =
  if capacity < 0 then invalid_arg "Heap.create";
  {
    size = 0;
    keys = Array.make (Stdlib.max capacity 1) (-1);
    pos = Array.make (Stdlib.max capacity 1) (-1);
    prio = Array.make (Stdlib.max capacity 1) 0.0;
    sign = (if max then -1.0 else 1.0);
  }

let size t = t.size
let is_empty t = t.size = 0
let mem t key = key >= 0 && key < Array.length t.pos && t.pos.(key) >= 0

let priority t key =
  if not (mem t key) then raise Not_found;
  t.prio.(key) *. t.sign

(* Internal priorities are stored pre-multiplied by [sign] so the heap
   invariant is always "parent <= child". *)

let swap t i j =
  let ki = t.keys.(i) and kj = t.keys.(j) in
  t.keys.(i) <- kj;
  t.keys.(j) <- ki;
  t.pos.(kj) <- i;
  t.pos.(ki) <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prio.(t.keys.(i)) < t.prio.(t.keys.(parent)) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.prio.(t.keys.(l)) < t.prio.(t.keys.(!smallest)) then smallest := l;
  if r < t.size && t.prio.(t.keys.(r)) < t.prio.(t.keys.(!smallest)) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let insert t key p =
  if key < 0 || key >= Array.length t.pos then invalid_arg "Heap.insert: key out of range";
  if t.pos.(key) >= 0 then invalid_arg "Heap.insert: key already present";
  t.prio.(key) <- p *. t.sign;
  t.keys.(t.size) <- key;
  t.pos.(key) <- t.size;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Move present [key] to the stored (sign-multiplied) priority [q]. *)
let[@inline] reprioritize t key q =
  let old = t.prio.(key) in
  t.prio.(key) <- q;
  let i = t.pos.(key) in
  if q < old then sift_up t i else sift_down t i

let update t key p = if not (mem t key) then insert t key p else reprioritize t key (p *. t.sign)

let add_to t key d =
  if mem t key then reprioritize t key (((t.prio.(key) *. t.sign) +. d) *. t.sign)
  else insert t key d

let add_to_present t keys deltas lo hi =
  for i = lo to hi - 1 do
    let key = keys.(i) in
    if mem t key then reprioritize t key (((t.prio.(key) *. t.sign) +. deltas.(i)) *. t.sign)
  done

let peek t = if t.size = 0 then None else Some (t.keys.(0), t.prio.(t.keys.(0)) *. t.sign)

let remove_at t i =
  let key = t.keys.(i) in
  t.size <- t.size - 1;
  if i <> t.size then begin
    let last = t.keys.(t.size) in
    t.keys.(i) <- last;
    t.pos.(last) <- i;
    t.pos.(key) <- -1;
    (* The moved element may need to go either way. *)
    sift_up t i;
    sift_down t (t.pos.(last))
  end
  else t.pos.(key) <- -1;
  key

let pop t =
  if t.size = 0 then None
  else begin
    let p = t.prio.(t.keys.(0)) *. t.sign in
    let key = remove_at t 0 in
    Some (key, p)
  end

let top t = if t.size = 0 then invalid_arg "Heap.top: empty heap" else t.keys.(0)
let top_priority t = t.prio.(top t) *. t.sign
let pop_key t = if t.size = 0 then invalid_arg "Heap.pop_key: empty heap" else remove_at t 0

let remove t key =
  if not (mem t key) then false
  else begin
    ignore (remove_at t t.pos.(key));
    true
  end

let to_sorted_list t =
  let members = ref [] in
  for i = 0 to t.size - 1 do
    let k = t.keys.(i) in
    members := (k, t.prio.(k) *. t.sign) :: !members
  done;
  List.sort (fun (_, a) (_, b) -> compare (a *. t.sign) (b *. t.sign)) !members
