(* Classic Hashtbl + doubly-linked-list LRU for finished values, plus a
   table of in-flight computations.  The list is intrusive with option
   pointers; [head] is most recently used, [tail] next to evict.  All
   operations take the lock, so a cache can be shared by the whole
   worker pool; joiners of an in-flight key sleep on [resolved]. *)

type 'a entry = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a entry option;  (* towards head *)
  mutable next : 'a entry option;  (* towards tail *)
}

(* A leader's promise.  [Refused] means the leader kept its outcome to
   itself; joiners go round again. *)
type 'a state = Pending | Done of 'a | Failed of exn | Refused

type 'a t = {
  capacity : int;
  tbl : (string, 'a entry) Hashtbl.t;
  flights : (string, 'a state ref) Hashtbl.t;
  mutable head : 'a entry option;
  mutable tail : 'a entry option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable joins : int;
  lock : Mutex.t;
  resolved : Condition.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  {
    capacity;
    tbl = Hashtbl.create (2 * capacity);
    flights = Hashtbl.create 16;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    joins = 0;
    lock = Mutex.create ();
    resolved = Condition.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.head;
  e.prev <- None;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

(* Lock held by the caller. *)
let find_locked t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      t.hits <- t.hits + 1;
      unlink t e;
      push_front t e;
      Some e.value
  | None -> None

let put_locked t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      e.value <- value;
      unlink t e;
      push_front t e
  | None ->
      if Hashtbl.length t.tbl >= t.capacity then begin
        match t.tail with
        | Some victim ->
            unlink t victim;
            Hashtbl.remove t.tbl victim.key;
            t.evictions <- t.evictions + 1
        | None -> ()
      end;
      let e = { key; value; prev = None; next = None } in
      Hashtbl.replace t.tbl key e;
      push_front t e

let find t key =
  locked t (fun () ->
      let v = find_locked t key in
      if Option.is_none v then t.misses <- t.misses + 1;
      v)

let put t key value = locked t (fun () -> put_locked t key value)

let find_or_compute t ?flight ?(keep = fun _ -> true) key compute =
  let fkey = Option.value flight ~default:key in
  let rec wait promise =
    match !promise with
    | Pending ->
        Condition.wait t.resolved t.lock;
        wait promise
    | st -> st
  in
  let rec attempt () =
    Mutex.lock t.lock;
    match find_locked t key with
    | Some v ->
        Mutex.unlock t.lock;
        Ok (v, true)
    | None -> (
        match Hashtbl.find_opt t.flights fkey with
        | Some promise -> (
            t.joins <- t.joins + 1;
            let st = wait promise in
            Mutex.unlock t.lock;
            match st with
            | Done v -> Ok (v, false)
            | Failed e -> raise e
            | Pending | Refused -> attempt ())
        | None ->
            t.misses <- t.misses + 1;
            let promise = ref Pending in
            Hashtbl.replace t.flights fkey promise;
            Mutex.unlock t.lock;
            (* Computed outside the lock: solves take seconds and must
               not serialize the pool. *)
            let settle ?(store = false) st =
              locked t (fun () ->
                  Hashtbl.remove t.flights fkey;
                  promise := st;
                  (match st with Done v when store -> put_locked t key v | _ -> ());
                  Condition.broadcast t.resolved)
            in
            (* [keep] runs inside the handler too: whatever raises, the
               flight is resolved and no joiner is left waiting. *)
            match match compute () with Ok v -> Ok (v, keep v) | Error e -> Error e with
            | Ok (v, store) ->
                settle ~store (Done v);
                Ok (v, false)
            | Error e ->
                settle Refused;
                Error e
            | exception e ->
                settle (Failed e);
                raise e)
  in
  attempt ()

let length t = locked t (fun () -> Hashtbl.length t.tbl)
let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)
let joins t = locked t (fun () -> t.joins)

let keys_mru t =
  locked t (fun () ->
      let rec go acc = function
        | None -> List.rev acc
        | Some e -> go (e.key :: acc) e.next
      in
      go [] t.head)
