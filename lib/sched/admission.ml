(* Per-tenant in-flight admission for the cluster router: a counting
   semaphore per tenant, weighted like the solve scheduler's fair
   share.  The router sits in front of N shards that each run a full
   Sched behind their own accept loop, so the router's job is not
   scheduling — it is refusing a tenant that already has its share of
   forwards outstanding before those forwards consume shard queue
   slots. *)

type t = {
  lock : Mutex.t;
  depth : int;
  weights : (string * int) list;
  inflight : (string, int) Hashtbl.t;
}

let create ?(weights = []) ~depth () =
  {
    lock = Mutex.create ();
    depth = max 1 depth;
    weights;
    inflight = Hashtbl.create 8;
  }

let weight t tenant =
  match List.assoc_opt tenant t.weights with
  | Some w when w > 0 -> w
  | _ -> 1

let limit t ~tenant = t.depth * weight t tenant

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let inflight t ~tenant =
  locked t (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt t.inflight tenant))

let try_acquire t ~tenant =
  locked t (fun () ->
      let n = Option.value ~default:0 (Hashtbl.find_opt t.inflight tenant) in
      if n >= limit t ~tenant then false
      else begin
        Hashtbl.replace t.inflight tenant (n + 1);
        true
      end)

let release t ~tenant =
  locked t (fun () ->
      match Hashtbl.find_opt t.inflight tenant with
      | Some n when n > 1 -> Hashtbl.replace t.inflight tenant (n - 1)
      | Some _ -> Hashtbl.remove t.inflight tenant
      | None -> ())

let with_slot t ~tenant f =
  if not (try_acquire t ~tenant) then None
  else
    Some
      (Fun.protect ~finally:(fun () -> release t ~tenant) f)
