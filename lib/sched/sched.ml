module Timer = Bcc_util.Timer
module Fault = Bcc_robust.Fault
module Event = Bcc_obs.Event

let fault_point = "sched.enqueue"

let retry_after_s est_wait_s =
  if Float.is_nan est_wait_s then 1
  else if est_wait_s = infinity then 3600
  else min 3600 (max 1 (int_of_float (Float.ceil est_wait_s)))

module Core = struct
  type config = {
    weights : (string * int) list;
    tenant_depth : int;
    concurrency : int;
  }

  let default_config = { weights = []; tenant_depth = 32; concurrency = 1 }

  type job = { wid : int; deadline : float }

  type tenant = {
    t_name : string;
    t_weight : int;
    mutable t_deficit : int;
    mutable t_queue : job list;  (* earliest deadline first *)
    mutable t_dispatched : int;
  }

  type t = {
    cfg : config;
    tenants : (string, tenant) Hashtbl.t;
    mutable active : string list;  (* DRR rotation; head is next served *)
    mutable running_n : int;
    mutable next_wid : int;
    mutable n_batches : int;
    mutable n_rejected : int;
    mutable n_expired : int;
  }

  let create cfg =
    let cfg =
      {
        cfg with
        tenant_depth = max 1 cfg.tenant_depth;
        concurrency = max 1 cfg.concurrency;
      }
    in
    {
      cfg;
      tenants = Hashtbl.create 16;
      active = [];
      running_n = 0;
      next_wid = 1;
      n_batches = 0;
      n_rejected = 0;
      n_expired = 0;
    }

  let get_tenant t name =
    match Hashtbl.find_opt t.tenants name with
    | Some tn -> tn
    | None ->
        let tn =
          {
            t_name = name;
            t_weight =
              (match List.assoc_opt name t.cfg.weights with
              | Some w when w > 0 -> w
              | _ -> 1);
            t_deficit = 0;
            t_queue = [];
            t_dispatched = 0;
          }
        in
        Hashtbl.replace t.tenants name tn;
        tn

  (* Stable deadline-ordered insert: among equal deadlines (notably the
     common "no deadline" = infinity), arrival order is preserved. *)
  let queue_insert queue j =
    let rec go = function
      | [] -> [ j ]
      | x :: rest -> if x.deadline <= j.deadline then x :: go rest else j :: x :: rest
    in
    go queue

  let queued t = Hashtbl.fold (fun _ tn acc -> acc + List.length tn.t_queue) t.tenants 0
  let running t = t.running_n

  type enqueue_result = Queued of int | Rejected of { retry_after_s : int }

  let enqueue t ~tenant ~deadline ~est_batch_s =
    let tn = get_tenant t tenant in
    if List.length tn.t_queue >= t.cfg.tenant_depth then begin
      t.n_rejected <- t.n_rejected + 1;
      let est_wait =
        float_of_int (queued t + t.running_n)
        *. Float.max 0.001 est_batch_s
        /. float_of_int t.cfg.concurrency
      in
      Rejected { retry_after_s = retry_after_s est_wait }
    end
    else begin
      let wid = t.next_wid in
      t.next_wid <- wid + 1;
      tn.t_queue <- queue_insert tn.t_queue { wid; deadline };
      if not (List.mem tenant t.active) then t.active <- t.active @ [ tenant ];
      Queued wid
    end

  type dispatch = { d_wid : int; d_tenant : string }

  let next t ~now =
    let expired_acc = ref [] in
    let dispatch =
      if t.running_n >= t.cfg.concurrency then None
      else begin
        (* Each iteration pops a job, drops an idle tenant, or earns
           deficit (at most once per tenant before its next pop), so the
           loop terminates; the fuel bound is a belt-and-braces guard. *)
        let rec loop fuel =
          if fuel <= 0 then None
          else
            match t.active with
            | [] -> None
            | name :: rest -> (
                let tn = get_tenant t name in
                match tn.t_queue with
                | [] ->
                    tn.t_deficit <- 0;
                    t.active <- rest;
                    loop (fuel - 1)
                | j :: queue when tn.t_deficit >= 1 ->
                    tn.t_queue <- queue;
                    if j.deadline <= now then begin
                      (* pruned, not served: the deficit is not spent *)
                      expired_acc := j.wid :: !expired_acc;
                      t.n_expired <- t.n_expired + 1;
                      loop (fuel - 1)
                    end
                    else begin
                      tn.t_deficit <- tn.t_deficit - 1;
                      t.n_batches <- t.n_batches + 1;
                      tn.t_dispatched <- tn.t_dispatched + 1;
                      t.running_n <- t.running_n + 1;
                      Some { d_wid = j.wid; d_tenant = name }
                    end
                | _ ->
                    tn.t_deficit <- tn.t_deficit + tn.t_weight;
                    t.active <- rest @ [ name ];
                    loop (fuel - 1))
        in
        loop ((4 * (Hashtbl.length t.tenants + queued t)) + 8)
      end
    in
    (List.rev !expired_acc, dispatch)

  let complete t = t.running_n <- max 0 (t.running_n - 1)

  type tenant_info = {
    ti_tenant : string;
    ti_weight : int;
    ti_deficit : int;
    ti_queued : int;
    ti_dispatched : int;
  }

  type counters = { batches_total : int; rejected_total : int; expired_total : int }

  let tenants t =
    Hashtbl.fold
      (fun _ tn acc ->
        {
          ti_tenant = tn.t_name;
          ti_weight = tn.t_weight;
          ti_deficit = tn.t_deficit;
          ti_queued = List.length tn.t_queue;
          ti_dispatched = tn.t_dispatched;
        }
        :: acc)
      t.tenants []
    |> List.sort (fun a b -> compare a.ti_tenant b.ti_tenant)

  let counters t =
    {
      batches_total = t.n_batches;
      rejected_total = t.n_rejected;
      expired_total = t.n_expired;
    }
end

type error = Busy of { retry_after_s : int } | Expired | Faulted of exn

type 'r outcome = Done of 'r | Failed of exn | Timed_out

type 'r cell = { c_run : unit -> 'r; c_corr : string; mutable c_out : 'r outcome option }

type 'r t = {
  core : Core.t;
  cells : (int, 'r cell) Hashtbl.t;
  m : Mutex.t;
  cv : Condition.t;
  mutable est_batch_s : float;
}

let create ?(weights = []) ?(tenant_depth = 32) ?(concurrency = 1) () =
  {
    core = Core.create { weights; tenant_depth; concurrency };
    cells = Hashtbl.create 64;
    m = Mutex.create ();
    cv = Condition.create ();
    est_batch_s = 0.05;
  }

(* Run a dispatched job.  Called (and returns) with the lock held; the
   callback runs unlocked. *)
let execute t (d : Core.dispatch) =
  let cell = Hashtbl.find t.cells d.Core.d_wid in
  Mutex.unlock t.m;
  let timer = Timer.start () in
  let out = try Done (cell.c_run ()) with e -> Failed e in
  let wall = Timer.elapsed_s timer in
  if Event.enabled () then
    Event.emit "sched_batch"
      ~attrs:
        [
          ("tenant", Event.Str d.Core.d_tenant);
          ("wall_s", Event.Float wall);
          ("corrs", Event.Str cell.c_corr);
        ];
  Mutex.lock t.m;
  Core.complete t.core;
  t.est_batch_s <- (0.7 *. t.est_batch_s) +. (0.3 *. wall);
  cell.c_out <- Some out;
  Condition.broadcast t.cv

let submit t ~tenant ?deadline_s ?(corr = "") run =
  match Fault.hit fault_point with
  | exception e -> Error (Faulted e)
  | () -> (
      let deadline = match deadline_s with Some d -> d | None -> infinity in
      if deadline <= Timer.now_s () then Error Expired
      else begin
        Mutex.lock t.m;
        match Core.enqueue t.core ~tenant ~deadline ~est_batch_s:t.est_batch_s with
        | Core.Rejected { retry_after_s } ->
            Mutex.unlock t.m;
            Error (Busy { retry_after_s })
        | Core.Queued wid ->
            let cell = { c_run = run; c_corr = corr; c_out = None } in
            Hashtbl.replace t.cells wid cell;
            (* Work-conserving wait: until our result lands, try to
               claim and execute whatever job the core will release
               (often, but not necessarily, our own). *)
            let rec wait_loop () =
              match cell.c_out with
              | Some out -> out
              | None -> (
                  let expired, d = Core.next t.core ~now:(Timer.now_s ()) in
                  List.iter
                    (fun wid -> (Hashtbl.find t.cells wid).c_out <- Some Timed_out)
                    expired;
                  if expired <> [] then Condition.broadcast t.cv;
                  match d with
                  | Some d ->
                      execute t d;
                      wait_loop ()
                  | None -> (
                      match cell.c_out with
                      | Some out -> out
                      | None ->
                          Condition.wait t.cv t.m;
                          wait_loop ()))
            in
            let out = wait_loop () in
            Hashtbl.remove t.cells wid;
            Mutex.unlock t.m;
            (match out with
            | Done r -> Ok r
            | Failed e -> Error (Faulted e)
            | Timed_out -> Error Expired)
      end)

type stats = {
  batches_total : int;
  rejected_total : int;
  expired_total : int;
  queued : int;
  running : int;
  est_batch_s : float;
  tenants : Core.tenant_info list;
}

let stats t =
  Mutex.lock t.m;
  let c = Core.counters t.core in
  let s =
    {
      batches_total = c.Core.batches_total;
      rejected_total = c.Core.rejected_total;
      expired_total = c.Core.expired_total;
      queued = Core.queued t.core;
      running = Core.running t.core;
      est_batch_s = t.est_batch_s;
      tenants = Core.tenants t.core;
    }
  in
  Mutex.unlock t.m;
  s
