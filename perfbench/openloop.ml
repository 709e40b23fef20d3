(* Open-loop arrival schedules and the accounting that times each
   request from when it was due, so a stall shows in every request it
   delays, not only in the one that stalled. *)

(* [n] Poisson arrivals over [0, duration): a Poisson process
   conditioned on its arrival count is [n] independent uniform points,
   sorted.  Fixing the count keeps the amount of work the same for every
   seed; only the arrival pattern changes.  Due times are offsets from
   the start of the run, ascending. *)
let poisson ~rng ~n ~duration =
  if n < 0 || not (duration > 0.0) then invalid_arg "Openloop.poisson";
  List.sort Float.compare (List.init n (fun _ -> Bcc_util.Rng.float rng duration))

type sample = {
  due : float;  (** when the request was due, run-relative seconds *)
  sent : float;  (** when its first byte was written *)
  done_ : float;  (** when its response was read in full *)
}

let latency s = s.done_ -. s.due
(** What the user waited: generator lateness plus service time. *)

let service s = s.done_ -. s.sent

let lateness s = Float.max 0.0 (s.sent -. s.due)
(** How late the generator issued the request (a request is never sent
    early: a sender sleeps until the due time). *)
