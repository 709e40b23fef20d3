(* Host-speed reference.  The box the benchmark runs on is a share of a
   shared host whose speed moves by tens of percent over seconds to
   minutes: one drift seed's median epoch took 109 ms in one run and
   69 ms in a run minutes later, with the process on the CPU
   throughout.  A wall-clock time is then mostly a reading of the host.

   So the bench times a fixed computation of its own, [measure], next to
   the program's work (on either side of each timed operation, or while
   the program is idle), and reports the program's times scaled to a host
   on which that computation takes [nominal_s]:

     scaled = measured *. nominal_s /. reference

   The reference is the bench's code, identical for every build, so a
   change to the program moves the scaled time as much as the measured
   one, while the host's swings move both the program and the reference
   and cancel.  The computation is a pseudo-random walk over an 8 MiB
   table: it allocates nothing and the table lies outside the OCaml
   heap, so it leaves the program's heap and GC pacing alone (the table
   does add 8 MiB to the bench process's resident memory), and it is
   bound by memory latency and integer work, as the solver is.
   Measured times are printed beside the scaled ones. *)

(* A round figure near what [measure] takes on the 2-core VM the
   benchmark was tuned on (8-12 ms), so scaled times read close to
   measured ones. *)
let nominal_s = 0.008

let table_bits = 20

let table =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl table_bits) in
  Bigarray.Array1.fill t 0;
  t

let steps = 1_000_000

(* The computation itself, untimed; exposed for the tests. *)
let kernel () =
  let mask = (1 lsl table_bits) - 1 in
  let x = ref 12345 in
  for _ = 1 to steps do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land mask in
    Bigarray.Array1.unsafe_set table i (Bigarray.Array1.unsafe_get table i + (!x lsr 7))
  done;
  !x

(* One timing of the reference computation, in seconds: wall-clock
   time, and this process's CPU time (user + system), which leaves out
   the time the hypervisor ran someone else on our core.  Wall-clock
   times are scaled by the first, CPU times by the second. *)
type sample = { wall_s : float; cpu_s : float }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let measure () =
  let c0 = cpu_now () and t0 = Bcc_util.Timer.now_s () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = Bcc_util.Timer.now_s () and c1 = cpu_now () in
  { wall_s = t1 -. t0; cpu_s = c1 -. c0 }

let scale ~ref_s x =
  if not (ref_s > 0.0) then invalid_arg "Refclock.scale: reference time must be positive";
  x *. nominal_s /. ref_s

(* An operation bracketed by a reference timing before and after it is
   scaled by their mean. *)
let scale_between ~before ~after x = scale ~ref_s:(0.5 *. (before +. after)) x

(* The median of the [k] values whose times lie nearest [at], from a
   list of (time, value) pairs: a reference reading local to [at], for
   times measured while references are taken now and then. *)
let nearest_median ?(k = 5) samples ~at =
  if samples = [] then invalid_arg "Refclock.nearest_median: no samples";
  let by_distance =
    List.stable_sort
      (fun (t1, _) (t2, _) -> Float.compare (Float.abs (t1 -. at)) (Float.abs (t2 -. at)))
      samples
  in
  let near = List.filteri (fun i _ -> i < k) by_distance in
  Bcc_util.Stats.median (Array.of_list (List.map snd near))
