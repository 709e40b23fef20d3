(* Sample summaries for the benchmark's reports, on top of
   [Bcc_util.Stats] (whose percentiles interpolate linearly between
   closest ranks). *)

module Stats = Bcc_util.Stats

(* The highest percentile, at 0.1 resolution, with at least [min_beyond]
   samples above it; [None] when there are too few samples for any
   level above the median. *)
let tail_level ?(min_beyond = 10) n =
  if n < 2 * min_beyond then None
  else
    let beyond = float_of_int min_beyond /. float_of_int n in
    Some (Float.of_int (truncate (1000.0 *. (1.0 -. beyond))) /. 10.0)

type summary = {
  n : int;
  p50 : float;
  tail : (float * float) option;  (** (percentile level, value) *)
}

let summarize xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  {
    n;
    p50 = Stats.median a;
    tail = Option.map (fun p -> (p, Stats.percentile a p)) (tail_level n);
  }

let pp_summary ~unit_ s =
  match s.tail with
  | Some (p, v) -> Printf.sprintf "p50 %.3f%s, p%g %.3f%s (n=%d)" s.p50 unit_ p v unit_ s.n
  | None -> Printf.sprintf "p50 %.3f%s (n=%d; too few samples for a tail)" s.p50 unit_ s.n

let geomean xs =
  match xs with
  | [] -> invalid_arg "Pstats.geomean: no samples"
  | _ -> exp (Stats.mean (Array.of_list (List.map log xs)))

let ratio num den = if den = 0.0 then 0.0 else num /. den
