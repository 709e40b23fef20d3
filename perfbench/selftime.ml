(* Per-name self time over a set of spans.  A span's self time is its
   duration minus the part of it that its direct children cover.

   Nesting is recovered from interval containment within one recording
   thread rather than from parent links, so the same computation serves
   in-process {!Bcc_obs.Trace} spans and the span lists [bccd] serves at
   [/debug/solves?id=], which carry no parent ids.  Spans of one thread
   nest properly (a child closes before its parent), which is what makes
   containment equal to the call tree. *)

type span = { name : string; tid : int; start : float; stop : float }

type stat = { self_s : float; total_s : float; calls : int }

let empty = { self_s = 0.0; total_s = 0.0; calls = 0 }

(* Adds to [into] when given, so that spans can be folded in batch by
   batch, each batch holding whole call trees. *)
let compute ?(into = Hashtbl.create 32) spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  let acc : (string, stat) Hashtbl.t = into in
  let add name ~self ~total =
    let st = Option.value ~default:empty (Hashtbl.find_opt acc name) in
    Hashtbl.replace acc name
      { self_s = st.self_s +. self; total_s = st.total_s +. total; calls = st.calls + 1 }
  in
  Hashtbl.iter
    (fun _ ss ->
      let ss =
        List.sort
          (fun a b ->
            match Float.compare a.start b.start with
            | 0 -> Float.compare b.stop a.stop
            | c -> c)
          ss
      in
      (* Open spans, innermost first, each with its running self time. *)
      let stack = ref [] in
      let close (s, self) = add s.name ~self:!self ~total:(s.stop -. s.start) in
      List.iter
        (fun s ->
          let rec unwind () =
            match !stack with
            | ((top, _) as open_) :: rest when top.stop <= s.start ->
                close open_;
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | (top, self) :: _ when s.stop <= top.stop -> self := !self -. (s.stop -. s.start)
          | _ -> ());
          stack := (s, ref (s.stop -. s.start)) :: !stack)
        ss;
      List.iter close !stack)
    by_tid;
  acc

let find tbl name = Option.value ~default:empty (Hashtbl.find_opt tbl name)
