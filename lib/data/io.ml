module Instance = Bcc_core.Instance
module Propset = Bcc_core.Propset
module Symtab = Bcc_core.Symtab

let prop_name inst p =
  match Instance.names inst with
  | Some tbl -> Symtab.name tbl p
  | None -> string_of_int p

(* Fields are separated by runs of blanks (spaces or tabs), and lines may
   end in "\r\n" — instance bodies arrive over HTTP where CRLF is the
   norm, and hand-edited files often carry doubled spaces. *)
let tokens line =
  let line = String.map (fun c -> if c = '\t' || c = '\r' then ' ' else c) line in
  List.filter (fun s -> s <> "") (String.split_on_char ' ' line)

let write_instance buf inst =
  Printf.bprintf buf "# bcc instance %s\n" (Instance.name inst);
  Printf.bprintf buf "budget %.9g\n" (Instance.budget inst);
  for qi = 0 to Instance.num_queries inst - 1 do
    let q = Instance.query inst qi in
    let names = List.map (prop_name inst) (Propset.to_list q) in
    Printf.bprintf buf "query %s %.9g\n" (String.concat ";" names)
      (Instance.utility inst qi)
  done;
  for id = 0 to Instance.num_classifiers inst - 1 do
    let c = Instance.classifier inst id in
    let names = List.map (prop_name inst) (Propset.to_list c) in
    Printf.bprintf buf "classifier %s %.9g\n" (String.concat ";" names)
      (Instance.cost inst id)
  done

let to_string inst =
  let buf = Buffer.create 4096 in
  write_instance buf inst;
  Buffer.contents buf

let save path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string inst))

(* Core parser over a line producer ([next_line ()] = [None] at EOF). *)
let load_lines ~name next_line =
  let names = Symtab.create () in
  let budget = ref 0.0 in
  let queries = ref [] in
  let costs = Propset.Tbl.create 256 in
  (* Malformed input must surface as [Failure] (the servers map it to a
     400), never as a silent mis-parse: empty or repeated property names
     and NaN/negative numbers are all rejected here. *)
  let parse_props s =
    let parts = String.split_on_char ';' s in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun p ->
        if p = "" then failwith ("Io.load: empty property name in: " ^ s);
        if Hashtbl.mem seen p then failwith ("Io.load: duplicate property " ^ p ^ " in: " ^ s);
        Hashtbl.add seen p ())
      parts;
    Propset.of_list (List.map (Symtab.intern names) parts)
  in
  let parse_float what s =
    match float_of_string_opt s with
    | Some f when Float.is_nan f -> failwith ("Io.load: " ^ what ^ " is NaN: " ^ s)
    | Some f when f < 0.0 -> failwith ("Io.load: negative " ^ what ^ ": " ^ s)
    | Some f -> f
    | None -> if s = "inf" then infinity else failwith ("Io.load: bad " ^ what ^ ": " ^ s)
  in
  let rec loop () =
    match next_line () with
    | None -> ()
    | Some line ->
        let line = String.trim line in
        if line <> "" && line.[0] <> '#' then begin
          match tokens line with
          | [ "budget"; b ] -> budget := parse_float "budget" b
          | [ "query"; props; u ] ->
              let q = parse_props props in
              if Propset.length q > Instance.max_query_length then
                failwith
                  (Printf.sprintf "Io.load: more than %d properties in query: %s"
                     Instance.max_query_length props);
              queries := (q, parse_float "utility" u) :: !queries
          | [ "classifier"; props; c ] ->
              Propset.Tbl.replace costs (parse_props props) (parse_float "cost" c)
          | _ -> failwith ("Io.load: malformed line: " ^ line)
        end;
        loop ()
  in
  loop ();
  let cost c =
    match Propset.Tbl.find_opt costs c with Some x -> x | None -> infinity
  in
  Instance.create ~name ~names ~budget:!budget
    ~queries:(Array.of_list (List.rev !queries))
    ~cost ()

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      load_lines
        ~name:(Filename.remove_extension (Filename.basename path))
        (fun () -> In_channel.input_line ic))

let load_string ?(name = "<string>") s =
  Bcc_robust.Fault.hit "io.load";
  let pos = ref 0 in
  let next_line () =
    if !pos >= String.length s then None
    else
      let stop =
        match String.index_from_opt s !pos '\n' with
        | Some i -> i
        | None -> String.length s
      in
      let line = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      Some line
  in
  load_lines ~name next_line

module Solution = Bcc_core.Solution

let save_solution path inst (sol : Solution.t) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# bcc solution for instance %s\n" (Instance.name inst);
      Printf.fprintf oc "# cost %.9g utility %.9g\n" sol.Solution.cost sol.Solution.utility;
      List.iter
        (fun c ->
          let names = List.map (prop_name inst) (Propset.to_list c) in
          Printf.fprintf oc "select %s %.9g\n" (String.concat ";" names)
            (Instance.cost_of inst c))
        sol.Solution.classifiers)

let load_solution inst path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let name_to_id =
        match Instance.names inst with
        | Some tbl -> fun s -> (
            match Symtab.find tbl s with
            | Some id -> id
            | None -> failwith ("Io.load_solution: unknown property " ^ s))
        | None -> fun s -> (
            match int_of_string_opt s with
            | Some id -> id
            | None -> failwith ("Io.load_solution: unknown property " ^ s))
      in
      let sets = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then begin
             match tokens line with
             | [ "select"; props; _cost ] ->
                 let set =
                   Propset.of_list
                     (List.map name_to_id (String.split_on_char ';' props))
                 in
                 if Instance.classifier_id inst set = None then
                   failwith "Io.load_solution: classifier not in the instance universe";
                 sets := set :: !sets
             | _ -> failwith ("Io.load_solution: malformed line: " ^ line)
           end
         done
       with End_of_file -> ());
      Solution.of_sets inst !sets)
