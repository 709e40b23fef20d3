(* Metric records and the one-line JSON result the benchmark prints. *)

type metric = { name : string; value : float; unit_ : string }

let name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(* Names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> name_char c || c = '/' || c = '%') s

let metric name unit_ value =
  if not (valid_name name) then invalid_arg ("Report.metric: bad name " ^ name);
  if not (valid_unit unit_) then invalid_arg ("Report.metric: bad unit " ^ unit_);
  { name; value; unit_ }

(* The result line: one JSON object on one line.  JSON has no NaN or
   infinity, so a non-finite value is a bug in the caller. *)
let result_line ~correct ~attempted ~failed metrics =
  let module Json = Bcc_server.Json in
  let metric m =
    if not (Float.is_finite m.value) then invalid_arg ("Report.result_line: non-finite " ^ m.name);
    (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", Json.Obj (List.map metric metrics));
       ])
