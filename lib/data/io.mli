(** Plain-text serialization of BCC instances.

    Line-oriented format, one record per line:
    {v
    # comments and blank lines ignored
    budget 4.0
    query wooden;table 8
    classifier wooden 5
    classifier wooden;table 3
    v}
    Classifiers absent from the file are priced [infinity] (not
    constructible); a [classifier ... inf] line makes that explicit.

    Fields are separated by runs of blanks (spaces or tabs) and lines
    may end in CRLF — instance bodies also arrive verbatim over HTTP
    (see {!Bcc_server.Server}), where CRLF line endings are the norm. *)

val save : string -> Bcc_core.Instance.t -> unit
(** Writes the queries and the whole (finite-cost) classifier universe,
    so a load reconstructs the same instance.  Property names come from
    the instance's symbol table when present, else the numeric ids. *)

val to_string : Bcc_core.Instance.t -> string
(** The exact bytes {!save} would write. *)

val load : string -> Bcc_core.Instance.t
(** @raise Failure on a malformed file, including a query with more
    than {!Bcc_core.Instance.max_query_length} properties. *)

val load_string : ?name:string -> string -> Bcc_core.Instance.t
(** Parses the same format from an in-memory string ([name] defaults to
    ["<string>"]).  Passes the ["io.load"] fault point first.
    @raise Failure on malformed input, as {!load}. *)

val save_solution : string -> Bcc_core.Instance.t -> Bcc_core.Solution.t -> unit
(** Writes the selected classifiers (one [select p1;p2;... cost] line
    each) plus summary comments; human-diffable and reloadable. *)

val load_solution : Bcc_core.Instance.t -> string -> Bcc_core.Solution.t
(** Reconstructs a solution against the given instance (classifier sets
    are re-priced and re-verified from the instance).
    @raise Failure on a malformed file or a classifier not in the
    instance's universe. *)
