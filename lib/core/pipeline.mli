(** Incremental solve pipeline: the monolithic [A^BCC] solve, re-staged
    as four explicit artifacts so a delta-driven re-solve can reuse the
    stages a delta did not touch.

    + {b Pruned} — the keep-mask from {!Prune.rule1} plus the
      {e kept-query map}: queries whose cheapest complete cover fits the
      global budget.  Unaffordable queries can never be covered (any
      cover costs at least the cheapest one), so dropping them before
      decomposition loses nothing.
    + {b Components} — connected components of the overlap graph over
      the kept queries ({!Decompose.components}), each stamped with a
      {e content fingerprint}: an md5 over a canonical serialization of
      everything a per-component solve can observe (queries with
      utilities, finite-cost classifier subsets with costs, the global
      budget, the curve grid, the solver options and a format version —
      property sets keyed by sorted {e names} when the instance carries
      a symbol table, so fingerprints survive the store's replay
      re-interning).
      Classifiers cannot bridge components, so the instance decomposes
      exactly.
    + {b Component curves} — for each component, a budget → (utility,
      selection) curve: [grid + 1] points at evenly spaced budgets up
      to the component's spend cap (the sum of its queries' cheapest
      covers, clamped to the global budget).  The full-cap point is
      solved first; lower-budget points whose budget still fits the cap
      selection reuse it verbatim (a deterministic saturation shortcut
      — caps are loose, so most points need no sub-solve), the rest are
      solved on the restricted instance.  Each sub-solve draws its randomness from
      {!Bcc_util.Rng.derive_fingerprint} of a fixed pipeline constant
      and the component fingerprint, so a curve is a {e pure function
      of component content} — bit-stable regardless of which other
      components exist, the solve order, or the process run.  Curves of
      unchanged components are served from the context's artifact
      cache; the fingerprint key makes the cache self-validating (a hit
      can only return what a cold solve would recompute), and every
      loaded payload is checksum-verified and re-priced against the
      live instance, so a torn or corrupted artifact degrades to a
      recompute, never to a wrong answer.  The ["pipeline.artifact"]
      fault point ({!Bcc_robust.Fault}) covers the lookup.
    + {b Assembly} — a multiple-choice knapsack over the curves (one
      point per component, costs rounded {e up} onto a tick grid so the
      result is always feasible), a leftover-budget greedy sweep, and
      the same final race the monolithic solve runs (whole-cover
      greedy, IG2, and the re-validated warm bank when the context
      carries one) — so the pipeline never trails the baselines.

    Because reused curves are byte-identical to recomputed ones and
    everything downstream of the curves is deterministic, an
    incremental solve that reuses any subset of clean cached curves is
    {e bit-identical} to a cold pipeline solve of the same instance —
    the property the store's qcheck suite exercises end to end.

    With {!Bcc_obs.Event} enabled, a solve emits one [pipeline_reuse]
    event carrying the component totals, reuse count and wall time (on
    top of the per-sub-solve anytime streams). *)

type pruned = {
  keep : bool array;  (** {!Prune.rule1} keep-mask (all-true when pruning is off or expired) *)
  kept_queries : int list;  (** query ids whose cheapest cover fits the budget, ascending *)
  cheapest : float array;
      (** per-query cheapest complete-cover cost ([infinity] = uncoverable) *)
}

type staged_component = {
  comp : Decompose.component;
  fingerprint : string;  (** md5 hex over the canonical component content *)
  sub : Instance.t Lazy.t;
      (** the restricted instance the curve solves; forced only when the
          curve actually recomputes, so reused components never pay for
          the restriction *)
  cap : float;  (** spend cap: no budget beyond this helps the component *)
  comp_grid : int;
      (** the component's effective curve grid: small components use a
          coarser grid (their caps admit few meaningfully distinct
          budget splits), so a dirty small component costs fewer
          sub-solves.  A function of component content, and an input to
          [fingerprint]. *)
}

type point = {
  point_budget : float;
  point_utility : float;
  point_cost : float;  (** realized cost, [<= point_budget] *)
  sets : Propset.t list;  (** the selected classifiers, in parent property ids *)
}

type curve = { curve_fingerprint : string; points : point array }

type component_report = {
  fingerprint : string;
  num_queries : int;
  min_prop : int;
  props : Propset.t;
      (** the component's property footprint — what the store intersects
          delta footprints against to decide invalidation *)
  cap : float;
  reused : bool;  (** curve served from the artifact cache *)
  best_utility : float;  (** utility at the full-cap curve point *)
  comp_wall_s : float;  (** curve compute time; [0.0] when reused *)
}

type report = {
  outcome : Solver.outcome;
  components_total : int;
  components_reused : int;
  components : component_report list;
  wall_s : float;
}

val default_grid : int
(** Curve points per component minus one (default 8, i.e. 9 budgets
    including zero). *)

val fault_point : string
(** ["pipeline.artifact"] — the {!Bcc_robust.Fault} injection point on
    artifact-cache lookups. *)

val fingerprint :
  options:Solver.options -> grid:int -> Instance.t -> Decompose.component -> string
(** The content fingerprint described above.  Independent of query ids
    and insertion order; changes whenever any observable input to the
    component's sub-solve changes. *)

val curve_to_string : ?names:Symtab.t -> curve -> string
(** Self-checking artifact payload: versioned header, fingerprint and
    body md5, then the points.  With [names], selection sets are
    rendered as property {e names} (the store's symbol table re-interns
    ids in a different order after a replay; names survive). *)

val curve_of_string : ?names:Symtab.t -> fingerprint:string -> string -> curve option
(** Strict, total parse: [None] on a version, fingerprint or checksum
    mismatch, an unknown property name, or any malformed byte — callers
    treat [None] as a cache miss.  Pass the same [names] the payload was
    written with. *)

val prune_stage :
  options:Solver.options ->
  deadline:Bcc_robust.Deadline.t ->
  pool:Bcc_engine.Engine.Pool.t ->
  note_degraded:(string -> unit) ->
  Instance.t ->
  pruned
(** Stage 1 (exposed for tests and explain tooling).  The cheapest-cover
    scan fans out over [pool] in fixed query chunks on large instances;
    per-element results are identical at any job count.
    @raise Bcc_robust.Deadline.Expired past [deadline] (from the
    cheapest-cover scan; the prune itself degrades to keep-all). *)

val component_stage :
  ?hints:Solve_ctx.fp_hints ->
  options:Solver.options ->
  grid:int ->
  Instance.t ->
  pruned ->
  staged_component list
(** Stage 2 (exposed for tests and explain tooling): deterministic
    component order (by [min_prop]), fingerprints and spend caps.
    [hints] lets a caller that can prove a component's content unchanged
    since the last solve (the workload store, via delta-footprint
    eviction) serve its fingerprint without rehashing — the dominant
    fixed cost of an all-clean incremental re-solve.  The hint key
    embeds the fingerprint header (budget, grid, options), so only
    content changes rely on the provider's eviction guarantee, and a
    hinted fingerprint is always the one a cold hash would produce —
    the incremental == cold contract is unchanged. *)

val solve :
  ?options:Solver.options -> ?grid:int -> Solve_ctx.t -> Instance.t -> report
(** Run the full pipeline.  The context supplies the deadline, engine
    pool, warm bank and artifact cache; with no cache every component
    recomputes (a {e cold} pipeline solve).  Never raises
    {!Bcc_robust.Deadline.Expired}: expiry before the curves exist
    falls back to the monolithic {!Solver.solve_with_ctx} (degraded),
    later expiries degrade stage by stage exactly like the monolithic
    solve.  Degraded curves are never written to the cache. *)
