(** Evaluator for the XQuery fragment of {!Ast} over {!Clip_xml} data.

    Evaluation is metered: every expression node visited counts one
    step against [limits.max_eval_steps], so a runaway query (e.g. a
    fuzzed FLWOR over a large cross product) reports [CLIP-LIM-004]
    instead of hanging.

    FLWOR blocks run through the shared {!Clip_plan} physical-plan
    layer: [where] conjuncts pushed to their earliest clause, equality
    conjuncts executed as hash joins. [?plan] picks the join policy:
    [`Auto] (the default) builds a hash table only {e when the cost
    model says it pays for itself}; [`Indexed] forces every eligible
    join. Both modes produce identical values; only error
    behaviour may differ (pushdown can evaluate a failing conjunct a
    clause-by-clause order would never reach, and vice versa).
    The run counts into [?obs] (a fresh record when omitted) —
    counters are explicit per-run state, never ambient; its step count
    is the increase of the record's [lim_ticks] (see {!Meter}). [?ctl],
    when given, is polled at the same
    budget tick sites (amortised, one clock read per 64 steps, plus
    once at run start): an expired deadline reports [CLIP-LIM-005], a
    set cancellation flag [CLIP-LIM-006] — see {!Clip_run.Control}.

    Every run analyses its input afresh — instance statistics, FLWOR
    plans — and keeps none of it. Within a run, a FLWOR
    block re-entered once per outer binding reuses the plan compiled on
    its first entry (counted as [memo_hits]). *)

(** [explain ~input expr] — a static, deterministic EXPLAIN of how
    [?plan] (default [`Auto]) would evaluate [expr] over [input]: a
    header stating the strategy, then one block per
    FLWOR (preorder-numbered) with its physical stages, cardinality
    estimates and the planner's per-equality decision notes (see
    {!Clip_plan.explain}). Nothing is evaluated and no timing appears
    in the output, so it is stable for golden tests. *)
val explain :
  ?plan:Clip_plan.mode ->
  input:Clip_xml.Node.t ->
  Ast.expr ->
  string

(** [run_result ~input expr] evaluates [expr]; [Ast.Doc tag] resolves
    to [input] when tags match (the generated queries reference the
    source document by its root tag, e.g. [source/dept]). Dynamic
    errors — unbound variables, unknown functions, type errors — are
    reported as [CLIP-XQ-002] diagnostics; exhausting the step budget
    as [CLIP-LIM-004]. *)
val run_result :
  ?limits:Clip_diag.Limits.t ->
  ?plan:Clip_plan.mode ->
  ?ctl:Clip_run.Control.t ->
  ?obs:Clip_obs.Counters.t ->
  input:Clip_xml.Node.t ->
  Ast.expr ->
  (Value.t, Clip_diag.t list) result

(** [run_document_result ~input expr] — like {!run_result} but expects
    the result to be exactly one element node (the constructed target
    document). *)
val run_document_result :
  ?limits:Clip_diag.Limits.t ->
  ?plan:Clip_plan.mode ->
  ?ctl:Clip_run.Control.t ->
  ?obs:Clip_obs.Counters.t ->
  input:Clip_xml.Node.t ->
  Ast.expr ->
  (Clip_xml.Node.t, Clip_diag.t list) result
