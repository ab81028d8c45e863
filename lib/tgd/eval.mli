(** A data-exchange engine: execute a nested tgd over a source instance
    and materialise the target instance.

    The engine implements the paper's operational reading:
    - [Driven] target generators create a fresh element per binding of
      the universal part of their mapping;
    - [Completion] generators (and intermediate singleton steps on
      target paths) create at most one element per parent context —
      the minimum-cardinality principle of Sec. II-A;
    - [Grouped] generators memoise the created element per distinct
      grouping-key tuple under the parent context — the [group-by]
      Skolem of Sec. IV-B; submappings then run once per member binding
      of the group, so inner builders see the member's full source
      context (this reproduces the Fig. 7 employee placement);
    - aggregate assertions evaluate their argument in the binding
      environment, so the context of aggregation is fixed by the
      variable the argument is rooted in (Sec. IV-B).

    Passing [~minimum_cardinality:false] turns [Completion] generators
    into [Driven] ones, yielding the naive universal-solution behaviour
    the paper contrasts against (one [department] per mapped value in
    the Fig. 3 discussion).

    Every run compiles each mapping's universal part to a {!Clip_plan}
    physical plan — conditions pushed to their earliest position,
    equality conditions executed as hash joins, bindings streamed.
    [?plan] picks the join and index policy: [`Auto] (the default) lets
    the cost model decide whether each hash join pays for itself, and
    turns the {!Clip_xml.Index} tag index on only for revisit-prone
    plans over large-enough documents; [`Indexed] forces every eligible
    join and the index unconditionally. Both modes produce identical
    documents; only error behaviour may differ (pushdown can evaluate
    a failing condition a nested-loop order would never reach, and
    vice versa). The run counts into [?obs] (a fresh record when
    omitted) — counters are explicit per-run state, never ambient; its
    step count is the increase of the record's [lim_ticks]. [?ctl], when
    given, is polled at the same budget tick sites (amortised, one
    clock read per 64 steps, plus once at run start): an expired
    deadline reports [CLIP-LIM-005], a set cancellation flag
    [CLIP-LIM-006] — see {!Clip_run.Control}.

    Every run analyses its source afresh — instance statistics, tag
    index, physical plans — and keeps none of it, so two runs over the
    same arguments do the same work. *)

(** Scalar function symbols known to the engine (usable in
    [Term.Fn]): [concat], [add], [sub], [mul], [div], [upper],
    [lower]. *)
val scalar_functions : string list

(** [run_result ~source ~target_root m] builds the target document.
    Dynamic errors — unbound variables, conflicting leaf assignments,
    non-singleton grouping keys, unknown scalar functions — are
    reported as [CLIP-TGD-001] diagnostics; exhausting the step budget
    ([limits.max_eval_steps], counting one step per source-expression
    or scalar evaluation) as [CLIP-LIM-004]. *)
val run_result :
  ?limits:Clip_diag.Limits.t ->
  ?minimum_cardinality:bool ->
  ?plan:Clip_plan.mode ->
  ?ctl:Clip_run.Control.t ->
  ?obs:Clip_obs.Counters.t ->
  source:Clip_xml.Node.t ->
  target_root:string ->
  Tgd.t ->
  (Clip_xml.Node.t, Clip_diag.t list) result

(** [explain ~source m] — a static, deterministic EXPLAIN of how
    [?plan] (default [`Auto]) would execute [m] over [source]: a
    header stating the strategy (for [`Auto]: cost-based plans with
    the tag-index decision), then one block per mapping rule with
    its physical stages, cardinality estimates and the planner's
    per-equality decision notes (see {!Clip_plan.explain}). Nothing is
    evaluated and no timing appears in the output, so it is stable for
    golden tests. *)
val explain :
  ?plan:Clip_plan.mode ->
  source:Clip_xml.Node.t ->
  Tgd.t ->
  string

(** Instance-level data lineage: for each created target element,
    the source elements that were bound when it was created (completion
    and group elements accumulate the bindings of every contributing
    iteration). [target_path] indexes element children from the root
    ([[]] is the root itself, [[0; 2]] the third element child of the
    first element child). *)
type trace_entry = {
  target_path : int list;
  sources : Clip_xml.Node.t list; (** source elements, in binding order *)
}

(** [run_traced_result ~source ~target_root m] — like {!run_result},
    also returning the lineage of every target element, preorder. *)
val run_traced_result :
  ?limits:Clip_diag.Limits.t ->
  ?minimum_cardinality:bool ->
  ?plan:Clip_plan.mode ->
  ?ctl:Clip_run.Control.t ->
  ?obs:Clip_obs.Counters.t ->
  source:Clip_xml.Node.t ->
  target_root:string ->
  Tgd.t ->
  (Clip_xml.Node.t * trace_entry list, Clip_diag.t list) result
