(** End-to-end execution of a Clip mapping over a source instance.

    Three backends implement the same semantics:
    - [`Tgd] — compile to a nested tgd and run the {!Clip_tgd.Eval}
      data-exchange engine directly;
    - [`Rel] — a relational-shape gate over [`Tgd]: a mapping whose
      source schema is relational-shaped (the
      {!Clip_schema.Relational} encoding: tables under a bare root)
      runs exactly the [`Tgd] path, and any other source is rejected
      statically with [CLIP-REL-003] ({!Clip_rel.Program});
    - [`Xquery] — compile to a tgd, generate the XQuery of Sec. VI with
      {!To_xquery}, and evaluate it as an AST with {!Clip_xquery.Eval}.
      Its concrete syntax ({!xquery_text}) is checked by the test
      suite, which parses the printed query back to an equal AST.

    The test suite asserts all backends agree on every scenario; the
    benchmark harness compares their cost.

    Every backend executes through the shared {!Clip_plan} layer.
    Orthogonally to the backend, [?plan] selects its join policy:
    [`Auto] (the default) picks joins by cost (from {!Clip_xml.Stats}
    cardinalities); [`Indexed] forces every eligible hash join. Both
    produce identical target instances. Every [Child] step scans the
    children of the element it reads. The evaluation-budget steps a
    run consumes are counted by the context's [lim_ticks] counter
    ({!Clip_obs.Counters}).

    Every entry point reports failures as [CLIP-*] diagnostics in a
    [result]: validity, compile, translation, dynamic and
    resource-limit failures alike. {!run}, {!tgd_text} and
    {!xquery_text} are the only raising wrappers, and they raise only
    {!Clip_diag.Fail}.

    Every call compiles the mapping, translates it where the backend
    needs a query, and analyses the source (statistics, physical plans)
    afresh, and keeps none of it: nothing carries over
    from one call to the next, so a run's output and work counters
    depend only on its arguments.

    {!run_result} evaluates a materialised document whole. Single-document
    sharding is a property of the byte stream: only {!run_stream_result}
    cuts, and it cuts the bytes as they arrive ({!Clip_shard.cutter}),
    never a built tree. *)

type backend = [ `Tgd | `Xquery | `Rel ]

(** How {!run_stream_result} executes one source document:
    - [`Whole] — materialise the document and evaluate it whole, as
      {!run_result} does; the oracle every sharded run must match byte
      for byte;
    - [`Sharded] (the default) — when {!Clip_shard.plan} designates a
      cut whose shards need no document prologue, cut the byte stream
      at the topmost repeated element the mapping quantifies over,
      evaluate the shards on [?jobs] domains through the unchanged
      backend executors (tgd and query compiled once per run), and
      merge the per-shard targets into exactly the whole-document
      output. Every other mapping, and a document whose root does not
      open the cut's container chain, is materialised and evaluated
      whole (EXPLAIN says why, see {!explain_result}).

    Sharded runs preserve outputs, diagnostics (the lowest shard's
    failure, i.e. the first the sequential run would hit) and counter
    totals across [?jobs]; only the per-shard step budget differs
    ([?limits] bounds each shard evaluation, not their sum). *)
type mode = [ `Whole | `Sharded ]

(** The default shard byte budget (1 MiB of source bytes per shard). *)
val default_shard_bytes : int

(** The backend contract, made explicit: everything the engine needs
    from an execution backend in one signature. A backend provides a
    shard-ready compiled form ([query], prepared once per run and
    shared by every shard), whole-document evaluation of a source
    document ([eval_result] — phase spans, counters, cancellation and
    the step budget flow through the [ctx]), per-shard evaluation
    ([eval_shard]), and the static plan renderer behind [clip explain]
    ([explain]). Every
    operation reports failures as diagnostics.

    Engine dispatch is a lookup in the {!backends} table of first-class
    modules, so adding a backend means writing one module satisfying
    this signature and appending one row — no new match arms. *)
module type BACKEND = sig
  type query

  val id : backend
  val name : string

  (** One clause for the [--backend] option's documentation. *)
  val doc : string

  val prepare_result :
    ?limits:Clip_diag.Limits.t ->
    ctx:Clip_run.t ->
    mapping:Mapping.t ->
    Clip_tgd.Tgd.t ->
    (query, Clip_diag.t list) result

  val eval_result :
    ?limits:Clip_diag.Limits.t ->
    ctx:Clip_run.t ->
    minimum_cardinality:bool ->
    ?plan:Clip_plan.mode ->
    Clip_xml.Node.t ->
    Mapping.t ->
    Clip_tgd.Tgd.t ->
    (Clip_xml.Node.t, Clip_diag.t list) result

  (** The shard counts into [obs] (a fresh record when [None]);
      [steps_out] receives the budget steps it consumed, the increase
      of the record's [lim_ticks], even when it fails. *)
  val eval_shard :
    ?limits:Clip_diag.Limits.t ->
    minimum_cardinality:bool ->
    ?plan:Clip_plan.mode ->
    ctl:Clip_run.Control.t ->
    obs:Clip_obs.Counters.t option ->
    steps_out:int ref ->
    query ->
    Clip_xml.Node.t ->
    (Clip_xml.Node.t, Clip_diag.t list) result

  val explain :
    ?plan:Clip_plan.mode ->
    Clip_xml.Node.t ->
    Mapping.t ->
    Clip_tgd.Tgd.t ->
    (string, Clip_diag.t list) result
end

(** A backend packed with its (existential) query type — the row type
    of the registry. *)
type packed = Backend : (module BACKEND with type query = 'q) -> packed

(** The registry: every execution backend, in the order the CLI lists
    them. *)
val backends : packed list

(** [backend_module id] — the registry row implementing [id]. *)
val backend_module : backend -> packed

(** [backend_of_name name] — the backend whose CLI name is [name]
    ([None] for unknown names; the CLI derives its [--backend] parser
    from this registry). *)
val backend_of_name : string -> packed option

(** The CLI name of every registered backend, paired with its
    identifier — the alternatives of the [--backend] option. *)
val backend_names : (string * backend) list

(** [run_result mapping source] — the target instance. Default
    backend [`Tgd]; default minimum-cardinality on; default plan
    [`Auto]. [?ctx] supplies the execution context — counter record,
    tracer, deadline and cancellation flag; without it the run gets a
    fresh {!Clip_run.create} context. The run compiles the
    mapping and analyses [source] itself; two runs with the same
    arguments give the same bytes and the same work counters, whether
    or not they share a context.

    Every failure stage is a diagnostic: [CLIP-VAL-*] validity errors,
    [CLIP-CMP-*] compile errors, [CLIP-XQG-001] translation gaps,
    [CLIP-REL-003] non-relational sources on [`Rel],
    [CLIP-TGD-001]/[CLIP-XQ-*] dynamic errors, [CLIP-LIM-*] exhausted
    budgets, deadlines and cancellation, and [CLIP-ENG-001] for the
    universal-solution ablation ([~minimum_cardinality:false]) on any
    backend but [`Tgd]. *)
val run_result :
  ?ctx:Clip_run.t ->
  ?limits:Clip_diag.Limits.t ->
  ?backend:backend ->
  ?minimum_cardinality:bool ->
  ?plan:Clip_plan.mode ->
  Mapping.t ->
  Clip_xml.Node.t ->
  (Clip_xml.Node.t, Clip_diag.t list) result

(** [run mapping source] — {!run_result} under the default limits,
    raising {!Clip_diag.Fail} with its diagnostics on failure. It
    raises nothing else. *)
val run :
  ?ctx:Clip_run.t ->
  ?backend:backend ->
  ?minimum_cardinality:bool ->
  ?plan:Clip_plan.mode ->
  Mapping.t ->
  Clip_xml.Node.t ->
  Clip_xml.Node.t

(** [run_staged_result mappings source] — run a non-empty chain of
    mappings stage by stage, the output document of each stage feeding
    the next. All stages share one execution context (counters, tracer,
    deadline, cancellation) and the same engine options. The first
    failing stage aborts the chain with its diagnostics. This is the
    fallback execution strategy of {!Clip_algebra.Pipeline} when
    composition is rejected.
    @raise Invalid_argument on an empty chain. *)
val run_staged_result :
  ?ctx:Clip_run.t ->
  ?limits:Clip_diag.Limits.t ->
  ?backend:backend ->
  ?minimum_cardinality:bool ->
  ?plan:Clip_plan.mode ->
  Mapping.t list ->
  Clip_xml.Node.t ->
  (Clip_xml.Node.t, Clip_diag.t list) result

(** [run_stream_result mapping stream] — run a mapping over a byte
    stream ({!Clip_xml.Stream.source}, e.g. {!Clip_xml.Stream.of_channel})
    instead of a materialised document.

    Default [?mode] is [`Sharded]. On a cut (see {!mode}) the run is
    {e fully streaming}: the {!Clip_shard.cutter} materialises one
    shard of about [?shard_bytes] source bytes at a time straight off
    the byte feed, [?jobs] domains evaluate shards through
    {!Clip_par.stream_results}, and the merger folds outputs strictly
    in document order — peak residency is the in-flight window of
    shards plus the merged target, never the source tree. Every other
    case materialises the document first and proceeds exactly as
    {!run_result} on it.

    Output and diagnostics are identical to parsing the same bytes and
    calling {!run_result} — the input-size limit included: as
    documented in {!Clip_xml.Stream}, an oversized feed reports
    [CLIP-LIM-001] even when an early chunk is syntactically broken,
    exactly as the up-front check of the whole-string parse would.
    Counters are the sum over the shards, the same for every [?jobs]. *)
val run_stream_result :
  ?ctx:Clip_run.t ->
  ?limits:Clip_diag.Limits.t ->
  ?backend:backend ->
  ?minimum_cardinality:bool ->
  ?plan:Clip_plan.mode ->
  ?mode:mode ->
  ?shard_bytes:int ->
  ?jobs:int ->
  Mapping.t ->
  Clip_xml.Stream.source ->
  (Clip_xml.Node.t, Clip_diag.t list) result

(** [explain_result ?backend ?plan mapping source] — a static,
    deterministic EXPLAIN of how a run with the same arguments would
    execute: the resolved join strategy ({!Clip_plan.strategy}), then
    per source clause
    the chosen physical step (nested-loop scan, pushed-down filter,
    hash join) with the cost-model inputs that justified it — estimated
    outer/inner cardinalities, {!Clip_plan.join_pays} verdicts,
    threshold triggers. Nothing is executed and no timings appear, so
    output is golden-testable.

    When [?mode] is given, a final [sharding: ...] line states what
    {!run_stream_result} with that mode does with this mapping and
    document — the cut it streams, or the whole-document fallback with
    its reason. Without [?mode] the output is unchanged.

    A mapping {!run_result} would reject is reported with the same
    compile-stage diagnostics ([CLIP-VAL-*], [CLIP-CMP-*],
    [CLIP-XQG-001], [CLIP-REL-003]). *)
val explain_result :
  ?backend:backend ->
  ?plan:Clip_plan.mode ->
  ?mode:mode ->
  Mapping.t ->
  Clip_xml.Node.t ->
  (string, Clip_diag.t list) result

(** [diagnose mapping] — every diagnostic for a mapping in one pass:
    all validity issues (warnings included) and, when the mapping is
    valid enough to compile, any compile- or translation-stage
    errors. Empty means clean. *)
val diagnose : Mapping.t -> Clip_diag.t list

(** [run_traced_result mapping source] — run on the tgd backend and
    also return instance-level lineage: which source elements each
    created target element came from (see
    {!Clip_tgd.Eval.run_traced_result}). *)
val run_traced_result :
  ?ctx:Clip_run.t ->
  ?minimum_cardinality:bool ->
  ?plan:Clip_plan.mode ->
  Mapping.t ->
  Clip_xml.Node.t ->
  (Clip_xml.Node.t * Clip_tgd.Eval.trace_entry list, Clip_diag.t list) result

(** The generated XQuery text for a mapping (Sec. VI output).
    @raise Clip_diag.Fail with the compile or translation diagnostics. *)
val xquery_text : Mapping.t -> string

(** The compiled nested tgd in the paper's notation (Sec. IV output).
    @raise Clip_diag.Fail with the compile diagnostics. *)
val tgd_text : ?unicode:bool -> Mapping.t -> string
