(** A backend-agnostic physical-plan layer shared by the nested-tgd
    engine and the XQuery evaluator.

    Both backends' inner loop is a chain of generators (variables bound
    to items enumerated by an expression), a conjunction of filter
    conditions, and a per-binding action. The planner turns that
    logical shape into a physical plan:

    - {b condition pushdown} — each condition is checked at the
      earliest generator position at which all its variables are bound
      (conditions decided by the outer environment are checked once,
      before any enumeration);
    - {b hash joins} — an equality condition linking earlier-bound
      variables to a later generator turns that generator — together
      with the contiguous chain of feeder generators it depends on,
      when that chain is independent of the probe side — into a
      hash-table probe; the table enumerates the segment once per
      environment in which its inputs are fixed and is probed with the
      earlier side's key. When the probe side is decided by the outer
      environment — a nested mapping joined to its parent — and the
      segment reads nothing outside itself, the table is built once per
      run ({!Run}) and shared by every execution of the plan;
    - {b streaming execution} — bindings are folded into an [emit]
      callback; the full Cartesian product is never materialised.

    The planner is language-agnostic: it sees only variable-dependency
    sets and evaluation closures, so both backends plug their own
    expression evaluators in. Enumeration order is preserved exactly
    (probes yield matches in build-side document order), so plan-based
    runs are output-identical to nested-loop evaluation. *)

(** Hashable join/dedup keys over XML atoms: composite (tuple) keys
    over the per-atom normalisation {!Clip_xml.Atom.key}, the single
    definition shared with both backends, so key equality coincides
    with {!Clip_xml.Atom.equal} ([Int 3] and [Float 3.] are one key;
    all NaNs are one key; [0.] and [-0.] are one key). Integers
    beyond the 2^53 float range coarsen onto their nearest float —
    exact consumers re-check the original condition per hit. *)
module Key : sig
  type norm = Clip_xml.Atom.key

  type t = norm list

  val norm_atom : Clip_xml.Atom.t -> norm

  (** Singleton key of one atom. *)
  val of_atom : Clip_xml.Atom.t -> t

  (** Composite key of an atom tuple (grouping keys). *)
  val of_atoms : Clip_xml.Atom.t list -> t

  val equal : t -> t -> bool

  (** The hash the hash joins give an atom's key
      ({!Clip_xml.Atom.key_hash}): equal for atoms with one key, never
      negative, computed without allocating. *)
  val hash_atom : Clip_xml.Atom.t -> int
end

(** The atoms of one evaluation that pushes them (a join-key side, a
    scalar): the first in [first], the later ones in [rest], newest
    first. [push] is the callback that fills it; it is built with the
    record, so collecting one atom allocates nothing. *)
module Sink : sig
  type t = private {
    mutable n : int;
    mutable first : Clip_xml.Atom.t;
    mutable rest : Clip_xml.Atom.t list;
    push : Clip_xml.Atom.t -> unit;
  }

  val create : unit -> t

  (** [fill s k env] — empty [s], then evaluate the pushes [k] under
      [env] into it. *)
  val fill : t -> ('env -> (Clip_xml.Atom.t -> unit) -> unit) -> 'env -> unit

  (** The atoms in [s], in the order they were pushed. *)
  val atoms : t -> Clip_xml.Atom.t list
end

(** The join policy threaded from {!Clip_core.Engine.run} down to both
    backends, which always execute through this plan layer: [`Indexed]
    makes every eligible equality a hash join; [`Auto] (the default)
    lets the cost model decide per chain, from {!Clip_xml.Stats}
    cardinalities, whether each join pays for itself. Both modes are
    output-identical on every input whose evaluation does not raise. *)
type mode = [ `Indexed | `Auto ]

(** Join policy given to {!val-plan}: [`Force] turns every eligible
    equality into a hash join (the [`Indexed] behaviour, and the
    strongest differential oracle); [`Cost] builds a table only when
    {!join_pays} says the estimated work saved beats the build. *)
type policy = [ `Force | `Cost ]

(** [policy_of mode] — [`Force] under [`Indexed], [`Cost] under [`Auto]. *)
val policy_of : mode -> policy

(** [strategy mode] — the EXPLAIN line, newline included, that names
    the join policy of [mode] on either backend. *)
val strategy : mode -> string

(** {1 Planner input} *)

type ('env, 'item) gen = {
  var : string;  (** the variable this generator binds *)
  deps : string list;  (** variables its expression reads *)
  est : int option Lazy.t;
      (** estimated items per evaluation, from {!Clip_xml.Stats}
          cardinalities; [None] = unknown, priced as large by the cost
          model (unknown inputs are the ones a quadratic blow-up
          hurts). Forced only where an estimate is read: a join's cost
          gate, the sizing of its table and {!explain}, so a chain
          with no join to price never collects statistics. *)
  eval : 'env -> ('item -> unit) -> unit;
      (** push the items to the callback, in order; the callback may
          run the rest of the chain before the next item comes *)
  bind : 'env -> 'item -> 'env;
}

type 'env pred = {
  pvars : string list;  (** variables the predicate reads *)
  test : 'env -> bool;
}

(** One side of an equality condition as hashable keys: [keys] pushes
    every atom of the (possibly multi-valued) side, one key each. The
    condition holds when the sides share at least one key. *)
type 'env keyed = {
  kvars : string list;
  keys : 'env -> (Clip_xml.Atom.t -> unit) -> unit;
}

type 'env cond =
  | Eq of { left : 'env keyed; right : 'env keyed; orig : 'env pred }
      (** an equality the planner may turn into a hash join; [orig] is
          the exact original test, re-checked on every probe hit *)
  | Other of 'env pred

(** {1 Physical plans} *)

(** The run-scoped state of plan execution: the tables of
    {!Per_run} probes. A backend creates one per evaluation run and
    passes it to every {!execute} of that run, so a nested plan run
    once per parent binding builds such a table once. It is never
    stored in a plan, so a plan holds no data of the run that
    executes it. *)
module Run : sig
  type 'item t

  val create : unit -> 'item t

  (** Identity of a run-scoped probe, compared physically. *)
  type id
end

(** Where a probe's table lives. [At_step]: built on entry to step
    [step], once per binding of the steps before it, into table slot
    [slot] of the executing call. [Per_run]: the segment reads nothing
    outside itself, so the table is built on the plan's first probe in
    a run and kept in the {!Run.t} for every later execution. *)
type scope = At_step of { step : int; slot : int } | Per_run of Run.id

(** A step covers one generator ([Scan]) or a contiguous segment of
    generators ([Probe]) replaced wholesale by a hash-table lookup
    storing bound item tuples; a plain single-generator hash join is
    the segment of length one. [preds] are re-checked on every hit:
    they include the original equality, so neither key coarsening nor
    a hash collision can widen the join. *)
type ('env, 'item) stage =
  | Scan of { gen : ('env, 'item) gen; preds : 'env pred list }
  | Probe of {
      gens : ('env, 'item) gen array;
      scope : scope;
      build_keys : 'env -> (Clip_xml.Atom.t -> unit) -> unit;
      probe_keys : 'env -> (Clip_xml.Atom.t -> unit) -> unit;
      preds : 'env pred list;
    }

type ('env, 'item) t = {
  pre : 'env pred list;
  stages : ('env, 'item) stage array;
  builds : int list array;
  nslots : int;  (** table slots of the [At_step] probes *)
  notes : string list;
      (** planner decisions, one line per equality condition: the
          chosen strategy (hash join / pushed-down filter) plus the
          cost-model inputs that justified it (estimated outer/inner
          cardinalities, {!join_pays} verdict, structural guards) *)
}

(** One-line plan rendering, e.g. ["scan(p) probe(d.e@0)"], or
    ["probe(g@run)"] for a run-scoped probe — for tests and debugging. *)
val describe : ('env, 'item) t -> string

(** Multi-line EXPLAIN rendering: one line per stage (strategy,
    cardinality estimate, pushed-down filter count) followed by the
    planner's decision {!field-notes}. Purely static — no timings, no
    execution — so the output is stable for golden tests. Every line
    is indented two spaces and newline-terminated. *)
val explain : ('env, 'item) t -> string

(** {1 Cost model} *)

(** Estimate cap; products of per-generator estimates saturate here so
    they cannot overflow. *)
val est_cap : int

(** [join_pays ~outer ~seg] — is a hash join over a segment of
    estimated cardinality [seg], probed once per binding of the
    estimated [outer] prefix, cheaper than re-enumerating the segment
    per prefix binding? Compares [outer * seg] (naive enumerations)
    against [seg + outer] builds/probes with a constant-factor tax for
    hashing and tuple allocation. [None] (unknown) is priced as large,
    i.e. the join is taken. *)
val join_pays : outer:int option -> seg:int option -> bool

(** [inner_runs ~runs t] — estimated runs of a plan nested in [t]'s
    per-binding action, when [t] itself runs [runs] times: [runs]
    times the bindings [t]'s chain enumerates. Saturates at
    {!est_cap}; [None] when any factor is unknown. Nothing is forced
    until the result is. *)
val inner_runs : runs:int option Lazy.t -> ('env, 'item) t -> int option Lazy.t

(** [plan ?policy ?runs ~bound ~gens ~conds] — the physical plan for
    one generator chain. [bound] lists the variables already bound by
    the outer environment; [runs] estimates how often the plan runs
    per evaluation (the product of its ancestors' chain estimates, see
    {!inner_runs}; absent = unknown, priced as large), and like the
    generators' estimates it is forced only by a cost gate. [policy]
    (default [`Force]) selects between forced and cost-based join
    selection; condition pushdown is free and happens under both.

    An equality whose probe side reads only outer-bound variables — a
    nested mapping's join with its parent, [c.@cid = g.@recipient] —
    becomes a {!Per_run} probe when some segment ending at the build
    side's generator reads nothing outside itself; under [`Cost] only
    when {!join_pays} with [outer] = [runs] times the bindings before
    the segment. An equality whose probe side is a constant
    ([y.a = 5]) is never turned into a join, under either policy: it
    stays a pushed-down filter. If a generator shadows an outer
    variable or a sibling generator, the planner degrades to checking
    every condition at the innermost position (naive semantics are
    always preserved). *)
val plan :
  ?policy:policy ->
  ?runs:int option Lazy.t ->
  bound:string list ->
  gens:('env, 'item) gen list ->
  conds:'env cond list ->
  unit ->
  ('env, 'item) t

(** [executor ~obs ~run t ~tick ~emit] — the loop of plan [t], built
    once: applied to a binding [env], it streams every surviving
    binding of the chain that extends [env] into [emit], in exactly the
    naive enumeration order. [tick] is called once per item enumerated
    at every stage, so step budgets keep metering enumerated bindings
    (CLIP-LIM-004); a table build is metered by the backend's own
    generator and key closures. [run] holds the run-scoped tables: a
    {!Per_run} table is built on the first probe that reaches it under
    [run] and reused by every later application. Hash-join builds and
    probes count into [obs], the run's record.

    Generators push their items into callbacks the executor builds
    once, and a step's table slot is reused by the next application,
    so a loop over candidates allocates nothing of its own. An
    executor is not re-entrant: [emit] may apply other executors (a
    nested plan's), never the one it is called from. *)
val executor :
  obs:Clip_obs.Counters.t ->
  run:'item Run.t ->
  ('env, 'item) t ->
  tick:(unit -> unit) ->
  emit:('env -> unit) ->
  'env ->
  unit

(** [execute ~obs ~run t ~tick ~env ~emit] — one application of a
    fresh {!executor}. *)
val execute :
  obs:Clip_obs.Counters.t ->
  run:'item Run.t ->
  ('env, 'item) t ->
  tick:(unit -> unit) ->
  env:'env ->
  emit:('env -> unit) ->
  unit
