(** Explicit execution contexts.

    A context carries every piece of run-scoped mutable state the
    engine stack needs — the {!Clip_obs} counter record, the trace
    tracer and the fault-tolerance {!Control} (deadline + cooperative
    cancellation) — as one explicit value. It holds no cache: every
    run compiles and analyses its own input, so running twice under
    one context gives what two fresh contexts give. Nothing in the evaluation stack reaches for
    ambient globals: state is owned by whoever created the context,
    which is what makes concurrent evaluation ({!Clip_par}) sound —
    contexts on different domains share nothing.

    {b Ownership rules.} A context (and the counter record or tracer
    inside it) belongs to a single domain at a time; create one
    context per concurrent evaluation. Cross-domain aggregation is by
    {e merging}, not sharing: give each worker its own record and fold
    the results with {!Clip_obs.Counters.add}. The one deliberately
    cross-domain piece is the {!Cancel} flag: it is an atomic set-only
    bit, made to be shared (a signal handler or admission controller
    on one domain cancelling evaluations on others). *)

(** {1 Cooperative cancellation} *)

(** A set-once cancellation flag, safe to share across domains: one
    holder {!Cancel.set}s it, every evaluation polling it (at the
    CLIP-LIM-004 tick sites) stops with a [CLIP-LIM-006] diagnostic at
    its next poll. Cancellation is cooperative — nothing is killed;
    the evaluator unwinds through the ordinary [*_result] error path,
    leaving the context reusable. *)
module Cancel : sig
  type t

  val create : unit -> t
  val set : t -> unit
  val is_set : t -> bool
end

(** {1 Deadlines} *)

(** A wall-clock bound on one evaluation, against an {e injected}
    clock — pass a monotonic source where available ([Unix.gettimeofday]
    at the CLI boundary; a counter in tests, which makes deadline
    expiry deterministic). Expired means [now () >= until]. *)
type deadline = { dnow : unit -> float; duntil : float }

val deadline : now:(unit -> float) -> until:float -> deadline

(** [deadline_after ~now ~seconds] — a deadline [seconds] from now. *)
val deadline_after : now:(unit -> float) -> seconds:float -> deadline

(** {1 Control: the evaluators' poll view} *)

(** What the evaluators poll at their tick sites: an optional deadline
    plus a cancellation flag. Deadline expiry surfaces as
    [CLIP-LIM-005], cancellation as [CLIP-LIM-006] — both through the
    usual exception-free [*_result] APIs, like every other
    [CLIP-LIM-*] guard. *)
module Control : sig
  type t

  (** The inert control: no deadline, a flag nobody holds. This is the
      default for evaluator entry points called without a context;
      {!is_none} lets their tick sites skip the poll entirely. *)
  val none : t

  val make : ?deadline:deadline -> ?cancel:Cancel.t -> unit -> t

  (** Physical-equality test against {!none} (the poll fast path). *)
  val is_none : t -> bool

  val cancelled : t -> bool
  val expired : t -> bool

  (** [check t] — [Some diag] when cancelled ([CLIP-LIM-006], checked
      first) or past the deadline ([CLIP-LIM-005]); [None] otherwise.
      Reads the clock, so callers amortise it (the evaluators poll
      every 64 ticks). *)
  val check : t -> Clip_diag.t option
end

type t

(** [create ?counters ?tracer ?deadline ?cancel ()] — a fresh context.
    Every run under it counts into [counters], a fresh record when
    omitted; an omitted tracer means spans are off. The context always
    owns a fresh {!Control} built from [?deadline]/[?cancel]; pass a
    shared {!Cancel.t} to let an outside holder cancel this context's
    evaluations. *)
val create :
  ?counters:Clip_obs.Counters.t ->
  ?tracer:Clip_obs.Trace.t ->
  ?deadline:deadline ->
  ?cancel:Cancel.t ->
  unit ->
  t

(** The record the context's runs count into (to pass to [?obs]
    parameters). *)
val counters : t -> Clip_obs.Counters.t

val tracer : t -> Clip_obs.Trace.t option

(** [span ctx name f] — time [f] as a span of the context's tracer;
    calls [f] directly when the context has none. *)
val span : t -> string -> (unit -> 'a) -> 'a

(** The context's control view (to pass to [?ctl] parameters). *)
val control : t -> Control.t

(** [cancel ctx] — set the context's cancellation flag: evaluations
    running under it report [CLIP-LIM-006] at their next poll. *)
val cancel : t -> unit

val cancelled : t -> bool
