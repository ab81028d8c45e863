(** The run meter: the state one evaluation of either executor — the
    nested-tgd engine ({!Clip_tgd.Eval}) or the XQuery evaluator
    ({!Eval}) — keeps about its source document, its step budget and
    its counters, with the operations both executors meter through.

    A run counts into one {!Clip_obs.Counters.t} and every counting
    site is a direct field increment. The step budget (CLIP-LIM-004)
    is the run's [lim_ticks]: each {!tick} makes one increment, and the
    run fails once the field has grown by more than
    [limits.max_eval_steps] since the run started. *)

type t = {
  source : Clip_xml.Node.t;  (** the document the run reads *)
  stats : Clip_xml.Stats.t Lazy.t;
  counters : Clip_obs.Counters.t;
  start : int;  (** [counters.lim_ticks] when the run started *)
  max_steps : int;
  what : string;  (** "mapping" or "query", for the budget's hint *)
  ctl : Clip_run.Control.t;  (** deadline/cancellation view, polled by {!tick} *)
}

(** [create ?max_steps ?counters ?ctl ~what source] — the meter of one
    run over [source]. The statistics are built on first use.
    [counters] defaults to a fresh record, [ctl] to
    {!Clip_run.Control.none}, [max_steps] to no bound. *)
val create :
  ?max_steps:int ->
  ?counters:Clip_obs.Counters.t ->
  ?ctl:Clip_run.Control.t ->
  what:string ->
  Clip_xml.Node.t ->
  t

val force_stats : t -> Clip_xml.Stats.t

(** [enter m] — run entry: one unconditional control poll, so an
    already-lapsed deadline or a pre-set cancel flag fails the run
    deterministically, whatever the 64-step amortisation. *)
val enter : t -> unit

(** [tick m] — one budget step. Fails with [CLIP-LIM-004] past the
    budget; polls [ctl] every 64 steps of the run. *)
val tick : t -> unit

(** [ticks m n] — [n] {!tick}s in a row, in one counter write when no
    budget failure or control poll falls among them. *)
val ticks : t -> int -> unit

(** [child_step m e sym f x] — [f x c] for every child element [c] of
    [e] tagged [sym], in document order, with no list built. Counts one
    child step, and every child of [e] as a scanned node, all before
    the first match is pushed. *)
val child_step :
  t -> Clip_xml.Node.element -> Clip_xml.Symbol.t -> ('a -> Clip_xml.Node.t -> unit) -> 'a -> unit

(** [child_items m e sym] — the matches of {!child_step} as a list of
    items, for the XQuery evaluator. *)
val child_items : t -> Clip_xml.Node.element -> Clip_xml.Symbol.t -> Value.item list

(** [est_child m (est, parent) tag] — the planner's estimate for a
    [Child tag] step from per-tag cardinalities: applied to [est] items
    tagged [parent], it yields about count(tag)/count(parent) items
    each (ceil; at least 1 when [tag] occurs at all, exactly 0 when it
    never does). A parent of unknown tag falls back to the global
    count of [tag], an upper bound. Returns the estimate and the
    result's tag. *)
val est_child :
  t ->
  int option * Clip_xml.Symbol.t option ->
  string ->
  int option * Clip_xml.Symbol.t option
