(** Zero-dependency observability: execution counters and trace spans.

    Every run counts into one {!Counters.t} that it always has: the
    caller's record, or a fresh one (see {!Clip_run.create}). The
    execution layers — the tgd engine, the XQuery evaluator and the
    shared physical-plan executor — reach that record
    through the run's state and increment its fields directly, so a
    counting site costs one load and one store whether or not anyone
    reads the counts. There is no ambient global slot: a record is
    owned by exactly one run, so concurrent runs — including runs on
    different domains ({!Clip_par}) — never share or clobber each
    other's counters. The step budget (CLIP-LIM-004) is itself a
    counter: [lim_ticks] is the run's step count.

    Trace spans time coarse phases (compile / translate / parse /
    execute) against an injected wall clock, so this library needs
    neither [unix] nor any other dependency. A tracer is passed
    explicitly ([Trace.t option]); {!Trace.span} with [None] calls the
    thunk directly.

    Nothing here affects semantics: the same bindings flow whatever
    the record holds — which is what makes the counters usable as a
    cross-backend test oracle (e.g. a tgd run must never scan more
    nodes than the tests' reference interpreter on the same
    input). *)

(** {1 Counters} *)

module Counters : sig
  (** One set of monotonic execution counters. A run adds its work to
      whatever the record already holds: supply a fresh record to each
      measured run. *)
  type t = {
    mutable nodes_scanned : int;
        (** child nodes visited by [Child] steps: every child of
            each element a step reads *)
    mutable child_steps : int;  (** [Child]-step evaluations, both backends *)
    mutable index_probes : int;
        (** always 0: no run uses a tag index. Kept so readers of the
            field (perfbench's [plan.index_probes]) still compile. *)
    mutable index_hits : int;
        (** always 0, like [index_probes] (perfbench's
            [plan.index_hits]). *)
    mutable hash_join_builds : int;  (** hash-join tables built *)
    mutable hash_join_probes : int;  (** hash-join table lookups *)
    mutable batches_executed : int;
        (** always 0: no executor batches frontiers. Kept so readers of
            the field (perfbench's [plan.batches]) still compile. *)
    mutable memo_hits : int;
        (** hits in the XQuery evaluator's per-run FLWOR plan memo: a
            FLWOR block re-entered once per outer binding reuses the
            plan compiled on its first entry in the same run *)
    mutable session_hits : int;
        (** always 0: runs share no cache. Kept so readers of the
            field (perfbench's [engine.session_hits]) still compile. *)
    mutable lim_ticks : int;
        (** CLIP-LIM-004 budget ticks: the step count of a run. The
            budget compares a run's increase of this field with
            [limits.max_eval_steps]. *)
    mutable ctl_checks : int;
        (** deadline/cancellation polls actually performed at tick
            sites (zero when the run carries no {!Clip_run.Control}) *)
  }

  val create : unit -> t

  (** [add ~into c] — add every counter of [c] into [into]. This is
      the parallel merge: {!Clip_par} gives each task a fresh record
      and folds it into the parent's record with [add]. Every
      counter is a sum over per-task increments, so the merged totals
      are independent of how tasks were partitioned across domains. *)
  val add : into:t -> t -> unit

  (** Stable field order, for reports and tests. *)
  val to_assoc : t -> (string * int) list

  (** The counters that describe {e execution work} (everything except
      the cache counters and the always-0 fields) — the subset two
      runs must agree on to be "the same physical execution". *)
  val work_assoc : t -> (string * int) list

  (** One line per non-zero counter, ["  <name> = <n>"]. *)
  val to_string : t -> string
end

(** {1 Trace spans} *)

module Trace : sig
  (** A completed phase timing. [depth] is the nesting level at entry
      (0 = outermost); spans are listed in completion order and
      re-ordered to start order by {!render}. *)
  type span = {
    sname : string;
    sstart : float;  (** clock value at entry *)
    sdur : float;  (** seconds spent inside the span *)
    sdepth : int;
  }

  type t

  (** [create ~now ()] — a tracer reading the injected clock (pass
      [Unix.gettimeofday]; the default [Sys.time] only measures CPU
      seconds). A tracer is single-domain state: give each domain its
      own. *)
  val create : ?now:(unit -> float) -> unit -> t

  (** [span tracer name f] — run [f], timing it as a span of [tracer];
      calls [f] directly when [tracer] is [None]. Exceptions
      propagate; the span is still recorded. *)
  val span : t option -> string -> (unit -> 'a) -> 'a

  (** Completed spans, in start order. *)
  val spans : t -> span list

  (** An indented tree, one line per span:
      ["execute              12.345 ms"]. *)
  val render : t -> string

  (** A JSON array of [{"name", "start_ms", "dur_ms", "depth"}]. *)
  val to_json : t -> string
end
