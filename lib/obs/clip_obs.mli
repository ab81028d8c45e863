(** Zero-dependency observability: execution counters and trace spans.

    Every execution layer — the tgd engine, the XQuery evaluator, the
    shared physical-plan executor and the tag index — reports cheap monotonic counters through an
    explicit {e sink} ([Counters.t option]) threaded down from the
    execution context ({!Clip_run}). There is no ambient global slot:
    a sink is owned by exactly one run, so concurrent runs — including
    runs on different domains ({!Clip_par}) — can never share or
    clobber each other's counters. The disabled path ([None]) is a
    match and a branch and allocates nothing; call {!enabled} before
    computing an expensive increment argument such as a list length.

    Trace spans time coarse phases (compile / translate / parse /
    execute) against an injected wall clock, so this library needs
    neither [unix] nor any other dependency. Like sinks, a tracer is
    passed explicitly ([Trace.t option]); {!Trace.span} with [None]
    calls the thunk directly.

    Nothing here affects semantics: the same bindings flow whether or
    not a sink is supplied — which is exactly what makes the counters
    usable as a cross-backend test oracle (e.g. an [`Indexed] run must
    never scan more nodes than the [`Naive] oracle on the same
    input). *)

(** {1 Counters} *)

module Counters : sig
  (** One set of monotonic execution counters. All counts are
      per-sink: supply a fresh value to each measured run. *)
  type t = {
    mutable nodes_scanned : int;
        (** child nodes visited (naive [Child] steps) or matches
            enumerated (indexed steps and probe hits) *)
    mutable child_steps : int;  (** [Child]-step evaluations, both backends *)
    mutable index_probes : int;  (** {!Clip_xml.Index} lookups *)
    mutable index_hits : int;  (** lookups answered by a memoised grouping *)
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
        (** CLIP-LIM-004 budget ticks: the step count of a run *)
    mutable ctl_checks : int;
        (** deadline/cancellation polls actually performed at tick
            sites (zero when the run carries no {!Clip_run.Control}) *)
    mutable faults_injected : int;
        (** {!Clip_fault} faults fired into this run (zero outside
            fault-injection harnesses) *)
  }

  val create : unit -> t
  val reset : t -> unit
  val copy : t -> t

  (** [add ~into c] — add every counter of [c] into [into]. This is
      the parallel merge: {!Clip_par} gives each worker domain a fresh
      sink and folds them into the parent's sink with [add]. Every
      counter is a sum over per-task increments, so the merged totals
      are independent of how tasks were partitioned across domains. *)
  val add : into:t -> t -> unit

  (** Stable field order, for reports and tests. *)
  val to_assoc : t -> (string * int) list

  (** The counters that describe {e execution work} (everything except
      the cache counters [memo_hits]/[session_hits]) — the subset two
      runs must agree on to be "the same physical execution". *)
  val work_assoc : t -> (string * int) list

  (** One line per non-zero counter, ["  <name> = <n>"]. *)
  val to_string : t -> string

  (** A flat JSON object with every counter. *)
  val to_json : t -> string
end

(** A counter sink: [Some c] collects into [c], [None] is off. *)
type sink = Counters.t option

(** The disabled sink. *)
val none : sink

(** [enabled s] — is [s] collecting? Check before computing a
    non-constant increment (keeps the disabled path allocation- and
    traversal-free). *)
val enabled : sink -> bool

(** {2 Increment points} (no-ops on [None]) *)

val scanned : sink -> int -> unit
val child_step : sink -> unit
val index_probe : sink -> unit
val index_hit : sink -> unit
val hash_join_build : sink -> unit
val hash_join_probe : sink -> unit

val memo_hit : sink -> unit
val lim_tick : sink -> unit
val ctl_check : sink -> unit
val fault_injected : sink -> unit

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
