(** Single-document sharding: cut one large source byte stream at the
    topmost repeated element the mapping actually quantifies over,
    evaluate the resulting shard documents independently (in parallel,
    with bounded memory), and merge the per-shard targets back into
    {e exactly} the sequential whole-document output. The engine's
    [Clip_core.Engine.run_stream_result] is the one caller that runs
    this; no materialised tree is ever cut.

    {!plan} is the static safety analysis over the compiled tgd and
    the two schemas; it either designates a cut — with everything the
    cutter and merger need — or falls back to whole-document
    evaluation with a reason (surfaced by EXPLAIN). The analysis is
    conservative: [Sharded] is returned only when shard evaluation
    plus the merger provably reproduces the whole-document result byte
    for byte (see DESIGN.md "Streaming ingestion and sharding" for the
    argument; test/test_shard.ml pins the equivalence differentially
    on every figure, backend and plan mode). *)

(** A designated cut.

    [cut_path] is the absolute source-schema path of the shard unit —
    the topmost repeating element on the outermost universal
    generator's chain. [containers] are the element tags above it
    (document root first) and [unit_tag] the unit's own tag.

    [needs_prologue] is true when the mapping reads any root-rooted
    source path outside the cut subtree. A shard cut off the byte
    stream carries only the container spine (attributes included)
    around its units, never that prologue, so the engine evaluates such
    a mapping over the whole document instead of cutting.

    [unify] is the set of absolute target element paths (["a/b"] tag
    chains below the target root) that completion semantics creates
    once per parent context: every shard re-creates them, and the
    merger collapses them. All other target children are per-binding
    and concatenate in shard order. *)
type cut = {
  cut_path : Clip_schema.Path.t;
  containers : string list;
  unit_tag : string;
  needs_prologue : bool;
  unify : string list;
}

type decision = Sharded of cut | Whole of string

(** [plan ~source ~target tgd] — decide whether (and where) documents
    under [source] may be sharded for evaluating [tgd]. Pure analysis:
    no document is touched. [minimum_cardinality:false] (the
    universal-solution ablation) always falls back. *)
val plan :
  source:Clip_schema.Schema.t ->
  target:Clip_schema.Schema.t ->
  ?minimum_cardinality:bool ->
  Clip_tgd.Tgd.t ->
  decision

(** One EXPLAIN-able line describing the decision. *)
val decision_note : decision -> string

(** {1 Cutting a byte stream} *)

type cutter

(** What one {!next_shard} pull produced: the next shard document; the
    whole document materialised because its root did not open the
    container chain (the caller should evaluate it unsharded); or the
    end of the stream. *)
type step =
  | Shard of Clip_xml.Node.t
  | Fallback_doc of Clip_xml.Node.t
  | Exhausted

(** [cutter cut ~budget_bytes src] — an incremental cutter over a
    byte stream. Only one unit group plus the container spine is ever
    resident; non-unit content is skipped without being built, so
    callers should only cut when [cut.needs_prologue] is false. A shard
    closes once its units reach [budget_bytes] source bytes, measured
    by true stream offsets ({!Clip_xml.Stream.pos} deltas). *)
val cutter : cut -> budget_bytes:int -> Clip_xml.Stream.source -> cutter

(** Pull the next shard. After [Error] or [Exhausted] every further
    call returns [Exhausted]; [Fallback_doc] can only be the first
    result. *)
val next_shard : cutter -> (step, Clip_diag.t list) result

(** {1 Merging shard outputs} *)

type merger

(** [merger ~unify] — an incremental left-fold merger: the streaming
    pipeline folds shard outputs into it strictly in shard order. *)
val merger : unify:string list -> merger

(** [merge_into m output] — fold one shard output (in shard order)
    into the merger. Disagreement on a unified element's attributes or
    text — which would have been a conflicting-assignment error in the
    whole-document run — raises {!Clip_diag.Fail} with a [CLIP-TGD-001]
    diagnostic. *)
val merge_into : merger -> Clip_xml.Node.t -> unit

(** The merged document; [None] when nothing was folded in. *)
val merged : merger -> Clip_xml.Node.t option
