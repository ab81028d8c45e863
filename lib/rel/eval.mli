(** The relational executor: runs a compiled {!Program} over the
    column {!Store}.

    Generators are row-ordinal sweeps over the store's row vectors;
    equality conditions become {!Clip_plan} hash joins keyed by single
    column loads; target construction and the scalar kernel are the
    shared {!Clip_tgd.Builder} core. Because {!Clip_plan.execute}
    preserves naive enumeration order and the row vectors are in
    document order, every run is output-identical — byte for byte,
    including dynamic error messages — to the tgd backend on the same
    mapping and document. Step counts and counters are this backend's
    own. *)

(** A rel evaluation session: pins a source document and caches its
    columnar conversion, the per-shape {!Store} and compiled physical
    plans across runs. *)
module Session : sig
  type t

  val create : Clip_xml.Node.t -> t
  val source : t -> Clip_xml.Node.t
end

type session = Session.t

(** [run_result ~source prog] builds the target document. Dynamic
    errors are [CLIP-TGD-001] diagnostics with the tgd backend's
    messages; an exhausted step budget is [CLIP-LIM-004]. *)
val run_result :
  ?limits:Clip_diag.Limits.t ->
  ?plan:Clip_plan.mode ->
  ?ctl:Clip_run.Control.t ->
  ?session:session ->
  ?steps_out:int ref ->
  ?obs:Clip_obs.Counters.t ->
  source:Clip_xml.Node.t ->
  Program.t ->
  (Clip_xml.Node.t, Clip_diag.t list) result

(** Static EXPLAIN: the store statistics and, per rule, the
    {!Clip_plan} stage rendering under the given mode. Nothing is
    evaluated. *)
val explain :
  ?plan:Clip_plan.mode ->
  ?session:session ->
  source:Clip_xml.Node.t ->
  Program.t ->
  string
