(** Shared diagnostics for every Clip layer.

    A diagnostic is a severity, a stable error code (e.g.
    [CLIP-XML-001]), a human message, an optional source span and
    optional hints. Parsers, the compiler, the query generator and the
    evaluators report structured diagnostics through the
    [('a, t list) result] APIs of their modules. The run stack (the
    engine, its backends, the evaluators, the translators and the
    pipeline) has no other form: {!Clip_core.Engine.run} is its one
    raising wrapper, and it raises only {!Fail}. The parsers and
    [Compile.to_tgd] keep raising forms for callers that want them.

    Internally, library code raises {!Fail} and the public entry points
    convert it with {!guard}; [Fail] should never escape a [_result]
    function — the fuzz harness ([test/fuzz]) asserts exactly that
    totality property. *)

type severity = Error | Warning | Info

(** A half-open source region. Lines and columns are 1-based;
    [end_col] points one past the last column. [offset] is the byte
    offset of the start of the span, or [-1] when unknown. *)
type span = {
  line : int;
  col : int;
  end_line : int;
  end_col : int;
  offset : int;
}

(** [span ~line ~col ()] — a one-character span; widen it with
    [?end_line]/[?end_col], record the byte offset with [?offset]. *)
val span : ?end_line:int -> ?end_col:int -> ?offset:int -> line:int -> col:int -> unit -> span

(** [span_of_offset src off] — the span of the character at byte
    offset [off] in [src] (clamped to the text). *)
val span_of_offset : string -> int -> span

type t = {
  severity : severity;
  code : string;
  message : string;
  span : span option;
  hints : string list;
}

val make : ?severity:severity -> ?span:span -> ?hints:string list -> code:string -> string -> t
val error : ?span:span -> ?hints:string list -> code:string -> string -> t
val errorf :
  ?span:span -> ?hints:string list -> code:string -> ('a, unit, string, t) format4 -> 'a
val warning : ?span:span -> ?hints:string list -> code:string -> string -> t

val severity_to_string : severity -> string

(** One line: ["error[CLIP-XML-001] at line 3, column 5: ..."]. *)
val to_string : t -> string

(** Multi-line rendering; when [src] is given, includes the offending
    source line with a caret marker under the span. *)
val render : ?src:string -> t -> string

(** {!render} for each diagnostic, blank-line separated. *)
val render_list : ?src:string -> t list -> string

val is_error : t -> bool
val has_errors : t list -> bool

(** True for resource-guard diagnostics (codes [CLIP-LIM-*]). *)
val is_resource_limit : t -> bool

(** The internal carrier. Raise through {!fail}; catch with {!guard}. *)
exception Fail of t list

val fail : t -> 'a
val fail_all : t list -> 'a

(** [failf ~code fmt ...] — build an error diagnostic and raise it. *)
val failf :
  ?span:span -> ?hints:string list -> code:string -> ('a, unit, string, 'b) format4 -> 'a

(** [guard f] is [Ok (f ())], or [Error ds] when [f] raises [Fail ds]. *)
val guard : (unit -> 'a) -> ('a, t list) result

(** Stable error codes. Keep the list in sync with README.md. *)
module Codes : sig
  val xml_syntax : string (** [CLIP-XML-001] malformed XML *)

  val schema_lexical : string (** [CLIP-SCH-001] schema DSL lexical error *)

  val schema_syntax : string (** [CLIP-SCH-002] schema DSL syntax error *)

  val xsd_unsupported : string (** [CLIP-SCH-003] unsupported XSD construct *)

  val schema_invalid : string (** [CLIP-SCH-004] ill-formed schema (duplicates, bad refs) *)

  val mapping_syntax : string (** [CLIP-MAP-001] mapping DSL syntax error *)

  val xquery_syntax : string
  (** [CLIP-XQ-001] XQuery syntax error. No run parses XQuery text;
      only the test suite's reference reader for the Sec. VI text
      raises it. *)

  val xquery_eval : string (** [CLIP-XQ-002] XQuery dynamic error *)

  val tgd_eval : string (** [CLIP-TGD-001] tgd engine dynamic error *)

  val compile_unbound_var : string (** [CLIP-CMP-001] unbound variable *)

  val compile_unanchored_input : string (** [CLIP-CMP-002] input not under the source root *)

  val compile_unanchored_leaf : string (** [CLIP-CMP-003] source leaf has no anchor binding *)

  val compile_bad_target : string (** [CLIP-CMP-004] value-mapping target outside its builder *)

  val compile_identity_arity : string (** [CLIP-CMP-005] identity value mapping arity *)

  val compile_aggregate_arity : string (** [CLIP-CMP-006] aggregate value mapping arity *)

  val compile_no_driver : string (** [CLIP-CMP-007] non-aggregate value mapping without driver *)

  val compile_bad_nesting : string (** [CLIP-CMP-008] output not nested under context output *)

  val xquery_gen_unsupported : string (** [CLIP-XQG-001] tgd feature without XQuery translation *)

  val clio_vm_arity : string (** [CLIP-GEN-001] Clio value-mapping arity *)

  val clio_not_expressible : string (** [CLIP-GEN-002] forest not expressible as builders *)

  val io_error : string (** [CLIP-IO-001] file system error (CLI) *)

  val limit_input_bytes : string (** [CLIP-LIM-001] input larger than [max_input_bytes] *)

  val limit_xml_depth : string (** [CLIP-LIM-002] XML nesting deeper than [max_xml_depth] *)

  val limit_recursion : string (** [CLIP-LIM-003] parser recursion limit *)

  val limit_eval_steps : string (** [CLIP-LIM-004] evaluation step budget exhausted *)

  val limit_deadline : string (** [CLIP-LIM-005] evaluation deadline exceeded *)

  val cancelled : string (** [CLIP-LIM-006] evaluation cancelled cooperatively *)

  val fault_permanent : string (** [CLIP-FLT-002] injected fault ({!Clip_fault}) *)

  val algebra_schema_mismatch : string
  (** [CLIP-ALG-001] composition: m1's target is not m2's source *)

  val algebra_grouping : string
  (** [CLIP-ALG-002] composition: a grouping/Skolem pattern escapes the
      composable fragment *)

  val algebra_ambiguous : string
  (** [CLIP-ALG-003] composition: no unique producer for an
      intermediate element, or the unfolded iterations would alias *)

  val algebra_leaf : string
  (** [CLIP-ALG-004] composition: an intermediate leaf is read but not
      populated, or its value expression is not substitutable *)

  val algebra_multiplicity : string
  (** [CLIP-ALG-005] composition: unfolding would change multiplicity
      (e.g. a non-repeating intermediate created once per binding) *)

  val rel_fk_arity : string
  (** [CLIP-REL-001] relational encoding: foreign key column-count
      mismatch *)

  val rel_fk_unknown : string
  (** [CLIP-REL-002] relational encoding: foreign key names an unknown
      table or column *)

  val rel_not_relational : string
  (** [CLIP-REL-003] relational backend: the mapping's source is not
      relational-shaped *)

  val ablation_backend : string
  (** [CLIP-ENG-001] engine: the universal-solution ablation (minimum
      cardinality off) asked of a backend other than tgd *)

  (** [CLIP-VAL-<kind>] for a validity issue kind (Sec. III), e.g.
      [CLIP-VAL-unanchored-source]. *)
  val validity : string -> string
end

(** Resource guards. Parsers and engines take [?limits] and degrade to
    a [CLIP-LIM-*] diagnostic instead of a stack overflow or hang. *)
module Limits : sig
  type t = {
    max_input_bytes : int; (** largest accepted input, in bytes *)
    max_xml_depth : int; (** deepest accepted XML element nesting *)
    max_parser_recursion : int; (** deepest accepted DSL/XQuery nesting *)
    max_eval_steps : int; (** evaluation step budget for both engines *)
  }

  val default : t
  val unlimited : t
end
