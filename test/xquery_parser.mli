(** The reference reader for the Sec. VI text: a parser for the
    XQuery fragment {!Clip_xquery.Pretty} emits (and the paper prints):
    FLWOR expressions, paths, direct element constructors, comparisons,
    boolean connectives, arithmetic and function calls. Only the tests
    link it; the engine evaluates the generated AST directly.

    The concrete syntax follows the paper's listings: computed
    attribute values may be written with bare braces
    ([<department name={$d/dname/text()}/>], as in Sec. VI) as well as
    the standard quoted form ([name="{...}"]). Names may contain
    dashes ([avg-sal], [distinct-values]); a dash is part of a name
    when glued to it, so [a - b] is still a subtraction (the printer
    always spaces binary operators). Arithmetic associates to the
    left.

    [parse_string (Pretty.query_to_string q)] is structurally equal to
    [q] for every query the generator emits — the test suite checks
    this round trip on every figure and Table I mapping. *)

open Clip_xquery

exception Parse_error of { position : int; message : string }

(** [parse_string_result s] parses one expression, or reports spanned
    diagnostics: [CLIP-XQ-001] for syntax errors, [CLIP-LIM-001] for
    oversized inputs and [CLIP-LIM-003] when expression nesting
    exceeds [limits.max_parser_recursion]. Never raises on any
    input. *)
val parse_string_result :
  ?limits:Clip_diag.Limits.t -> string -> (Ast.expr, Clip_diag.t list) result

(** [parse_string s] parses one expression.
    @raise Parse_error on malformed input (thin wrapper over
    {!parse_string_result}). *)
val parse_string : ?limits:Clip_diag.Limits.t -> string -> Ast.expr

val parse_string_opt : ?limits:Clip_diag.Limits.t -> string -> Ast.expr option
