(** A parser for the XML subset Clip needs: elements, attributes, text,
    comments, CDATA sections, and prolog misc (XML declaration,
    processing instructions and DOCTYPE are skipped). No namespaces,
    DTD validation, or entities beyond the five predefined ones and
    character references — the paper's schemas never use them.

    The parser is total under {!parse_string_result}: every input
    either parses or yields spanned diagnostics ([CLIP-XML-001] for
    syntax errors, [CLIP-LIM-001]/[CLIP-LIM-002] when a resource guard
    trips). Element nesting is depth-guarded, so a pathologically deep
    document degrades to a diagnostic instead of a stack overflow.

    There is one XML lexer: [parse_string_result s] is
    [Stream.parse_result (Stream.of_string s)], which reads [s] in
    place and builds the tree directly. *)

exception Parse_error of { line : int; column : int; message : string }

(** [parse_string_result s] parses one document.
    [limits] defaults to {!Clip_diag.Limits.default}. *)
val parse_string_result :
  ?limits:Clip_diag.Limits.t -> string -> (Node.t, Clip_diag.t list) result

(** [parse_string s] parses one document and returns its root.
    @raise Parse_error on malformed input (a thin wrapper over
    {!parse_string_result}). *)
val parse_string : ?limits:Clip_diag.Limits.t -> string -> Node.t

(** [parse_string_opt s] is [Some root] or [None] on malformed input. *)
val parse_string_opt : ?limits:Clip_diag.Limits.t -> string -> Node.t option

(** Render a parse error for diagnostics. *)
val error_to_string : exn -> string
