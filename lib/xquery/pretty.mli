(** Render {!Ast} expressions as XQuery source text, in the style of the
    queries printed in Sec. VI of the paper (FLWOR keywords at the left
    of their clause, enclosed expressions in braces). The test suite
    parses the printed query of every figure and Table I mapping back
    to an AST equal to the one printed. *)

val expr_to_string : Ast.expr -> string

(** [query_to_string e] — like {!expr_to_string} but ends with a
    newline, convenient for writing [.xq] files. *)
val query_to_string : Ast.expr -> string
