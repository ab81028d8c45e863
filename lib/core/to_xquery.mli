(** Translation of compiled nested tgds into XQuery (Sec. VI).

    Each (sub)mapping becomes one nested FLWOR expression: [for]
    clauses from the universal generators, a [where] clause from [C1],
    and a [return] clause constructing the principal target element
    with its value mappings. Minimum cardinality is realised by
    emitting [Completion] generators as constant tags {e wrapping} the
    FLWOR instead of inside its return (the paper's "for clauses pushed
    as far down as possible").

    Group nodes expand to the paper's grouping template: a [let]
    binding the filtered context as a sequence of tuple elements, one
    [distinct-values] dimension per grouping attribute, a [for] over
    the dimension values, a [let] re-selecting the current group, and a
    per-member re-binding of the outer variables for the submappings.

    Aggregates map to the native XQuery functions, their path argument
    rooted at the context variable (the context of aggregation). *)

(** [translate_result ~target_root tgd] — the full query: an element
    constructor for the target root enclosing the top mapping. Tgd
    shapes the fragment cannot express (e.g. non-equality target
    conditions) are reported as [CLIP-XQG-001] diagnostics. *)
val translate_result :
  target_root:string ->
  Clip_tgd.Tgd.t ->
  (Clip_xquery.Ast.expr, Clip_diag.t list) result
