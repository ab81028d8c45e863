(** The shared target-construction core of the tgd semantics.

    Every executor of a nested tgd — the {!Eval} tree-walk (planned and
    naive) and the relational backend ([Clip_rel]) — builds the target
    instance the same way: a mutable build tree rooted at the target
    root, with three creation disciplines per target generator
    ([Driven] — one fresh element per binding; [Completion] — memoised
    once per parent context under minimum cardinality; [Grouped] —
    memoised per normalised grouping key), completion singletons
    materialised along intermediate target-path steps, and leaf
    assignments that reject conflicting values. This module owns that
    construction state plus the scalar kernel (functions, comparisons,
    aggregates), so every executor produces byte-identical targets and
    identical dynamic error messages ([CLIP-TGD-001]).

    The per-binding work of a rule is compiled once ({!compile},
    {!compile_tree}): target paths are split and their heads resolved
    statically, and scalar and item evaluation come from the
    executor's own compiler through an {!type-ops} record. The compiled
    {!type-rule} is run by {!pre_instantiate} and {!emit}, generic over
    the executor's environment type. *)

(** A mutable target element under construction; [bcompletions]
    memoises its completion children by tag. *)
type bnode = private {
  id : int;
  btag : string;
  mutable battrs : (string * Clip_xml.Atom.t) list; (* reversed *)
  mutable btext : Clip_xml.Atom.t option;
  mutable bchildren : bnode list; (* reversed *)
  mutable bcompletions : bnode list;
}

(** Freeze a build tree into an immutable {!Clip_xml.Node.t}. *)
val bnode_to_node : bnode -> Clip_xml.Node.t

(** One target instance under construction: the root plus the group
    memo table ([min_card] selects the paper's minimum-cardinality
    semantics; without it completion generators create driven
    elements). [record], when given, is called with the environment and
    the element each time a target generator creates or re-reaches an
    element — the hook instance-level lineage ({!Eval.run_traced})
    records through. *)
type 'env t

val create :
  ?record:('env -> bnode -> unit) -> min_card:bool -> target_root:string -> unit -> 'env t

val root : 'env t -> bnode

(** {1 Scalar kernel} *)

(** The scalar function symbols every backend accepts. *)
val scalar_functions : string list

(** [scalar_fn name] — the scalar function [name], dispatched once; an
    unknown name raises when the function is applied. *)
val scalar_fn : string -> Clip_xml.Atom.t list -> Clip_xml.Atom.t

val atomize_items : Clip_xquery.Value.item list -> Clip_xml.Atom.t list
val compare_atoms : Tgd.cmp_op -> Clip_xml.Atom.t -> Clip_xml.Atom.t -> bool
val aggregate : Tgd.agg_kind -> Clip_xquery.Value.item list -> Clip_xml.Atom.t option

(** Raise a [CLIP-TGD-001] dynamic-error diagnostic. *)
val error : ('a, unit, string, 'b) format4 -> 'a

(** {1 Compiled rule bodies} *)

(** The executor-side operations a compiled body needs: target-variable
    lookup ([None] for unbound names, reported by the body; expected to
    raise the executor's own diagnostic for source-bound names) and
    binding, plus the executor's scalar and item compilers, whose
    closures tick and count exactly where the executor's evaluation
    does. *)
type 'env ops = {
  lookup_tgt : 'env -> string -> bnode option;
  bind_tgt : 'env -> string -> bnode -> 'env;
  compile_scalar : Term.scalar -> 'env -> Clip_xml.Atom.t list;
  compile_items : Term.expr -> 'env -> Clip_xquery.Value.item list;
}

(** The compiled per-binding work of one mapping node. *)
type 'env rule

val compile : 'env ops -> Tgd.t -> 'env rule

(** Instantiate the rule's leading completion generators once per
    parent context (the paper's constant tags). *)
val pre_instantiate : 'env t -> 'env rule -> 'env -> unit

(** The per-binding body: instantiate the rule's target generators,
    apply its assertions, then hand the extended environment to the
    continuation. *)
val emit : 'env t -> 'env rule -> ('env -> unit) -> 'env -> unit

(** A mapping tree with every node's rule compiled, for executors that
    walk the tree directly. *)
type 'env tree = { tm : Tgd.t; trule : 'env rule; tchildren : 'env tree list }

val compile_tree : 'env ops -> Tgd.t -> 'env tree
