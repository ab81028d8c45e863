(** The shared target-construction core of the tgd semantics.

    Every executor of a nested tgd — the planned {!Eval} and the
    reference interpreter the tests check it against — builds the
    target instance the same way: a mutable build
    tree rooted at the target root, with three creation disciplines per
    target generator ([Driven] — one fresh element per binding;
    [Completion] — memoised once per parent context under minimum
    cardinality; [Grouped] — memoised per normalised grouping key),
    completion singletons materialised along intermediate target-path
    steps, and leaf assignments that reject conflicting values. This
    module owns that construction state plus the scalar kernel
    (functions, comparisons, aggregates), so every executor produces
    byte-identical targets and identical dynamic error messages
    ([CLIP-TGD-001]).

    The per-binding work of a rule is compiled once ({!compile}):
    target paths are split and their heads resolved
    statically, and scalar and item evaluation come from the
    executor's own compiler through an {!type-ops} record. The compiled
    {!type-rule} is run by {!pre_instantiate} and {!emit}, generic over
    the executor's environment type. *)

(** A mutable target element under construction. [id] numbers the
    elements of one target instance 1, 2, ... in creation order (the
    root is 1), so a run can index arrays by it; ids of different
    instances are unrelated. [bsym] is its tag, interned when the rule
    was compiled, so {!bnode_to_node} builds with
    {!Clip_xml.Node.elem_sym} and interns nothing; [bcompletions]
    memoises its completion children by tag. *)
type bnode = private {
  id : int;
  bsym : Clip_xml.Symbol.t;
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
    elements). *)
type t

val create : min_card:bool -> target_root:string -> unit -> t

val root : t -> bnode

(** {1 Scalar kernel} *)

(** The scalar function symbols every backend accepts. *)
val scalar_functions : string list

(** [scalar_fn name] — the scalar function [name], dispatched once; an
    unknown name raises when the function is applied. *)
val scalar_fn : string -> Clip_xml.Atom.t list -> Clip_xml.Atom.t

(** The atom of one item: an atomic value or text node as is, an
    element by its string value. *)
val atomize_item : Clip_xquery.Value.item -> Clip_xml.Atom.t

val atomize_items : Clip_xquery.Value.item list -> Clip_xml.Atom.t list

(** {!atomize_item} of a node. *)
val atomize_node : Clip_xml.Node.t -> Clip_xml.Atom.t

val compare_atoms : Tgd.cmp_op -> Clip_xml.Atom.t -> Clip_xml.Atom.t -> bool

(** Raise a [CLIP-TGD-001] dynamic-error diagnostic. *)
val error : ('a, unit, string, 'b) format4 -> 'a

(** {1 Compiled rule bodies} *)

(** A compiled scalar. [One] is for shapes that yield at most one atom
    ([x], [x.@a], [x.value], constants, function applications): it
    returns the atom, or {!none}. [Many] is the general case: it pushes
    every atom it evaluates to, in order, to the callback. A consumer
    compiled once passes a callback built once (a {!Clip_plan.Sink}), so neither
    form allocates anything of its own to evaluate. *)
type 'env scalar =
  | One of ('env -> Clip_xml.Atom.t)
  | Many of ('env -> (Clip_xml.Atom.t -> unit) -> unit)

(** The "no atom" a [One] scalar returns: no other atom is physically
    equal to it, so test it with [==]. *)
val none : Clip_xml.Atom.t

(** A scalar as pushes: [One]'s atom, unless it is {!none}. *)
val push : 'env scalar -> 'env -> (Clip_xml.Atom.t -> unit) -> unit

(** [single k ~empty ~many] — the one atom [k] yields; [empty] and
    [many] raise the caller's errors for no atom and for several, once
    the evaluation is over. *)
val single :
  'env scalar ->
  empty:(unit -> Clip_xml.Atom.t) ->
  many:(unit -> Clip_xml.Atom.t) ->
  'env ->
  Clip_xml.Atom.t

(** The executor-side operations a compiled body needs. Names are
    resolved at compile time against a ['scope] that {!compile} threads
    through the rule in lexical order: each target generator's head and
    grouping keys are compiled in the scope of the generators before
    it, then [bind_tgt] extends the scope with its variable, and the
    assertions are compiled in the final scope. [lookup_tgt] returns
    the per-binding lookup; it is expected to raise the executor's own
    diagnostics for unbound and source-bound names when a binding
    reaches it. [bind_tgt] returns the extended scope and the
    per-binding binder. The scalar and item compilers' closures tick
    and count exactly where the executor's evaluation does;
    [compile_items] pushes an aggregate argument's items (an atom as a
    text node), which the aggregate folds as they come. *)
type ('env, 'scope) ops = {
  lookup_tgt : 'scope -> string -> 'env -> bnode;
  bind_tgt : 'scope -> string -> 'scope * ('env -> bnode -> 'env);
  compile_scalar : 'scope -> Term.scalar -> 'env scalar;
  compile_items : 'scope -> Term.expr -> 'env -> (Clip_xml.Node.t -> unit) -> unit;
}

(** The compiled per-binding work of one mapping node. *)
type 'env rule

(** [compile ops ~outer scope m] — [m]'s rule, compiled in [scope],
    and the scope extended with [m]'s target variables (the scope [m]'s
    children are compiled in). [outer] is the scope [m] is entered in,
    before its universal variables are bound; [scope] extends it with
    them. The leading completion generators, which {!pre_instantiate}
    runs before any binding exists, are compiled in [outer]. *)
val compile : ('env, 'scope) ops -> outer:'scope -> 'scope -> Tgd.t -> 'env rule * 'scope

(** Instantiate the rule's leading completion generators once per
    parent context (the paper's constant tags). *)
val pre_instantiate : t -> 'env rule -> 'env -> unit

(** The per-binding body: instantiate the rule's target generators,
    apply its assertions, then hand the extended environment to the
    continuation. *)
val emit : t -> 'env rule -> ('env -> unit) -> 'env -> unit
