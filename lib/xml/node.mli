(** XML instance trees.

    The model mirrors the paper's notation: elements carry a tag, a list
    of attributes (black circles, [@name]) and an ordered list of
    children; text content (white circles, [value]) is a child node
    holding an atom. Sibling order is significant — the paper's expected
    outputs are printed as ordered trees — but an order-insensitive
    comparison is also provided for testing set-like results. *)

type t =
  | Element of element
  | Text of Atom.t

and element = {
  id : int;
      (** allocation-unique element identity (assigned by {!elem}),
          used by {!Index} and provenance seen-sets; ignored by
          {!equal}/{!compare} *)
  tag : string;
  sym : Symbol.t;
      (** the interned [tag] (cached at construction): tag tests on
          hot paths are int compares, see {!Symbol} *)
  attrs : (string * Atom.t) list;
  children : t list;
}

(** {1 Construction} *)

val elem : ?attrs:(string * Atom.t) list -> string -> t list -> t

(** [elem_sym ~attrs sym children] — [elem ~attrs (Symbol.name sym)
    children], for a caller that already holds the tag's symbol (the
    lexer keeps one per name it reads): it skips the intern's hash
    lookup. *)
val elem_sym : attrs:(string * Atom.t) list -> Symbol.t -> t list -> t
val text : Atom.t -> t
val text_string : string -> t

(** [leaf tag atom] is an element whose only child is a text node —
    the paper's [ename = John Smith] shape. *)
val leaf : ?attrs:(string * Atom.t) list -> string -> Atom.t -> t

(** {1 Access} *)

(** [as_element n] is the element payload of [n].
    @raise Invalid_argument on a text node. *)
val as_element : t -> element

val tag : t -> string

(** [children_named e name] is the sub-elements of [e] tagged [name],
    in document order. *)
val children_named : element -> string -> element list

val child_elements : element -> element list

(** [attr e name] is the value of attribute [name], if present. *)
val attr : element -> string -> Atom.t option

(** [assoc name l] — [List.assoc_opt name l] for string keys, comparing
    with [String.equal]. *)
val assoc : string -> (string * 'a) list -> 'a option

(** [text_value e] is the concatenated text content directly under [e],
    or [None] when [e] has no text child. *)
val text_value : element -> Atom.t option

(** {1 Comparison} *)

val equal : t -> t -> bool

(** Equality up to reordering of attributes and of sibling elements. *)
val equal_unordered : t -> t -> bool

val compare : t -> t -> int

(** {1 Measures} *)

(** [size n] is the number of nodes (elements + attributes + texts). *)
val size : t -> int

(** [size_below limit n] is [size n < limit], visiting at most about
    [limit] nodes: the evaluators' small-document check, cheaper than
    collecting statistics. *)
val size_below : int -> t -> bool

val depth : t -> int

(** [count_elements n tagname] counts descendant-or-self elements with
    the given tag. *)
val count_elements : t -> string -> int

val pp : Format.formatter -> t -> unit
