(** A struct-of-arrays (columnar) copy of a document.

    No backend executes over it: [--backend rel] runs on the tgd
    engine. It stays because the benchmark's traced [rel.store] probe
    converts its document with {!of_node} to build a
    [Clip_rel.Store]; it can leave with that probe when the benchmark
    changes.

    Nodes carry preorder ids (the root is 0; every parent precedes its
    descendants; sibling ids increase in document order). Per-node
    properties live in flat arrays — interned tag symbols,
    first-child / next-sibling links, attribute ranges — and every
    atomic value is an index into one shared, deduplicated atom table,
    so a column load is an int-array sweep instead of a pointer chase.

    [nodes] keeps the original boxed node of each id, physically
    identical to the corresponding subtree of the converted document.
    {!rebuild} is the genuine array-to-tree reconstruction, sharing
    nothing with the input; [rebuild d 0] is {!Node.equal} to the
    converted document.

    Atoms are deduplicated by {e exact representation} (floats as IEEE
    bits), never by the looser {!Atom.equal} classes, so values read
    off the arrays print and compare exactly like the boxed originals.
    Both conversions are total and stack-safe (explicit worklists —
    depth-proportional heap, constant OCaml stack). *)

type t = private {
  tags : int array;  (** per node: [(element.sym :> int)]; [-1] = text *)
  first_child : int array;  (** [-1] when childless *)
  next_sibling : int array;  (** [-1] for a last sibling *)
  attr_start : int array;  (** per node: first slot in [attr_names] *)
  attr_len : int array;  (** per node: attribute count *)
  attr_names : string array;  (** per attribute slot *)
  attr_value : int array;  (** per attribute slot: index into [atoms] *)
  text_value : int array;
      (** index into [atoms]: per element its precomputed
          {!Node.text_value} ([-1] = none), per text node its payload *)
  atoms : Atom.t array;  (** shared deduplicated atom table *)
  nodes : Node.t array;  (** per node: the original boxed subtree *)
}

(** [of_node root] — one conversion pass: preorder numbering, sibling
    links, attribute ranges, atom interning. Total and stack-safe on
    documents of any depth. *)
val of_node : Node.t -> t

(** [rebuild t id] — reconstruct the subtree at [id] purely from the
    arrays (fresh nodes, nothing shared with the input). Stack-safe.
    [rebuild t 0] is {!Node.equal} to the document [t] was built from.
    @raise Invalid_argument when [id] is out of range. *)
val rebuild : t -> int -> Node.t

(** Total number of nodes (elements + texts). *)
val length : t -> int

val is_element : t -> int -> bool

(** [tag t id] — the interned tag of element [id].
    @raise Invalid_argument on a text node or an out-of-range id. *)
val tag : t -> int -> Symbol.t
