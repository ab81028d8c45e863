(** A per-document tag index: children-by-tag and descendants-by-tag
    groupings memoised per element over hash-consed element ids
    ({!Node.element.id}), so repeated [Child tag] path steps cost
    O(matches) instead of O(children). Tags are interned {!Symbol}s —
    every grouping and lookup is an int compare.

    The index is entirely lazy — {!build} is O(1) and an element's
    grouping is computed on its first probe — so runs that never
    revisit an element pay (almost) nothing. It answers for any
    element, including nodes constructed during evaluation;
    memoisation is sound because nodes are immutable, allocation ids
    are never reused, and symbols never change meaning. *)

type t

(** An identity-keyed element table ([==], hashed by the allocation
    id) — also used for provenance seen-sets. *)
module Tbl : Hashtbl.S with type key = Node.element

(** [build ?obs doc] — a fresh (empty, lazy) index for a run over
    [doc], counting every probe (and every hit, a probe answered from
    a memoised grouping) into [obs] — the run's record, a fresh one
    when omitted. O(1); the argument documents intent and keeps room
    for eager pre-indexing later. *)
val build : ?obs:Clip_obs.Counters.t -> Node.t -> t

(** [iter_children_by_tag t e sym f x] — [f x c] for every child [c]
    of [e] tagged [sym], in document order; an element's grouping is
    memoised once it has 8 children or more, a smaller one is scanned.
    Besides the probe (and the hit), counts one [nodes_scanned] per
    match into the index's record, all before the first match is
    pushed. *)
val iter_children_by_tag :
  t -> Node.element -> Symbol.t -> ('a -> Node.t -> unit) -> 'a -> unit

(** [children_by_tag t e sym] — the matches {!iter_children_by_tag}
    pushes, as a list, counted the same way. *)
val children_by_tag : t -> Node.element -> Symbol.t -> Node.t list

(** [descendants_by_tag t e sym] — proper descendant elements of
    [e] tagged [sym], preorder; memoised per [(element, tag)]. *)
val descendants_by_tag : t -> Node.element -> Symbol.t -> Node.t list
