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

(** [build doc] — a fresh (empty, lazy) index for a run over [doc].
    O(1); the argument documents intent and keeps room for eager
    pre-indexing later. *)
val build : Node.t -> t

(** [children_by_tag ?obs t e sym] — the child elements of [e] tagged
    [sym], in document order; memoised per element. [?obs] counts the
    probe (and hit, when answered from a memoised grouping). *)
val children_by_tag :
  ?obs:Clip_obs.Counters.t -> t -> Node.element -> Symbol.t -> Node.t list

(** [descendants_by_tag ?obs t e sym] — proper descendant elements of
    [e] tagged [sym], preorder; memoised per [(element, tag)]. *)
val descendants_by_tag :
  ?obs:Clip_obs.Counters.t -> t -> Node.element -> Symbol.t -> Node.t list
