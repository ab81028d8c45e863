(** A per-document tag index: children-by-tag groupings memoised per
    element over hash-consed element ids ({!Node.element.id}). No run
    uses it: every [Child tag] step of both executors scans. What is
    left serves the identity table {!Tbl} and the standalone
    [xml.index] probe of the benchmark. ROADMAP item 1, the benchmark
    change, deletes the rest together with that probe.

    The index is entirely lazy — {!build} is O(1) and an element's
    grouping is computed on its first lookup. It answers for any
    element, including constructed ones; memoisation is sound because
    nodes are immutable, allocation ids are never reused, and symbols
    never change meaning. *)

type t

(** An identity-keyed element table ([==], hashed by the allocation
    id) — also used for provenance seen-sets. *)
module Tbl : Hashtbl.S with type key = Node.element

(** [build doc] — a fresh (empty, lazy) index for [doc]. O(1). *)
val build : Node.t -> t

(** [children_by_tag t e sym] — the children of [e] tagged [sym], in
    document order. An element's grouping is memoised once it has 8
    children or more; a smaller one is scanned. *)
val children_by_tag : t -> Node.element -> Symbol.t -> Node.t list
