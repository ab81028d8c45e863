(** One-pass instance statistics: the node count and per-tag
    cardinalities.

    The adaptive planner prices generator chains with these numbers —
    the estimated cardinality of a [Child] step is the step tag's
    count divided by its parent tag's count. A run collects them only
    when a join cost gate or EXPLAIN reads an estimate. *)

type t

(** [collect doc] — one preorder walk over [doc]. *)
val collect : Node.t -> t

(** [tag_count t sym] — number of elements tagged [sym]; 0 when the
    tag does not occur. *)
val tag_count : t -> Symbol.t -> int

(** Total nodes, counted like {!Node.size} (elements + attributes +
    texts). *)
val node_count : t -> int
