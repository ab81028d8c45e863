(** One-pass instance statistics: node/element counts, per-tag
    cardinalities, depth and maximum fan-out.

    The adaptive planner prices generator chains with these numbers —
    the estimated cardinality of a [Child] step is the step tag's
    count divided by its parent tag's count. The engine collects them
    once per run. *)

type t

(** [collect doc] — one preorder walk over [doc]. *)
val collect : Node.t -> t

(** [tag_count t sym] — number of elements tagged [sym]; 0 when the
    tag does not occur. *)
val tag_count : t -> Symbol.t -> int

(** Total nodes, counted like {!Node.size} (elements + attributes +
    texts). *)
val node_count : t -> int

val element_count : t -> int
val depth : t -> int

(** Most element children under any single element. *)
val max_fanout : t -> int

val pp : Format.formatter -> t -> unit
