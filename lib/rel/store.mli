(** A columnar copy of a relational-shaped document, built from the
    struct-of-arrays {!Clip_xml.Doc.t}: each table of the {!Shape}
    becomes a row vector of node ids in document order plus one int
    column per attribute and per value child, every cell an index into
    the document's deduplicated atom table.

    No backend reads it: [--backend rel] runs on the tgd engine. It
    stays only because the benchmark's traced [rel.store] probe links
    {!build} (and {!Clip_xml.Doc.of_node}); it leaves with that probe
    when the benchmark changes. *)

(** Cell sentinel: the projection is empty (missing attribute, missing
    child, child without text). *)
val absent : int

(** Cell sentinel: the flat encoding cannot represent the cell (a
    repeated value child) — readers must take the generic tree walk. *)
val fallback : int

type table = {
  t_name : string;
  t_sym : Clip_xml.Symbol.t;
  t_rows : int array;  (** node ids, document order *)
  t_attrs : (string * int array) list;  (** per attribute column: atom index *)
  t_vals : (string * int array) list;  (** per value-child column: atom index *)
}

type t = {
  doc : Clip_xml.Doc.t;
  root_tag : string option;  (** [None] when the document root is a text node *)
  tables : (string * table) list;
}

val build : Shape.t -> Clip_xml.Doc.t -> t
