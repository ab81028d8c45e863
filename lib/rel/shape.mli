(** Relational-shape detection (the flip side of
    {!Clip_schema.Relational.to_schema}).

    A schema is {e relational-shaped} when it matches the canonical
    relational → XML encoding: a bare root element whose children are
    all repeating {e table} elements, each table carrying attribute
    columns and at most flat, non-repeating leaf child elements (value
    columns read through their text node). Exactly these schemas pass
    the [--backend rel] gate ({!Program.compile_result}) and print as
    SQL ({!Sql}). The benchmark's traced [rel.store] probe also calls
    {!of_schema} to build its {!Store}. *)

type table = {
  t_name : string;  (** the table element's tag *)
  t_attrs : string list;  (** attribute columns, schema order *)
  t_vals : string list;  (** leaf child-element value columns, schema order *)
}

type t = { root : string; tables : table list }

(** [of_schema s] — the relational shape of [s], or a human-readable
    reason it has none (surfaced in the [CLIP-REL-003] diagnostic). *)
val of_schema : Clip_schema.Schema.t -> (t, string) result

val table_names : t -> string list
