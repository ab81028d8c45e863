module Xml = Clip_xml
module Doc = Clip_xml.Doc

(* Column cells are atom indices into the document's deduplicated atom
   table. Two negative sentinels keep the arrays total: [absent] for an
   empty projection (missing attribute, missing child, child without
   text) and [fallback] for a cell the flat encoding cannot represent
   (a repeated value child) — readers route those through the generic
   tree walk, which is the semantics oracle. *)
let absent = -1
let fallback = -2

type table = {
  t_name : string;
  t_sym : Xml.Symbol.t;
  t_rows : int array; (* node ids, document order *)
  t_attrs : (string * int array) list;
  t_vals : (string * int array) list;
}

type t = {
  doc : Doc.t;
  root_tag : string option; (* [None] when the document root is a text node *)
  tables : (string * table) list;
}

(* Attribute slot lookup straight off the flat attribute-range arrays:
   the atom index, not the boxed atom, is what columns store. *)
let attr_index (doc : Doc.t) id name =
  let start = doc.Doc.attr_start.(id) and n = doc.Doc.attr_len.(id) in
  let rec go k =
    if k >= n then absent
    else if String.equal doc.Doc.attr_names.(start + k) name then
      doc.Doc.attr_value.(start + k)
    else go (k + 1)
  in
  go 0

(* The unique child with tag [sym], read through its precomputed text
   value: [absent] for zero matching children or a textless child,
   [fallback] for two or more (the generic walk yields one atom per
   child there, which no single cell can say). *)
let val_index (doc : Doc.t) id sym =
  let tagi = (sym : Xml.Symbol.t :> int) in
  let found = ref absent and count = ref 0 in
  let c = ref doc.Doc.first_child.(id) in
  while !c >= 0 && !count < 2 do
    if doc.Doc.tags.(!c) = tagi then begin
      incr count;
      let tv = doc.Doc.text_value.(!c) in
      found := (if tv >= 0 then tv else absent)
    end;
    c := doc.Doc.next_sibling.(!c)
  done;
  if !count >= 2 then fallback else !found

let build (shape : Shape.t) (doc : Doc.t) : t =
  let root_tag =
    if Doc.length doc > 0 && Doc.is_element doc 0 then
      Some (Xml.Symbol.name (Doc.tag doc 0))
    else None
  in
  let rows_of sym =
    match root_tag with
    | None -> [||]
    | Some _ ->
      let tagi = (sym : Xml.Symbol.t :> int) in
      let ids = ref [] and n = ref 0 in
      let c = ref doc.Doc.first_child.(0) in
      while !c >= 0 do
        if doc.Doc.tags.(!c) = tagi then begin
          ids := !c :: !ids;
          incr n
        end;
        c := doc.Doc.next_sibling.(!c)
      done;
      let a = Array.make !n 0 in
      List.iteri (fun k id -> a.(!n - 1 - k) <- id) !ids;
      a
  in
  let tables =
    List.map
      (fun (ts : Shape.table) ->
        let sym = Xml.Symbol.intern ts.Shape.t_name in
        let rows = rows_of sym in
        let column f name = (name, Array.map (fun id -> f id name) rows) in
        let attrs =
          List.map (column (fun id name -> attr_index doc id name))
            ts.Shape.t_attrs
        in
        let vals =
          List.map
            (column (fun id name -> val_index doc id (Xml.Symbol.intern name)))
            ts.Shape.t_vals
        in
        ( ts.Shape.t_name,
          { t_name = ts.Shape.t_name; t_sym = sym; t_rows = rows;
            t_attrs = attrs; t_vals = vals } ))
      shape.Shape.tables
  in
  { doc; root_tag; tables }
