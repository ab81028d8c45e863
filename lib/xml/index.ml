(* A per-document tag index: a children-by-tag grouping memoised per
   element, keyed by the element's hash-consed allocation id
   ([Node.element.id], an O(1) exact hash under physical equality).
   Tags are interned symbols ({!Symbol}), so every grouping and lookup
   compares ints, never strings.

   The index is entirely lazy: creation is O(1), and an element's
   children are grouped the first time it is looked up. It answers for
   {e any} element, source or constructed. Memoisation is sound
   because nodes are immutable, allocation ids are never reused, and
   symbols never change meaning. *)

module Tbl = Hashtbl.Make (struct
  type t = Node.element

  let equal = ( == )
  let hash (e : Node.element) = e.Node.id
end)

(* document order per tag *)
type t = (Symbol.t * Node.t list) list Tbl.t

let build _doc = Tbl.create 256

(* Elements with fewer children than this are scanned directly,
   unmemoised: the scan is bounded, and only wide elements, where
   O(children) per lookup hurts, are grouped. *)
let small = 8

(* Symbols are immediate ints, so [assq] physical equality coincides
   with symbol equality — assoc hits are pointer compares. *)
let rec assq_opt sym = function
  | [] -> None
  | (s, nodes) :: rest -> if Symbol.equal s sym then Some nodes else assq_opt sym rest

(* A grouping's nodes tagged [sym]; a missing tag is the empty group. *)
let rec find_group sym = function
  | [] -> []
  | (s, nodes) :: rest -> if Symbol.equal s sym then nodes else find_group sym rest

(* Group the element's children by tag, document order, in one pass;
   the per-element tag variety is small in schema-shaped documents, so
   assoc lists beat per-element hash tables. *)
let group t e =
  let by_tag = ref [] in
  List.iter
    (fun c ->
      match c with
      | Node.Element ce ->
        (match assq_opt ce.Node.sym !by_tag with
         | Some cur -> cur := c :: !cur
         | None -> by_tag := (ce.Node.sym, ref [ c ]) :: !by_tag)
      | Node.Text _ -> ())
    e.Node.children;
  let groups = List.rev_map (fun (sym, cur) -> (sym, List.rev !cur)) !by_tag in
  Tbl.add t e groups;
  groups

let children_by_tag t e sym =
  if List.compare_length_with e.Node.children small < 0 then
    List.filter
      (function Node.Element c -> Symbol.equal c.Node.sym sym | Node.Text _ -> false)
      e.Node.children
  else
    match Tbl.find_opt t e with
    | Some groups -> find_group sym groups
    | None -> find_group sym (group t e)
