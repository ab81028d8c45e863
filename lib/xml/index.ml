(* A per-document tag index.

   Makes [Child tag] path steps O(matches) instead of O(children) by
   memoising a children-by-tag grouping per element, keyed by the
   element's hash-consed allocation id ([Node.element.id], an O(1)
   exact hash under physical equality). Descendant tables are memoised
   the same way. Tags are interned symbols ({!Symbol}), so every
   grouping and lookup compares ints, never strings.

   The index is entirely lazy: creation is O(1), and an element's
   children are grouped the first time it is probed. Laziness matters
   because the index lives for one engine run, and many runs (pure value mappings, small
   documents) never probe the same element twice; an eager
   whole-document build would cost more than it saves. It also means
   the index answers for {e any} element — nodes of the source
   document and nodes constructed during evaluation alike — so callers
   need no foreign-element fallback. Memoisation is sound because
   nodes are immutable, allocation ids are never reused, and symbols
   never change meaning. *)

module Tbl = Hashtbl.Make (struct
  type t = Node.element

  let equal = ( == )
  let hash (e : Node.element) = e.Node.id
end)

type t = {
  children : (Symbol.t * Node.t list) list Tbl.t; (* document order per tag *)
  descendants : (int * Symbol.t, Node.t list) Hashtbl.t;
}

let build _doc =
  (* Fault boundary: callers hold the index in resettable memo slots,
     so a failed build is retried cleanly (never a poisoned lazy). *)
  Clip_fault.hit Clip_fault.Site.index_build;
  { children = Tbl.create 256; descendants = Hashtbl.create 16 }

(* Elements with few children are scanned directly, unmemoised: the
   scan is bounded by the threshold, and skipping the grouping keeps
   single-visit runs from paying for an index they never reuse. Only
   wide elements (large fan-out, where O(children) per probe hurts)
   are grouped. *)
let small = 8

let rec shorter_than l n =
  n > 0 && match l with [] -> true | _ :: tl -> shorter_than tl (n - 1)

let scan_children e sym =
  List.filter
    (function
      | Node.Element ce -> Symbol.equal ce.Node.sym sym
      | Node.Text _ -> false)
    e.Node.children

(* Symbols are immediate ints, so [assq] physical equality coincides
   with symbol equality — assoc hits are pointer compares. *)
let rec assq_opt sym = function
  | [] -> None
  | (s, nodes) :: rest -> if Symbol.equal s sym then Some nodes else assq_opt sym rest

let children_by_tag ?obs t e sym =
  Clip_obs.index_probe obs;
  match Tbl.find_opt t.children e with
  | Some groups ->
    Clip_obs.index_hit obs;
    (match assq_opt sym groups with Some nodes -> nodes | None -> [])
  | None when shorter_than e.Node.children small -> scan_children e sym
  | None ->
    (* Group the element's children by tag, document order, in one
       pass; the per-element tag variety is small in schema-shaped
       documents, so assoc lists beat per-element hash tables. *)
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
    Tbl.add t.children e groups;
    (match assq_opt sym groups with Some nodes -> nodes | None -> [])

let descendants_by_tag ?obs t e sym =
  Clip_obs.index_probe obs;
  match Hashtbl.find_opt t.descendants (e.Node.id, sym) with
  | Some nodes ->
    Clip_obs.index_hit obs;
    nodes
  | None ->
    let acc = ref [] in
    let rec walk = function
      | Node.Text _ -> ()
      | Node.Element ce ->
        if Symbol.equal ce.Node.sym sym then acc := Node.Element ce :: !acc;
        List.iter walk ce.Node.children
    in
    List.iter walk e.Node.children;
    let nodes = List.rev !acc in
    Hashtbl.replace t.descendants (e.Node.id, sym) nodes;
    nodes
