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
  obs : Clip_obs.Counters.t; (* the run's record: probes and hits *)
}

let build ?(obs = Clip_obs.Counters.create ()) _doc =
  (* Fault boundary: callers hold the index in resettable memo slots,
     so a failed build is retried cleanly (never a poisoned lazy). *)
  Clip_fault.hit Clip_fault.Site.index_build;
  { children = Tbl.create 256; descendants = Hashtbl.create 16; obs }

let probe t = t.obs.index_probes <- t.obs.index_probes + 1
let hit t = t.obs.index_hits <- t.obs.index_hits + 1

(* Elements with few children are scanned directly, unmemoised: the
   scan is bounded by the threshold, and skipping the grouping keeps
   single-visit runs from paying for an index they never reuse. Only
   wide elements (large fan-out, where O(children) per probe hurts)
   are grouped. *)
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
  Tbl.add t.children e groups;
  groups

let scanned t n = t.obs.nodes_scanned <- t.obs.nodes_scanned + n

(* The children of a small element tagged [sym] ([m] of the [n] seen
   so far), or [-1] when the element has [small] children or more: one
   pass for both. *)
let rec small_matches sym n m = function
  | [] -> m
  | _ :: _ when n + 1 >= small -> -1
  | Node.Element ce :: rest when Symbol.equal ce.Node.sym sym ->
    small_matches sym (n + 1) (m + 1) rest
  | (Node.Element _ | Node.Text _) :: rest -> small_matches sym (n + 1) m rest

let rec push_all f x = function
  | [] -> ()
  | n :: rest ->
    f x n;
    push_all f x rest

(* Every match is counted before the first is pushed, as a probe that
   returns a list counts it. *)
let push_group t nodes f x =
  scanned t (List.length nodes);
  push_all f x nodes

let iter_children_by_tag t e sym f x =
  probe t;
  let m = small_matches sym 0 0 e.Node.children in
  if m >= 0 then begin
    scanned t m;
    Node.iter_children_tagged e sym f x
  end
  else
    match Tbl.find_opt t.children e with
    | Some groups ->
      hit t;
      push_group t (find_group sym groups) f x
    | None -> push_group t (find_group sym (group t e)) f x

let children_by_tag t e sym =
  let acc = ref [] in
  iter_children_by_tag t e sym (fun acc n -> acc := n :: !acc) acc;
  List.rev !acc

let descendants_by_tag t e sym =
  probe t;
  match Hashtbl.find_opt t.descendants (e.Node.id, sym) with
  | Some nodes ->
    hit t;
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
