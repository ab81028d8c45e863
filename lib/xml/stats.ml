(* A one-pass statistics summary of an instance document.

   The adaptive planner ({!Clip_plan} with the [`Cost] policy) prices
   generator chains with per-tag cardinalities: the estimated size of
   [source.dept.Proj] is the Proj count, the estimated per-department
   fan-out of [d.Proj] is Proj count / dept count, and so on. One
   preorder walk collects everything, once per run. *)

type t = {
  nodes : int; (* elements + attributes + texts, like Node.size *)
  elements : int;
  depth : int;
  max_fanout : int; (* most element children under one element *)
  counts : int array; (* elements per tag, indexed by symbol *)
}

(* Per-tag counters in a symbol-indexed array: every tag of a document
   was interned before its node was built, so [Symbol.interned] at the
   start of a walk bounds them; [bump] still grows the array should a
   concurrent domain intern more. *)
let make_counts () = ref (Array.make (Symbol.interned ()) 0)

let bump counts (sym : Symbol.t) =
  let i = (sym :> int) in
  let a = !counts in
  if i >= Array.length a then begin
    let a' = Array.make (max (i + 1) (2 * Array.length a)) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    counts := a'
  end;
  let a = !counts in
  a.(i) <- a.(i) + 1

let collect doc =
  let counts = make_counts () in
  let nodes = ref 0 and elements = ref 0 and max_fanout = ref 0 in
  (* Returns the deepest level in the subtree of [n] at level [depth]. *)
  let rec walk depth n =
    match n with
    | Node.Text _ ->
      incr nodes;
      depth
    | Node.Element e ->
      incr elements;
      nodes := !nodes + 1 + List.length e.Node.attrs;
      bump counts e.Node.sym;
      children (depth + 1) e.Node.children 0 depth
  and children depth cs fanout deepest =
    match cs with
    | [] ->
      if fanout > !max_fanout then max_fanout := fanout;
      deepest
    | c :: rest ->
      let fanout = match c with Node.Element _ -> fanout + 1 | Node.Text _ -> fanout in
      let d = walk depth c in
      children depth rest fanout (if d > deepest then d else deepest)
  in
  let depth = walk 1 doc in
  {
    nodes = !nodes;
    elements = !elements;
    depth;
    max_fanout = !max_fanout;
    counts = !counts;
  }

let tag_count t (sym : Symbol.t) =
  let i = (sym :> int) in
  if i < Array.length t.counts then t.counts.(i) else 0

let node_count t = t.nodes
let element_count t = t.elements
let depth t = t.depth
let max_fanout t = t.max_fanout

let pp fmt t =
  Format.fprintf fmt "@[<v>nodes %d, elements %d, depth %d, max fan-out %d"
    t.nodes t.elements t.depth t.max_fanout;
  let tags = ref [] in
  Array.iteri
    (fun i n -> if n > 0 then tags := (Symbol.name (Symbol.of_int i), n) :: !tags)
    t.counts;
  List.iter
    (fun (tag, n) -> Format.fprintf fmt "@,  %s: %d" tag n)
    (List.sort compare !tags);
  Format.fprintf fmt "@]"
