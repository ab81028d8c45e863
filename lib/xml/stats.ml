(* A one-pass statistics summary of an instance document.

   The adaptive planner ({!Clip_plan} with the [`Cost] policy) prices
   generator chains with per-tag cardinalities: the estimated size of
   [source.dept.Proj] is the Proj count, the estimated per-department
   fan-out of [d.Proj] is Proj count / dept count, and so on. One
   preorder walk collects them, once per run that prices a join. *)

type t = {
  nodes : int; (* elements + attributes + texts, like Node.size *)
  counts : int array; (* elements per tag, indexed by symbol *)
}

(* Per-tag counters in a symbol-indexed array: every tag of a document
   was interned before its node was built, so [Symbol.interned] at the
   start of a walk bounds them; [bump] still grows the array should a
   concurrent domain intern more. *)
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
  let counts = ref (Array.make (Symbol.interned ()) 0) in
  let nodes = ref 0 in
  let rec walk = function
    | [] -> ()
    | Node.Text _ :: rest ->
      incr nodes;
      walk rest
    | Node.Element e :: rest ->
      nodes := !nodes + 1 + List.length e.Node.attrs;
      bump counts e.Node.sym;
      walk e.Node.children;
      walk rest
  in
  walk [ doc ];
  { nodes = !nodes; counts = !counts }

let tag_count t (sym : Symbol.t) =
  let i = (sym :> int) in
  if i < Array.length t.counts then t.counts.(i) else 0

let node_count t = t.nodes
