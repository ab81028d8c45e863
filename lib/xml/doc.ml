(* A struct-of-arrays (columnar) copy of a document, read by the
   relational backend's column store.

   Nodes are numbered in preorder (document order): the root is id 0
   and every parent precedes its descendants. Each per-node property
   lives in its own flat array — interned tag symbols, first-child /
   next-sibling links, attribute ranges — and every atomic value (text
   payloads, attribute values, precomputed element text values) is an
   index into one shared, deduplicated atom table.

   [nodes] records the original boxed node of every id, so a store row
   hands back the {e physically identical} subtree. [rebuild] is the
   genuine array-to-tree reconstruction — the round-trip oracle for
   [of_node] — and shares nothing with the input.

   Atom deduplication is by exact representation ([Float] payloads
   compared as IEEE bits), never by the looser [Atom.equal] classes:
   [Int 3] and [Float 3.] stay separate atoms, so a value read off the
   arrays prints and compares exactly like the boxed original. *)

type t = {
  tags : int array;
      (* per node: [(Node.element.sym :> int)]; [-1] for text nodes *)
  first_child : int array; (* [-1] when childless *)
  next_sibling : int array; (* [-1] for a last sibling *)
  attr_start : int array; (* per node: first slot in [attr_names] *)
  attr_len : int array; (* per node: attribute count; 0 for text *)
  attr_names : string array; (* per attribute slot *)
  attr_value : int array; (* per attribute slot: index into [atoms] *)
  text_value : int array;
      (* index into [atoms]: per element its precomputed
         {!Node.text_value} ([-1] = no text children), per text node
         its payload *)
  atoms : Atom.t array; (* shared deduplicated atom table *)
  nodes : Node.t array; (* per node: the original boxed subtree *)
}

let length t = Array.length t.tags

(* --- Conversion: tree -> arrays ---------------------------------------- *)

(* Dedup key preserving the exact atom representation: floats by IEEE
   bits (so [0.] / [-0.] and distinct NaN payloads never merge), ints
   and floats in separate namespaces (so [Int 3] never aliases
   [Float 3.]). *)
type akey = AString of string | AInt of int | AFloat of int64 | ABool of bool

let akey = function
  | Atom.String s -> AString s
  | Atom.Int i -> AInt i
  | Atom.Float f -> AFloat (Int64.bits_of_float f)
  | Atom.Bool b -> ABool b

let of_node root =
  (* Pass 1: size everything (stack-safe worklist). *)
  let n = ref 0 and nattrs = ref 0 in
  let stack = ref [ root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | node :: rest ->
      incr n;
      (match node with
       | Node.Text _ -> stack := rest
       | Node.Element e ->
         nattrs := !nattrs + List.length e.Node.attrs;
         stack := List.rev_append (List.rev e.Node.children) rest)
  done;
  let n = !n in
  let tags = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let first_child = Array.make n (-1) in
  let next_sibling = Array.make n (-1) in
  let attr_start = Array.make n 0 in
  let attr_len = Array.make n 0 in
  let attr_names = Array.make !nattrs "" in
  let attr_value = Array.make !nattrs (-1) in
  let text_value = Array.make n (-1) in
  let nodes = Array.make n root in
  (* Atom table: deduplicated, in first-seen order. *)
  let atom_ids : (akey, int) Hashtbl.t = Hashtbl.create 64 in
  let atoms_rev = ref [] and natoms = ref 0 in
  let atom_id a =
    let k = akey a in
    match Hashtbl.find_opt atom_ids k with
    | Some i -> i
    | None ->
      let i = !natoms in
      incr natoms;
      Hashtbl.add atom_ids k i;
      atoms_rev := a :: !atoms_rev;
      i
  in
  (* Pass 2: preorder numbering. Popping a node assigns the next id;
     its children are pushed front-first so the whole subtree is
     numbered before any following sibling. *)
  let next = ref 0 in
  let anext = ref 0 in
  let stack = ref [ (root, -1) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (node, p) :: rest ->
      stack := rest;
      let id = !next in
      incr next;
      nodes.(id) <- node;
      parent.(id) <- p;
      (match node with
       | Node.Text a -> text_value.(id) <- atom_id a
       | Node.Element e ->
         tags.(id) <- (e.Node.sym :> int);
         (match Node.text_value e with
          | Some a -> text_value.(id) <- atom_id a
          | None -> ());
         attr_start.(id) <- !anext;
         List.iter
           (fun (name, v) ->
             attr_names.(!anext) <- name;
             attr_value.(!anext) <- atom_id v;
             incr anext)
           e.Node.attrs;
         attr_len.(id) <- !anext - attr_start.(id);
         stack :=
           List.fold_left (fun acc c -> (c, id) :: acc) !stack
             (List.rev e.Node.children))
  done;
  (* Sibling links: sweep ids in reverse — siblings carry increasing
     preorder ids, so each id pushes itself in front of the current
     first child of its parent. *)
  for id = n - 1 downto 1 do
    let p = parent.(id) in
    next_sibling.(id) <- first_child.(p);
    first_child.(p) <- id
  done;
  {
    tags;
    first_child;
    next_sibling;
    attr_start;
    attr_len;
    attr_names;
    attr_value;
    text_value;
    atoms = Array.of_list (List.rev !atoms_rev);
    nodes;
  }

(* --- Reads -------------------------------------------------------------- *)

let check t id fn =
  if id < 0 || id >= Array.length t.tags then
    invalid_arg (Printf.sprintf "Doc.%s: node id %d out of range" fn id)

let is_element t id = t.tags.(id) >= 0

let tag t id =
  check t id "tag";
  Symbol.of_int t.tags.(id)

(* --- Reconstruction: arrays -> tree ------------------------------------- *)

type frame = { id : int; mutable next : int; mutable kids_rev : Node.t list }

let rebuild t id0 =
  check t id0 "rebuild";
  let text id = Node.text t.atoms.(t.text_value.(id)) in
  let mk_elem id kids_rev =
    let tag = Symbol.name (Symbol.of_int t.tags.(id)) in
    let attrs =
      List.init t.attr_len.(id) (fun k ->
          let a = t.attr_start.(id) + k in
          (t.attr_names.(a), t.atoms.(t.attr_value.(a))))
    in
    Node.elem ~attrs tag (List.rev kids_rev)
  in
  if t.tags.(id0) < 0 then text id0
  else begin
    (* Post-order assembly over an explicit frame stack: a frame walks
       its sibling chain, descending into element children; when the
       chain is exhausted the element is built and handed to its
       parent frame. Depth-proportional heap, constant OCaml stack. *)
    let stack = ref [ { id = id0; next = t.first_child.(id0); kids_rev = [] } ] in
    let result = ref None in
    while !result = None do
      match !stack with
      | [] -> assert false
      | f :: rest ->
        if f.next >= 0 then begin
          let c = f.next in
          f.next <- t.next_sibling.(c);
          if t.tags.(c) < 0 then f.kids_rev <- text c :: f.kids_rev
          else stack := { id = c; next = t.first_child.(c); kids_rev = [] } :: !stack
        end
        else begin
          let node = mk_elem f.id f.kids_rev in
          stack := rest;
          match rest with
          | [] -> result := Some node
          | parentf :: _ -> parentf.kids_rev <- node :: parentf.kids_rev
        end
    done;
    match !result with Some node -> node | None -> assert false
  end
