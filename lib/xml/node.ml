type t =
  | Element of element
  | Text of Atom.t

and element = {
  id : int;
  tag : string;
  sym : Symbol.t;
  attrs : (string * Atom.t) list;
  children : t list;
}

(* Element ids are allocation-unique (the hash-consed identity behind
   {!Index} and provenance seen-sets); they carry no document meaning
   and are ignored by comparison. [sym] is the interned [tag] —
   cached at construction so every downstream tag test is an int
   compare. The counter is atomic: a plain [incr] under Domain.spawn
   can lose updates and hand two elements the same id, which would
   alias them in every id-keyed cache. *)
let next_id = Atomic.make 0

let make attrs tag sym children =
  let id = 1 + Atomic.fetch_and_add next_id 1 in
  Element { id; tag; sym; attrs; children }

let elem ?(attrs = []) tag children = make attrs tag (Symbol.intern tag) children
let elem_sym ~attrs sym children = make attrs (Symbol.name sym) sym children
let elem_named ~attrs tag sym children = make attrs tag sym children
let text a = Text a
let text_string s = Text (Atom.String s)
let leaf ?attrs tag a = elem ?attrs tag [ Text a ]

let as_element = function
  | Element e -> e
  | Text a -> invalid_arg ("Node.as_element: text node " ^ Atom.to_string a)

let tag = function
  | Element e -> e.tag
  | Text _ -> invalid_arg "Node.tag: text node"

let child_elements e =
  List.filter_map (function Element c -> Some c | Text _ -> None) e.children

let children_named e name =
  let sym = Symbol.intern name in
  List.filter (fun c -> Symbol.equal c.sym sym) (child_elements e)

(* A string-keyed [List.assoc_opt] with no polymorphic compare and no
   closure per call. *)
let rec assoc name = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k name then Some v else assoc name rest

let attr e name = assoc name e.attrs

let rec assoc_or name default = function
  | [] -> default
  | (k, v) :: rest -> if String.equal k name then v else assoc_or name default rest

let attr_or e name default = assoc_or name default e.attrs

let text_value e =
  match e.children with
  | [] | [ Element _ ] -> None
  | [ Text a ] -> Some a
  | children ->
    (match List.filter_map (function Text a -> Some a | Element _ -> None) children with
     | [] -> None
     | [ a ] -> Some a
     | many -> Some (Atom.String (String.concat "" (List.map Atom.to_string many))))

(* The one-text-child shape of a leaf answers without an option; mixed
   content takes the general path. *)
let text_value_or e default =
  match e.children with
  | [] | [ Element _ ] -> default
  | [ Text a ] -> a
  | _ -> (match text_value e with Some a -> a | None -> default)

let rec compare a b =
  match a, b with
  | Text x, Text y -> Atom.compare x y
  | Text _, Element _ -> -1
  | Element _, Text _ -> 1
  | Element x, Element y ->
    let r = if Symbol.equal x.sym y.sym then 0 else String.compare x.tag y.tag in
    if r <> 0 then r
    else
      let r = compare_attrs x.attrs y.attrs in
      if r <> 0 then r else compare_list x.children y.children

and compare_attrs xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (k1, v1) :: xs, (k2, v2) :: ys ->
    let r = String.compare k1 k2 in
    if r <> 0 then r
    else
      let r = Atom.compare v1 v2 in
      if r <> 0 then r else compare_attrs xs ys

and compare_list xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
    let r = compare x y in
    if r <> 0 then r else compare_list xs ys

let equal a b = compare a b = 0

(* Canonical form for order-insensitive comparison: sort attributes by
   name and siblings by their own canonical rendering. *)
let rec canonical = function
  | Text a -> Text a
  | Element e ->
    let attrs = List.sort (fun (a, _) (b, _) -> String.compare a b) e.attrs in
    let children = List.map canonical e.children in
    let children = List.sort compare children in
    Element { e with attrs; children }

let equal_unordered a b = equal (canonical a) (canonical b)

let rec size = function
  | Text _ -> 1
  | Element e -> 1 + List.length e.attrs + List.fold_left (fun n c -> n + size c) 0 e.children

let rec depth = function
  | Text _ -> 1
  | Element e -> 1 + List.fold_left (fun d c -> max d (depth c)) 0 e.children

let count_elements n tagname =
  let sym = Symbol.intern tagname in
  let rec go n =
    match n with
    | Text _ -> 0
    | Element e ->
      let self = if Symbol.equal e.sym sym then 1 else 0 in
      List.fold_left (fun n c -> n + go c) self e.children
  in
  go n

let rec pp fmt = function
  | Text a -> Atom.pp fmt a
  | Element e ->
    let pp_attr fmt (k, v) = Format.fprintf fmt " %s=%S" k (Atom.to_string v) in
    if e.children = [] then
      Format.fprintf fmt "<%s%a/>" e.tag (Format.pp_print_list pp_attr) e.attrs
    else
      Format.fprintf fmt "<%s%a>%a</%s>" e.tag
        (Format.pp_print_list pp_attr)
        e.attrs
        (Format.pp_print_list pp)
        e.children e.tag
