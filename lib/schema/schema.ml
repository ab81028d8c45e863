type attribute = {
  attr_name : string;
  attr_type : Atomic_type.t;
  attr_required : bool;
}

type element = {
  name : string;
  card : Cardinality.t;
  attrs : attribute list;
  value : Atomic_type.t option;
  children : element list;
}

type reference = { ref_from : Path.t; ref_to : Path.t }

type t = { root : element; refs : reference list }

let attribute ?(required = true) attr_name attr_type =
  { attr_name; attr_type; attr_required = required }

let element ?(card = Cardinality.required) ?(attrs = []) ?value name children =
  { name; card; attrs; value; children }

let rec check_element path e =
  let dup names kind =
    let sorted = List.sort String.compare names in
    let rec first_dup = function
      | a :: (b :: _ as rest) ->
        if String.equal a b then Some a else first_dup rest
      | [ _ ] | [] -> None
    in
    match first_dup sorted with
    | Some n ->
      invalid_arg
        (Printf.sprintf "Schema.make: duplicate %s %S under %s" kind n path)
    | None -> ()
  in
  dup (List.map (fun a -> a.attr_name) e.attrs) "attribute";
  dup (List.map (fun c -> c.name) e.children) "child element";
  List.iter (fun c -> check_element (path ^ "." ^ c.name) c) e.children

(* Resolution --------------------------------------------------------- *)

type node_ref =
  | Element_ref of element
  | Attr_ref of element * attribute
  | Value_ref of element * Atomic_type.t

let rec child_named n = function
  | [] -> None
  | c :: rest -> if String.equal c.name n then Some c else child_named n rest

let rec attr_named n = function
  | [] -> None
  | a :: rest -> if String.equal a.attr_name n then Some a else attr_named n rest

let find t (p : Path.t) =
  if not (String.equal p.root t.root.name) then None
  else
    let rec go e = function
      | [] -> Some (Element_ref e)
      | Path.Child n :: rest ->
        (match child_named n e.children with
         | Some c -> go c rest
         | None -> None)
      | [ Path.Attr n ] ->
        (match attr_named n e.attrs with
         | Some a -> Some (Attr_ref (e, a))
         | None -> None)
      | [ Path.Value ] ->
        (match e.value with
         | Some ty -> Some (Value_ref (e, ty))
         | None -> None)
      | (Path.Attr _ | Path.Value) :: _ :: _ -> None
    in
    go t.root p.steps

let find_element t p =
  match find t p with
  | Some (Element_ref e) -> Some e
  | Some (Attr_ref _ | Value_ref _) | None -> None

let mem t p = Option.is_some (find t p)

let leaf_type t p =
  match find t p with
  | Some (Attr_ref (_, a)) -> Some a.attr_type
  | Some (Value_ref (_, ty)) -> Some ty
  | Some (Element_ref _) | None -> None

let root_path t = Path.root t.root.name

(* Structural equality, spelled out per constituent so a future field
   turns this into a compile error rather than a silent wrong answer. *)
let equal_attribute (a : attribute) (b : attribute) =
  String.equal a.attr_name b.attr_name
  && Atomic_type.equal a.attr_type b.attr_type
  && Bool.equal a.attr_required b.attr_required

let rec equal_element (a : element) (b : element) =
  String.equal a.name b.name
  && Cardinality.equal a.card b.card
  && List.equal equal_attribute a.attrs b.attrs
  && Option.equal Atomic_type.equal a.value b.value
  && List.equal equal_element a.children b.children

let equal_reference (a : reference) (b : reference) =
  Path.equal a.ref_from b.ref_from && Path.equal a.ref_to b.ref_to

let equal (a : t) (b : t) =
  equal_element a.root b.root && List.equal equal_reference a.refs b.refs

let make ?(refs = []) root =
  check_element root.name root;
  let t = { root; refs } in
  List.iter
    (fun r ->
      let check p =
        match find t p with
        | Some (Attr_ref _ | Value_ref _) -> ()
        | Some (Element_ref _) ->
          invalid_arg
            (Printf.sprintf "Schema.make: reference end %s is not a leaf"
               (Path.to_string p))
        | None ->
          invalid_arg
            (Printf.sprintf "Schema.make: reference end %s does not resolve"
               (Path.to_string p))
      in
      check r.ref_from;
      check r.ref_to)
    refs;
  t

(* Enumeration -------------------------------------------------------- *)

let element_paths t =
  let rec go acc path e =
    let acc = path :: acc in
    List.fold_left (fun acc c -> go acc (Path.child path c.name) c) acc e.children
  in
  List.rev (go [] (root_path t) t.root)

let leaf_paths t =
  let rec go acc path e =
    let acc =
      List.fold_left (fun acc a -> Path.attr path a.attr_name :: acc) acc e.attrs
    in
    let acc = if Option.is_some e.value then Path.value path :: acc else acc in
    List.fold_left (fun acc c -> go acc (Path.child path c.name) c) acc e.children
  in
  List.rev (go [] (root_path t) t.root)

(* The queries below walk the schema once along the path, element step
   by element step; a step that does not resolve, or an attribute or
   value step, ends the walk. *)

let is_repeating t (p : Path.t) =
  let rec go e = function
    | [] -> Cardinality.is_repeating e.card
    | Path.Child n :: rest ->
      (match child_named n e.children with Some c -> go c rest | None -> false)
    | (Path.Attr _ | Path.Value) :: _ -> false
  in
  match p.steps with
  | [] -> false (* the root is never repeating *)
  | steps -> String.equal p.root t.root.name && go t.root steps

let repeating_paths t =
  List.filter (is_repeating t) (element_paths t)

(* The repeating element prefixes of [p], root first, skipping those
   that are also prefixes of the step list [shared]. *)
let repeating_prefixes t (p : Path.t) ~shared =
  let rec go e rev_steps shared = function
    | Path.Child n :: rest ->
      (match child_named n e.children with
       | None -> []
       | Some c ->
         let rev_steps = Path.Child n :: rev_steps in
         let on_shared, shared =
           match shared with
           | Path.Child m :: shared when String.equal m n -> (true, shared)
           | _ -> (false, [])
         in
         let below = go c rev_steps shared rest in
         if on_shared || not (Cardinality.is_repeating c.card) then below
         else { p with steps = List.rev rev_steps } :: below)
    | [] | (Path.Attr _ | Path.Value) :: _ -> []
  in
  if String.equal p.root t.root.name then go t.root [] shared p.steps else []

let repeating_ancestors t p = repeating_prefixes t p ~shared:[]

let repeating_strictly_between t ~(above : Path.t) ~(below : Path.t) =
  let shared = if String.equal above.root below.root then above.steps else [] in
  repeating_prefixes t below ~shared

let reference_between t a b =
  let under ctx leaf = Path.is_prefix ctx (Path.element_of leaf) in
  List.find_opt
    (fun r ->
      (under a r.ref_from && under b r.ref_to)
      || (under b r.ref_from && under a r.ref_to))
    t.refs

(* Display ------------------------------------------------------------ *)

let to_tree_string t =
  let buf = Buffer.create 256 in
  let rec go indent e =
    let pad = String.make indent ' ' in
    let card =
      if Cardinality.equal e.card Cardinality.required && indent = 0 then ""
      else " " ^ Cardinality.to_string e.card
    in
    Buffer.add_string buf (Printf.sprintf "%s%s%s\n" pad e.name card);
    List.iter
      (fun a ->
        Buffer.add_string buf
          (Printf.sprintf "%s  @%s: %s%s\n" pad a.attr_name
             (Atomic_type.to_string a.attr_type)
             (if a.attr_required then "" else " ?")))
      e.attrs;
    (match e.value with
     | Some ty ->
       Buffer.add_string buf
         (Printf.sprintf "%s  value: %s\n" pad (Atomic_type.to_string ty))
     | None -> ());
    List.iter (go (indent + 2)) e.children
  in
  go 0 t.root;
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "ref %s -> %s\n" (Path.to_string r.ref_from)
           (Path.to_string r.ref_to)))
    t.refs;
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_tree_string t)
