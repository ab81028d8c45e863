(* Serializers for instance documents.

   Every traversal here runs on an explicit worklist (in tail calls),
   never on OCaml recursion: the parser bounds the depth of *parsed* documents, but
   engine-*generated* target instances have no such bound, and a
   serializer must not be the one place a deep (but legal) result can
   blow the stack. *)

(* Append [s] with the characters XML reserves escaped: in text
   ([attr] false) '<', '>' and '&'; in a double-quoted attribute value
   ([attr] true) '<', '&' and '"'. *)
let add_escaped buf ~attr s =
  let from = ref 0 in
  for i = 0 to String.length s - 1 do
    let rep =
      match String.unsafe_get s i with
      | '<' -> "&lt;"
      | '&' -> "&amp;"
      | '>' when not attr -> "&gt;"
      | '"' when attr -> "&quot;"
      | _ -> ""
    in
    if String.length rep > 0 then begin
      Buffer.add_substring buf s !from (i - !from);
      Buffer.add_string buf rep;
      from := i + 1
    end
  done;
  Buffer.add_substring buf s !from (String.length s - !from)

(* Does [s] from [i] on hold none of the characters [add_escaped] may
   change? *)
let rec clean s i =
  i = String.length s
  || match String.unsafe_get s i with '<' | '>' | '&' | '"' -> false | _ -> clean s (i + 1)

(* The decimal digits of [i >= 0], written straight into [buf]. *)
let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

(* An atom as text: a clean string is copied whole, and an [Int]
   needs no escaping and no string of its own. *)
let add_atom buf ~attr = function
  | Atom.String s when clean s 0 -> Buffer.add_string buf s
  | Atom.Int i when i >= 0 -> add_digits buf i
  | a -> add_escaped buf ~attr (Atom.to_string a)

let rec add_attrs buf = function
  | [] -> ()
  | (k, v) :: rest ->
    Buffer.add_char buf ' ';
    Buffer.add_string buf k;
    Buffer.add_string buf "=\"";
    add_atom buf ~attr:true v;
    Buffer.add_char buf '"';
    add_attrs buf rest

(* "<tag k="v" ..." — the open tag, still unterminated. *)
let add_open buf (e : Node.element) =
  Buffer.add_char buf '<';
  Buffer.add_string buf e.tag;
  add_attrs buf e.attrs

let add_close buf tag =
  Buffer.add_string buf "</";
  Buffer.add_string buf tag;
  Buffer.add_char buf '>'

(* One open element whose children are still being written: [todo]
   holds the children not yet written, [level] the element's own
   depth. The worklist holds one frame per open element, innermost
   first. *)
type frame = { tag : string; level : int; mutable todo : Node.t list }

(* Write the worklist's nodes in document order. [visit level n stack]
   writes [n] at [level] and returns [stack], with [n]'s frame pushed
   when [n] is an element whose children are still to come; [close]
   ends a frame's element. *)
let rec drain visit close = function
  | [] -> ()
  | f :: rest as stack ->
    (match f.todo with
     | c :: tl ->
       f.todo <- tl;
       drain visit close (visit (f.level + 1) c stack)
     | [] ->
       close f;
       drain visit close rest)

(* Compact rendering. *)
let add_compact buf node =
  let visit _ n stack =
    match n with
    | Node.Text a ->
      add_atom buf ~attr:false a;
      stack
    | Node.Element e ->
      add_open buf e;
      (match e.children with
       | [] ->
         Buffer.add_string buf "/>";
         stack
       | children ->
         Buffer.add_char buf '>';
         { tag = e.tag; level = 0; todo = children } :: stack)
  in
  drain visit (fun f -> add_close buf f.tag) (visit 0 node [])

let to_string node =
  let buf = Buffer.create 256 in
  add_compact buf node;
  Buffer.contents buf

let spaces = String.make 64 ' '

let rec add_spaces buf n =
  if n > 0 then begin
    let k = min n (String.length spaces) in
    Buffer.add_substring buf spaces 0 k;
    add_spaces buf (n - k)
  end

let to_pretty_string ?(indent = 2) node =
  let buf = Buffer.create 256 in
  let visit level n stack =
    add_spaces buf (level * indent);
    match n with
    | Node.Text a ->
      add_atom buf ~attr:false a;
      Buffer.add_char buf '\n';
      stack
    | Node.Element e ->
      add_open buf e;
      (match e.children with
       | [] ->
         Buffer.add_string buf "/>\n";
         stack
       | [ Node.Text a ] ->
         Buffer.add_char buf '>';
         add_atom buf ~attr:false a;
         add_close buf e.tag;
         Buffer.add_char buf '\n';
         stack
       | children ->
         Buffer.add_string buf ">\n";
         { tag = e.tag; level; todo = children } :: stack)
  in
  let close f =
    add_spaces buf (f.level * indent);
    add_close buf f.tag;
    Buffer.add_char buf '\n'
  in
  drain visit close (visit 0 node []);
  Buffer.contents buf

(* --- The paper's ASCII-tree rendering --------------------------------- *)

(* Each node renders to a non-empty list of lines; the parent splices the
   first line after "label---" and prefixes the rest with margin columns. *)

type item = string list (* rendered lines of one child item *)

let splice label items : item =
  match items with
  | [] -> [ label ]
  | first :: rest ->
    let margin = String.make (String.length label) ' ' in
    let lines = ref [] in
    let emit s = lines := s :: !lines in
    (* First item: inline after "label---". *)
    (match first with
     | [] -> ()
     | fl :: fls ->
       emit (label ^ "---" ^ fl);
       let cont_prefix = margin ^ (if rest = [] then "   " else "  |") in
       List.iter (fun l -> emit (cont_prefix ^ l)) fls);
    (* Later items on their own lines with |--- / `--- markers. *)
    let rec emit_rest = function
      | [] -> ()
      | item :: tl ->
        let last = tl = [] in
        let marker = if last then "  `---" else "  |---" in
        (match item with
         | [] -> ()
         | fl :: fls ->
           emit (margin ^ marker ^ fl);
           let cont = margin ^ (if last then "      " else "  |   ") in
           List.iter (fun l -> emit (cont ^ l)) fls);
        emit_rest tl
    in
    emit_rest rest;
    List.rev !lines

(* Bottom-up assembly over an explicit frame stack: a frame renders its
   element children one by one; when none remain the element splices
   and hands its lines to the parent frame. *)
type tframe = {
  label : string;
  pre : item list; (* attribute and text items, already rendered *)
  mutable pending : Node.element list;
  mutable done_rev : item list;
}

let render_element (e0 : Node.element) : item =
  let leaf (e : Node.element) =
    match Node.text_value e, e.attrs, Node.child_elements e with
    | Some v, [], [] -> Some [ Printf.sprintf "%s = %s" e.tag (Atom.to_string v) ]
    | _ -> None
  in
  let frame (e : Node.element) =
    let attr_items =
      List.map (fun (k, v) -> [ Printf.sprintf "@%s = %s" k (Atom.to_string v) ]) e.attrs
    in
    let text_items =
      match Node.text_value e with
      | Some v -> [ [ Printf.sprintf "value = %s" (Atom.to_string v) ] ]
      | None -> []
    in
    {
      label = e.tag;
      pre = attr_items @ text_items;
      pending = Node.child_elements e;
      done_rev = [];
    }
  in
  match leaf e0 with
  | Some lines -> lines
  | None ->
    let stack = ref [ frame e0 ] in
    let result = ref None in
    while !result = None do
      match !stack with
      | [] -> assert false
      | f :: rest ->
        (match f.pending with
         | e :: tl ->
           f.pending <- tl;
           (match leaf e with
            | Some lines -> f.done_rev <- lines :: f.done_rev
            | None -> stack := frame e :: !stack)
         | [] ->
           let lines = splice f.label (f.pre @ List.rev f.done_rev) in
           stack := rest;
           (match rest with
            | [] -> result := Some lines
            | parent :: _ -> parent.done_rev <- lines :: parent.done_rev))
    done;
    (match !result with Some lines -> lines | None -> assert false)

let to_tree_string node =
  let lines =
    match node with
    | Node.Element e -> render_element e
    | Node.Text a -> [ Atom.to_string a ]
  in
  String.concat "\n" lines
