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

let add_text buf a = add_escaped buf ~attr:false (Atom.to_string a)

let rec add_attrs buf = function
  | [] -> ()
  | (k, v) :: rest ->
    Buffer.add_char buf ' ';
    Buffer.add_string buf k;
    Buffer.add_string buf "=\"";
    add_escaped buf ~attr:true (Atom.to_string v);
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

(* Compact rendering: a worklist of nodes still to open and closing
   tags to emit once their subtree is done. *)
type ctok = CNode of Node.t | CClose of string

let add_compact buf node =
  let rec go = function
    | [] -> ()
    | CClose tag :: rest ->
      add_close buf tag;
      go rest
    | CNode (Node.Text a) :: rest ->
      add_text buf a;
      go rest
    | CNode (Node.Element e) :: rest ->
      add_open buf e;
      (match e.children with
       | [] ->
         Buffer.add_string buf "/>";
         go rest
       | children ->
         Buffer.add_char buf '>';
         go (List.map (fun c -> CNode c) children @ (CClose e.tag :: rest)))
  in
  go [ CNode node ]

let to_string node =
  let buf = Buffer.create 256 in
  add_compact buf node;
  Buffer.contents buf

type ptok = PNode of Node.t | PClose of string

let to_pretty_string ?(indent = 2) node =
  let buf = Buffer.create 256 in
  let pad level =
    for _ = 1 to level * indent do
      Buffer.add_char buf ' '
    done
  in
  let rec go = function
    | [] -> ()
    | (level, PClose tag) :: rest ->
      pad level;
      add_close buf tag;
      Buffer.add_char buf '\n';
      go rest
    | (level, PNode (Node.Text a)) :: rest ->
      pad level;
      add_text buf a;
      Buffer.add_char buf '\n';
      go rest
    | (level, PNode (Node.Element e)) :: rest ->
      pad level;
      add_open buf e;
      (match e.children with
       | [] ->
         Buffer.add_string buf "/>\n";
         go rest
       | [ Node.Text a ] ->
         Buffer.add_char buf '>';
         add_text buf a;
         add_close buf e.tag;
         Buffer.add_char buf '\n';
         go rest
       | children ->
         Buffer.add_string buf ">\n";
         go
           (List.map (fun c -> (level + 1, PNode c)) children
           @ ((level, PClose e.tag) :: rest)))
  in
  go [ (0, PNode node) ];
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
