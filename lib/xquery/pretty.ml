let cmp_to_string = function
  | Ast.Eq -> "="
  | Ast.Ne -> "!="
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="

let arith_to_string = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "div"

let step_to_string = function
  | Ast.Child_step tag -> tag
  | Ast.Attr_step name -> "@" ^ name
  | Ast.Text_step -> "text()"

(* Indented rendering into one buffer: every construct knows its own
   indentation level. *)
let pad b ind =
  for _ = 1 to ind do
    Buffer.add_char b ' '
  done

(* [f] over [xs], with [sep] between. *)
let sep_list b sep f xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b sep;
      f x)
    xs

(* The text of a quoted literal: a quote is doubled and [&], which
   would start an entity reference, is written [&amp;]. A direct
   attribute value ([~attr]) also doubles braces, which would open an
   enclosed expression, and writes [<] as [&lt;]. *)
let add_quoted ?(attr = false) b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\"\""
      | '&' -> Buffer.add_string b "&amp;"
      | '<' when attr -> Buffer.add_string b "&lt;"
      | ('{' | '}') as c when attr ->
        Buffer.add_char b c;
        Buffer.add_char b c
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec add b ind (e : Ast.expr) =
  match e with
  | Ast.Var x ->
    Buffer.add_char b '$';
    Buffer.add_string b x
  | Ast.Doc tag -> Buffer.add_string b tag
  | Ast.Literal (Clip_xml.Atom.String s) -> add_quoted b s
  | Ast.Literal a -> Buffer.add_string b (Clip_xml.Atom.to_string a)
  | Ast.Path (base, steps) ->
    add b ind base;
    Buffer.add_char b '/';
    sep_list b "/" (fun s -> Buffer.add_string b (step_to_string s)) steps
  | Ast.Seq [] -> Buffer.add_string b "()"
  | Ast.Seq es ->
    Buffer.add_char b '(';
    sep_list b ", " (add b ind) es;
    Buffer.add_char b ')'
  | Ast.Elem { tag; attrs; content } ->
    Buffer.add_char b '<';
    Buffer.add_string b tag;
    List.iter
      (fun (name, e) ->
        Buffer.add_char b ' ';
        Buffer.add_string b name;
        match e with
        | Ast.Literal (Clip_xml.Atom.String s) ->
          Buffer.add_char b '=';
          add_quoted ~attr:true b s
        | e ->
          Buffer.add_string b "={ ";
          add b (ind + 2) e;
          Buffer.add_string b " }")
      attrs;
    (match content with
     | [] -> Buffer.add_string b "/>"
     | content ->
       Buffer.add_string b ">\n";
       pad b ind;
       Buffer.add_string b "  ";
       List.iteri
         (fun i e ->
           if i > 0 then begin
             Buffer.add_char b '\n';
             pad b ind;
             Buffer.add_string b "  "
           end;
           Buffer.add_string b "{ ";
           add b (ind + 2) e;
           Buffer.add_string b " }")
         content;
       Buffer.add_char b '\n';
       pad b ind;
       Buffer.add_string b "</";
       Buffer.add_string b tag;
       Buffer.add_char b '>')
  | Ast.Flwor { clauses; where; return } ->
    Buffer.add_char b '\n';
    List.iter
      (fun c ->
        pad b ind;
        (match c with
         | Ast.For (x, e) ->
           Buffer.add_string b "for $";
           Buffer.add_string b x;
           Buffer.add_string b " in ";
           add b (ind + 2) e
         | Ast.Let (x, e) ->
           Buffer.add_string b "let $";
           Buffer.add_string b x;
           Buffer.add_string b " := ";
           add b (ind + 2) e);
        Buffer.add_char b '\n')
      clauses;
    (match where with
     | Some w ->
       pad b ind;
       Buffer.add_string b "where ";
       add b (ind + 2) w;
       Buffer.add_char b '\n'
     | None -> ());
    pad b ind;
    Buffer.add_string b "return ";
    add b (ind + 2) return
  | Ast.If (c, t, e) ->
    Buffer.add_string b "if (";
    add b ind c;
    Buffer.add_string b ") then ";
    add b ind t;
    Buffer.add_string b " else ";
    add b ind e
  | Ast.Cmp (op, l, r) ->
    add b ind l;
    Buffer.add_char b ' ';
    Buffer.add_string b (cmp_to_string op);
    Buffer.add_char b ' ';
    add b ind r
  | Ast.And (l, r) ->
    add_guarded b ind l;
    Buffer.add_string b " and ";
    add_guarded b ind r
  | Ast.Or (l, r) ->
    Buffer.add_char b '(';
    add b ind l;
    Buffer.add_string b " or ";
    add b ind r;
    Buffer.add_char b ')'
  | Ast.Arith (op, l, r) ->
    Buffer.add_char b '(';
    add b ind l;
    Buffer.add_char b ' ';
    Buffer.add_string b (arith_to_string op);
    Buffer.add_char b ' ';
    add b ind r;
    Buffer.add_char b ')'
  | Ast.Call (name, args) ->
    Buffer.add_string b name;
    Buffer.add_char b '(';
    sep_list b ", " (add b ind) args;
    Buffer.add_char b ')'

and add_guarded b ind e =
  match e with
  | Ast.Or _ | Ast.And _ ->
    Buffer.add_char b '(';
    add b ind e;
    Buffer.add_char b ')'
  | e -> add b ind e

let render e ~newline =
  let b = Buffer.create 512 in
  add b 0 e;
  if newline then Buffer.add_char b '\n';
  Buffer.contents b

let expr_to_string e = render e ~newline:false
let query_to_string e = render e ~newline:true
