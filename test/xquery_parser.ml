open Clip_xquery

exception Parse_error of { position : int; message : string }

type state = { src : string; mutable pos : int; mutable depth : int; max_depth : int }

let error_code code st fmt =
  Printf.ksprintf
    (fun message ->
      Clip_diag.fail
        (Clip_diag.error ~code ~span:(Clip_diag.span_of_offset st.src st.pos) message))
    fmt

let error st fmt = error_code Clip_diag.Codes.xquery_syntax st fmt

let enter st =
  st.depth <- st.depth + 1;
  if st.depth > st.max_depth then
    error_code Clip_diag.Codes.limit_recursion st
      "expression nesting exceeds the limit of %d" st.max_depth

let leave st = st.depth <- st.depth - 1

let eof st = st.pos >= String.length st.src
let peek_at st k = if st.pos + k >= String.length st.src then '\000' else st.src.[st.pos + k]
let peek st = peek_at st 0

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let rec skip_ws st =
  while (not (eof st)) && is_space (peek st) do
    st.pos <- st.pos + 1
  done;
  (* XQuery comments: (: ... :) *)
  if peek st = '(' && peek_at st 1 = ':' then begin
    st.pos <- st.pos + 2;
    let rec close depth =
      if eof st then error st "unterminated comment"
      else if peek st = ':' && peek_at st 1 = ')' then begin
        st.pos <- st.pos + 2;
        if depth > 0 then close (depth - 1)
      end
      else if peek st = '(' && peek_at st 1 = ':' then begin
        st.pos <- st.pos + 2;
        close (depth + 1)
      end
      else begin
        st.pos <- st.pos + 1;
        close depth
      end
    in
    close 0;
    skip_ws st
  end

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9') || c = '.'

(* A dash belongs to the name when glued between name characters. *)
let read_name st =
  if not (is_name_start (peek st)) then error st "expected a name";
  let start = st.pos in
  let continue = ref true in
  while !continue && not (eof st) do
    let c = peek st in
    if is_name_char c then st.pos <- st.pos + 1
    else if c = '-' && is_name_char (peek_at st 1) then st.pos <- st.pos + 1
    else continue := false
  done;
  String.sub st.src start (st.pos - start)

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

(* A keyword must not be a prefix of a longer name. *)
let looking_at_kw st kw =
  looking_at st kw
  &&
  let k = st.pos + String.length kw in
  k >= String.length st.src
  || not (is_name_char st.src.[k] || st.src.[k] = '-')

let eat st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else error st "expected %S" s

let eat_kw st kw =
  if looking_at_kw st kw then st.pos <- st.pos + String.length kw
  else error st "expected keyword %S" kw

(* The five predefined entity references; [&] starts one. *)
let entities =
  [ ("&amp;", '&'); ("&lt;", '<'); ("&gt;", '>'); ("&quot;", '"'); ("&apos;", '\'') ]

(* A quoted literal: a doubled quote stands for one quote and an entity
   reference for its character. In a direct attribute value ([~attr])
   braces are doubled too, since a single one opens an enclosed
   expression. *)
let read_quoted ?(attr = false) st =
  let quote = peek st in
  st.pos <- st.pos + 1;
  let buf = Buffer.create 16 in
  let rec go () =
    let c = peek st in
    if eof st then error st "unterminated string literal"
    else if c = quote && peek_at st 1 <> quote then st.pos <- st.pos + 1
    else if c = quote || (attr && (c = '{' || c = '}')) then begin
      if peek_at st 1 <> c then error st "unescaped %C in an attribute value" c;
      Buffer.add_char buf c;
      st.pos <- st.pos + 2;
      go ()
    end
    else if c = '&' then begin
      (match List.find_opt (fun (e, _) -> looking_at st e) entities with
       | Some (e, ch) ->
         Buffer.add_char buf ch;
         st.pos <- st.pos + String.length e
       | None -> error st "unknown entity reference");
      go ()
    end
    else begin
      Buffer.add_char buf c;
      st.pos <- st.pos + 1;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let read_string_literal st = read_quoted st

let read_number st =
  let start = st.pos in
  while (not (eof st)) && peek st >= '0' && peek st <= '9' do
    st.pos <- st.pos + 1
  done;
  if peek st = '.' && peek_at st 1 >= '0' && peek_at st 1 <= '9' then begin
    st.pos <- st.pos + 1;
    while (not (eof st)) && peek st >= '0' && peek st <= '9' do
      st.pos <- st.pos + 1
    done;
    Clip_xml.Atom.Float (float_of_string (String.sub st.src start (st.pos - start)))
  end
  else begin
    let digits = String.sub st.src start (st.pos - start) in
    match int_of_string_opt digits with
    | Some n -> Clip_xml.Atom.Int n
    | None -> error st "integer literal out of range: %s" digits
  end

(* ------------------------------------------------------------------ *)

let rec parse_expr st : Ast.expr =
  enter st;
  let e = parse_expr_guarded st in
  leave st;
  e

and parse_expr_guarded st : Ast.expr =
  skip_ws st;
  if looking_at_kw st "for" || looking_at_kw st "let" then parse_flwor st
  else if looking_at_kw st "if" then parse_if st
  else parse_or st

and parse_flwor st =
  let clauses = ref [] in
  let rec clause_loop () =
    skip_ws st;
    if looking_at_kw st "for" then begin
      eat_kw st "for";
      let rec vars () =
        skip_ws st;
        eat st "$";
        let name = read_name st in
        skip_ws st;
        eat_kw st "in";
        let e = parse_expr st in
        clauses := Ast.For (name, e) :: !clauses;
        skip_ws st;
        if peek st = ',' then begin
          st.pos <- st.pos + 1;
          vars ()
        end
      in
      vars ();
      clause_loop ()
    end
    else if looking_at_kw st "let" then begin
      eat_kw st "let";
      let rec vars () =
        skip_ws st;
        eat st "$";
        let name = read_name st in
        skip_ws st;
        eat st ":=";
        let e = parse_expr st in
        clauses := Ast.Let (name, e) :: !clauses;
        skip_ws st;
        if peek st = ',' then begin
          st.pos <- st.pos + 1;
          vars ()
        end
      in
      vars ();
      clause_loop ()
    end
  in
  clause_loop ();
  skip_ws st;
  let where =
    if looking_at_kw st "where" then begin
      eat_kw st "where";
      Some (parse_expr st)
    end
    else None
  in
  skip_ws st;
  eat_kw st "return";
  let return = parse_expr st in
  Ast.Flwor { clauses = List.rev !clauses; where; return }

and parse_if st =
  eat_kw st "if";
  skip_ws st;
  eat st "(";
  let c = parse_expr st in
  skip_ws st;
  eat st ")";
  skip_ws st;
  eat_kw st "then";
  let t = parse_expr st in
  skip_ws st;
  eat_kw st "else";
  let e = parse_expr st in
  Ast.If (c, t, e)

and parse_or st =
  let left = parse_and st in
  skip_ws st;
  if looking_at_kw st "or" then begin
    eat_kw st "or";
    Ast.Or (left, parse_or st)
  end
  else left

and parse_and st =
  let left = parse_cmp st in
  skip_ws st;
  if looking_at_kw st "and" then begin
    eat_kw st "and";
    Ast.And (left, parse_and st)
  end
  else left

and parse_cmp st =
  let left = parse_add st in
  skip_ws st;
  let op =
    if looking_at st "!=" then Some Ast.Ne
    else if looking_at st "<=" then Some Ast.Le
    else if looking_at st ">=" then Some Ast.Ge
    else if looking_at st "=" then Some Ast.Eq
    (* a bare [<] here is a comparison: constructors only open at
       expression-start positions, which parse_primary handles *)
    else if looking_at st "<" then Some Ast.Lt
    else if looking_at st ">" then Some Ast.Gt
    else None
  in
  match op with
  | None -> left
  | Some op ->
    (match op with
     | Ast.Ne | Ast.Le | Ast.Ge -> st.pos <- st.pos + 2
     | Ast.Eq | Ast.Lt | Ast.Gt -> st.pos <- st.pos + 1);
    Ast.Cmp (op, left, parse_add st)

(* Binary operators associate to the left, as in XQuery: [5 - 2 - 1]
   is [(5 - 2) - 1]. *)
and parse_add st =
  let rec more left =
    skip_ws st;
    if looking_at st "+" then begin
      st.pos <- st.pos + 1;
      more (Ast.Arith (Ast.Add, left, parse_mul st))
    end
    else if looking_at st "- " then begin
      st.pos <- st.pos + 1;
      more (Ast.Arith (Ast.Sub, left, parse_mul st))
    end
    else left
  in
  more (parse_mul st)

and parse_mul st =
  let rec more left =
    skip_ws st;
    if looking_at st "* " then begin
      st.pos <- st.pos + 1;
      more (Ast.Arith (Ast.Mul, left, parse_path st))
    end
    else if looking_at_kw st "div" then begin
      eat_kw st "div";
      more (Ast.Arith (Ast.Div, left, parse_path st))
    end
    else left
  in
  more (parse_path st)

and parse_path st =
  let base = parse_primary st in
  let steps = ref [] in
  let rec go () =
    if peek st = '/' && peek_at st 1 <> '/' then begin
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = '@' then begin
        st.pos <- st.pos + 1;
        steps := Ast.Attr_step (read_name st) :: !steps
      end
      else begin
        let name = read_name st in
        if String.equal name "text" then begin
          skip_ws st;
          eat st "()";
          steps := Ast.Text_step :: !steps
        end
        else steps := Ast.Child_step name :: !steps
      end;
      go ()
    end
  in
  go ();
  if !steps = [] then base else Ast.path base (List.rev !steps)

and parse_primary st =
  skip_ws st;
  let c = peek st in
  if c = '$' then begin
    st.pos <- st.pos + 1;
    Ast.Var (read_name st)
  end
  else if c = '"' || c = '\'' then Ast.Literal (Clip_xml.Atom.String (read_string_literal st))
  else if c >= '0' && c <= '9' then Ast.Literal (read_number st)
  else if c = '(' then begin
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = ')' then begin
      st.pos <- st.pos + 1;
      Ast.Seq []
    end
    else begin
      let first = parse_expr st in
      let items = ref [ first ] in
      skip_ws st;
      while peek st = ',' do
        st.pos <- st.pos + 1;
        items := parse_expr st :: !items;
        skip_ws st
      done;
      eat st ")";
      match !items with [ only ] -> only | items -> Ast.Seq (List.rev items)
    end
  end
  else if c = '<' && is_name_start (peek_at st 1) then parse_constructor st
  else if is_name_start c then begin
    let save = st.pos in
    let name = read_name st in
    skip_ws st;
    if peek st = '(' then begin
      (* function call *)
      st.pos <- st.pos + 1;
      skip_ws st;
      let args = ref [] in
      if peek st <> ')' then begin
        args := [ parse_expr st ];
        skip_ws st;
        while peek st = ',' do
          st.pos <- st.pos + 1;
          args := parse_expr st :: !args;
          skip_ws st
        done
      end;
      eat st ")";
      (match name with
       | "true" when !args = [] -> Ast.Literal (Clip_xml.Atom.Bool true)
       | "false" when !args = [] -> Ast.Literal (Clip_xml.Atom.Bool false)
       | name -> Ast.Call (name, List.rev !args))
    end
    else begin
      (* a bare name: the input document root *)
      st.pos <- save + String.length name;
      Ast.Doc name
    end
  end
  else error st "unexpected character %C" c

(* Direct element constructors, accepting both [attr={expr}] (the
   paper's notation) and [attr="literal"] / [attr="{expr}"]. *)
and parse_constructor st =
  enter st;
  let e = parse_constructor_guarded st in
  leave st;
  e

and parse_constructor_guarded st =
  eat st "<";
  let tag = read_name st in
  let attrs = ref [] in
  let rec attr_loop () =
    skip_ws st;
    if is_name_start (peek st) then begin
      let name = read_name st in
      skip_ws st;
      eat st "=";
      skip_ws st;
      let value =
        if peek st = '{' then begin
          st.pos <- st.pos + 1;
          let e = parse_expr st in
          skip_ws st;
          eat st "}";
          e
        end
        else if peek st = '"' || peek st = '\'' then begin
          let quote = peek st in
          (* peek inside: a braced template or a literal *)
          let save = st.pos in
          st.pos <- st.pos + 1;
          skip_ws st;
          if peek st = '{' && peek_at st 1 <> '{' then begin
            st.pos <- st.pos + 1;
            let e = parse_expr st in
            skip_ws st;
            eat st "}";
            skip_ws st;
            if peek st <> quote then error st "expected closing quote";
            st.pos <- st.pos + 1;
            e
          end
          else begin
            st.pos <- save;
            Ast.Literal (Clip_xml.Atom.String (read_quoted ~attr:true st))
          end
        end
        else error st "expected an attribute value"
      in
      attrs := (name, value) :: !attrs;
      attr_loop ()
    end
  in
  attr_loop ();
  skip_ws st;
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    Ast.Elem { tag; attrs = List.rev !attrs; content = [] }
  end
  else begin
    eat st ">";
    let content = ref [] in
    let buf = Buffer.create 16 in
    let flush_text () =
      let s = String.trim (Buffer.contents buf) in
      Buffer.clear buf;
      if s <> "" then content := Ast.Literal (Clip_xml.Atom.of_string s) :: !content
    in
    let rec content_loop () =
      if eof st then error st "unterminated element <%s>" tag
      else if looking_at st "</" then begin
        flush_text ();
        st.pos <- st.pos + 2;
        let closing = read_name st in
        skip_ws st;
        eat st ">";
        if not (String.equal closing tag) then
          error st "mismatched constructor: <%s> closed by </%s>" tag closing
      end
      else if peek st = '{' then begin
        flush_text ();
        st.pos <- st.pos + 1;
        let e = parse_expr st in
        skip_ws st;
        eat st "}";
        content := e :: !content;
        content_loop ()
      end
      else if peek st = '<' then begin
        flush_text ();
        content := parse_constructor st :: !content;
        content_loop ()
      end
      else begin
        Buffer.add_char buf (peek st);
        st.pos <- st.pos + 1;
        content_loop ()
      end
    in
    content_loop ();
    Ast.Elem { tag; attrs = List.rev !attrs; content = List.rev !content }
  end

let parse_string_result ?(limits = Clip_diag.Limits.default) s =
  Clip_diag.guard (fun () ->
    let st =
      { src = s;
        pos = 0;
        depth = 0;
        max_depth = limits.Clip_diag.Limits.max_parser_recursion }
    in
    if String.length s > limits.Clip_diag.Limits.max_input_bytes then
      error_code Clip_diag.Codes.limit_input_bytes st
        "input is %d bytes, which exceeds the limit of %d bytes"
        (String.length s) limits.Clip_diag.Limits.max_input_bytes;
    let e = parse_expr st in
    skip_ws st;
    if not (eof st) then error st "trailing input after the expression";
    e)

let parse_string ?limits s =
  match parse_string_result ?limits s with
  | Ok e -> e
  | Error ds ->
    let d = match ds with d :: _ -> d | [] -> assert false in
    let position =
      match d.Clip_diag.span with Some sp -> sp.Clip_diag.offset | None -> 0
    in
    raise (Parse_error { position; message = d.Clip_diag.message })

let parse_string_opt ?limits s =
  match parse_string_result ?limits s with Ok e -> Some e | Error _ -> None
