exception Syntax_error of { line : int; column : int; message : string }

let error_to_string = function
  | Syntax_error { line; column; message } ->
    Printf.sprintf "schema syntax error at line %d, column %d: %s" line column message
  | Lexer.Lex_error { line; column; message } ->
    Printf.sprintf "schema lexical error at line %d, column %d: %s" line column message
  | e -> Printexc.to_string e

type state = { mutable toks : Lexer.spanned list; mutable depth : int; max_depth : int }

let peek st =
  match st.toks with
  | t :: _ -> t
  | [] -> assert false (* the stream always ends with Eof *)

let next st =
  let t = peek st in
  (match t.token, st.toks with
   | Lexer.Eof, _ | _, [] -> ()
   | _, _ :: rest -> st.toks <- rest);
  t

let span_of_token (t : Lexer.spanned) =
  let width = max 1 (String.length (Lexer.token_to_string t.token)) in
  Clip_diag.span ~line:t.line ~col:t.column ~end_col:(t.column + width) ()

let fail_code code (t : Lexer.spanned) message =
  Clip_diag.fail (Clip_diag.error ~code ~span:(span_of_token t) message)

let fail t message = fail_code Clip_diag.Codes.schema_syntax t message

let enter st =
  st.depth <- st.depth + 1;
  if st.depth > st.max_depth then
    fail_code Clip_diag.Codes.limit_recursion (peek st)
      (Printf.sprintf "schema nesting exceeds the limit of %d" st.max_depth)

let leave st = st.depth <- st.depth - 1

(* Re-raise tokenizer diagnostics through the same channel. *)
let tokens_exn src =
  match Lexer.tokenize_result src with
  | Ok toks -> toks
  | Error ds -> Clip_diag.fail_all ds

let state_of ?(limits = Clip_diag.Limits.default) toks =
  { toks; depth = 0; max_depth = limits.Clip_diag.Limits.max_parser_recursion }

(* Raise the pre-diagnostics exceptions for the compatibility wrappers. *)
let raise_legacy (ds : Clip_diag.t list) =
  let d = List.hd ds in
  let line, column =
    match d.Clip_diag.span with
    | Some sp -> (sp.Clip_diag.line, sp.Clip_diag.col)
    | None -> (1, 1)
  in
  if String.equal d.Clip_diag.code Clip_diag.Codes.schema_lexical then
    raise (Lexer.Lex_error { line; column; message = d.Clip_diag.message })
  else raise (Syntax_error { line; column; message = d.Clip_diag.message })

let expect_sym st s =
  let t = next st in
  match t.token with
  | Lexer.Sym x when String.equal x s -> ()
  | tok -> fail t (Printf.sprintf "expected %S, found %s" s (Lexer.token_to_string tok))

let expect_ident st =
  let t = next st in
  match t.token with
  | Lexer.Ident s -> s
  | tok -> fail t (Printf.sprintf "expected an identifier, found %s" (Lexer.token_to_string tok))

let expect_keyword st kw =
  let t = next st in
  match t.token with
  | Lexer.Ident s when String.equal s kw -> ()
  | tok -> fail t (Printf.sprintf "expected %S, found %s" kw (Lexer.token_to_string tok))

let skip_semis st =
  let rec go () =
    match (peek st).token with
    | Lexer.Sym ";" ->
      ignore (next st);
      go ()
    | _ -> ()
  in
  go ()

let parse_type st =
  let t = next st in
  match t.token with
  | Lexer.Ident s ->
    (match Atomic_type.of_string s with
     | Some ty -> ty
     | None -> fail t (Printf.sprintf "unknown atomic type %S" s))
  | tok -> fail t (Printf.sprintf "expected a type, found %s" (Lexer.token_to_string tok))

let parse_card st =
  match (peek st).token with
  | Lexer.Sym "?" ->
    ignore (next st);
    Cardinality.optional
  | Lexer.Sym "*" ->
    ignore (next st);
    Cardinality.star
  | Lexer.Sym "+" ->
    ignore (next st);
    Cardinality.plus
  | Lexer.Sym "[" ->
    ignore (next st);
    let t = next st in
    let min =
      match t.token with
      | Lexer.Int_lit i -> i
      | tok -> fail t (Printf.sprintf "expected a minimum cardinality, found %s"
                         (Lexer.token_to_string tok))
    in
    expect_sym st "..";
    let t = next st in
    let max =
      match t.token with
      | Lexer.Int_lit i -> Cardinality.Bounded i
      | Lexer.Sym "*" -> Cardinality.Unbounded
      | tok -> fail t (Printf.sprintf "expected a maximum cardinality, found %s"
                         (Lexer.token_to_string tok))
    in
    expect_sym st "]";
    (match Cardinality.make min max with
     | card -> card
     | exception Invalid_argument _ ->
       fail t
         (Printf.sprintf "invalid cardinality [%d..%s]" min
            (match max with
             | Cardinality.Bounded m -> string_of_int m
             | Cardinality.Unbounded -> "*")))
  | _ -> Cardinality.required

(* A relative path written without the schema root: [dept.regEmp.@pid]. *)
let parse_rel_path st root_name =
  let rec go acc =
    match (peek st).token with
    | Lexer.Sym "@" ->
      ignore (next st);
      let name = expect_ident st in
      List.rev (Path.Attr name :: acc)
    | Lexer.Ident "value" ->
      ignore (next st);
      List.rev (Path.Value :: acc)
    | Lexer.Ident name ->
      ignore (next st);
      let acc = Path.Child name :: acc in
      (match (peek st).token with
       | Lexer.Sym "." ->
         ignore (next st);
         go acc
       | _ -> List.rev acc)
    | tok -> fail (peek st) (Printf.sprintf "expected a path step, found %s"
                               (Lexer.token_to_string tok))
  in
  Path.make root_name (go [])

type item =
  | I_attr of Schema.attribute
  | I_value of Atomic_type.t
  | I_child of Schema.element
  | I_ref of Schema.reference

let rec parse_items st root_name =
  skip_semis st;
  match (peek st).token with
  | Lexer.Sym "}" -> []
  | Lexer.Sym "@" ->
    ignore (next st);
    let name = expect_ident st in
    let required =
      match (peek st).token with
      | Lexer.Sym "?" ->
        ignore (next st);
        false
      | _ -> true
    in
    expect_sym st ":";
    let ty = parse_type st in
    I_attr (Schema.attribute ~required name ty) :: parse_items st root_name
  | Lexer.Ident "value" ->
    ignore (next st);
    expect_sym st ":";
    let ty = parse_type st in
    I_value ty :: parse_items st root_name
  | Lexer.Ident "ref" ->
    ignore (next st);
    let ref_from = parse_rel_path st root_name in
    expect_sym st "->";
    let ref_to = parse_rel_path st root_name in
    I_ref { Schema.ref_from; ref_to } :: parse_items st root_name
  | Lexer.Ident name ->
    ignore (next st);
    let child = parse_element_tail st root_name name in
    I_child child :: parse_items st root_name
  | tok ->
    fail (peek st)
      (Printf.sprintf "expected a schema item, found %s" (Lexer.token_to_string tok))

and parse_element_tail st root_name name =
  let card = parse_card st in
  let value =
    match (peek st).token with
    | Lexer.Sym ":" ->
      ignore (next st);
      Some (parse_type st)
    | _ -> None
  in
  let items =
    match (peek st).token with
    | Lexer.Sym "{" ->
      enter st;
      ignore (next st);
      let items = parse_items st root_name in
      expect_sym st "}";
      leave st;
      items
    | _ -> []
  in
  let attrs =
    List.filter_map (function I_attr a -> Some a | _ -> None) items
  in
  let inner_value =
    List.find_map (function I_value ty -> Some ty | _ -> None) items
  in
  let children =
    List.filter_map (function I_child c -> Some c | _ -> None) items
  in
  (match List.find_opt (function I_ref _ -> true | _ -> false) items with
   | Some _ ->
     fail (peek st) "ref declarations are only allowed at the top level of a schema"
   | None -> ());
  let value =
    match value, inner_value with
    | Some _, Some _ -> fail (peek st) (Printf.sprintf "element %s has two value declarations" name)
    | Some v, None | None, Some v -> Some v
    | None, None -> None
  in
  Schema.element ~card ~attrs ?value name children

let parse_schema st =
  expect_keyword st "schema";
  let name = expect_ident st in
  expect_sym st "{";
  let items = parse_items st name in
  expect_sym st "}";
  skip_semis st;
  let attrs = List.filter_map (function I_attr a -> Some a | _ -> None) items in
  let value = List.find_map (function I_value ty -> Some ty | _ -> None) items in
  let children = List.filter_map (function I_child c -> Some c | _ -> None) items in
  let refs = List.filter_map (function I_ref r -> Some r | _ -> None) items in
  match Schema.make ~refs (Schema.element ~attrs ?value name children) with
  | s -> s
  | exception Invalid_argument msg ->
    Clip_diag.fail (Clip_diag.error ~code:Clip_diag.Codes.schema_invalid msg)

let parse_tokens ?limits toks =
  let st = state_of ?limits toks in
  let s = parse_schema st in
  (s, st.toks)

let parse_result ?limits src =
  Clip_diag.guard (fun () ->
      let st = state_of ?limits (tokens_exn src) in
      let s = parse_schema st in
      (match (peek st).token with
       | Lexer.Eof -> ()
       | tok ->
         fail (peek st)
           (Printf.sprintf "trailing input after the schema: %s"
              (Lexer.token_to_string tok)));
      s)

let parse ?limits src =
  match parse_result ?limits src with Ok s -> s | Error ds -> raise_legacy ds

let to_string (s : Schema.t) =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let rec element ind (e : Schema.element) =
    let pad = String.make ind ' ' in
    let card =
      if Cardinality.equal e.card Cardinality.required then ""
      else " " ^ Cardinality.to_string e.card
    in
    let value =
      match e.value with
      | Some ty -> ": " ^ Atomic_type.to_string ty
      | None -> ""
    in
    match e.attrs, e.children with
    | [], [] -> add "%s%s%s%s\n" pad e.name card value
    | _ ->
      add "%s%s%s%s {\n" pad e.name card value;
      List.iter
        (fun (a : Schema.attribute) ->
          add "%s  @%s%s: %s\n" pad a.attr_name
            (if a.attr_required then "" else " ?")
            (Atomic_type.to_string a.attr_type))
        e.attrs;
      List.iter (element (ind + 2)) e.children;
      add "%s}\n" pad
  in
  add "schema %s {\n" s.root.name;
  List.iter
    (fun (a : Schema.attribute) ->
      add "  @%s%s: %s\n" a.attr_name
        (if a.attr_required then "" else " ?")
        (Atomic_type.to_string a.attr_type))
    s.root.attrs;
  (match s.root.value with
   | Some ty -> add "  value: %s\n" (Atomic_type.to_string ty)
   | None -> ());
  List.iter (element 2) s.root.children;
  let rel p =
    match Path.strip_prefix ~prefix:(Path.root s.root.name) p with
    | Some steps -> String.concat "." (List.map Path.step_to_string steps)
    | None -> Path.to_string p
  in
  List.iter
    (fun (r : Schema.reference) -> add "  ref %s -> %s\n" (rel r.ref_from) (rel r.ref_to))
    s.refs;
  add "}\n";
  Buffer.contents buf

let parse_many_result ?limits src =
  Clip_diag.guard (fun () ->
      let st = state_of ?limits (tokens_exn src) in
      let rec go acc =
        skip_semis st;
        match (peek st).token with
        | Lexer.Eof -> List.rev acc
        | _ -> go (parse_schema st :: acc)
      in
      go [])

let parse_many ?limits src =
  match parse_many_result ?limits src with Ok s -> s | Error ds -> raise_legacy ds
