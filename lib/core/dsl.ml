module Lexer = Clip_schema.Lexer
module Sdsl = Clip_schema.Dsl
module Path = Clip_schema.Path
module Tgd = Clip_tgd.Tgd

exception Syntax_error of { line : int; column : int; message : string }

let error_to_string = function
  | Syntax_error { line; column; message } ->
    Printf.sprintf "mapping syntax error at line %d, column %d: %s" line column message
  | e -> Sdsl.error_to_string e

type state = { mutable toks : Lexer.spanned list; mutable depth : int; max_depth : int }

let peek st =
  match st.toks with
  | t :: _ -> t
  | [] -> assert false

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

let fail t message = fail_code Clip_diag.Codes.mapping_syntax t message

let enter st =
  st.depth <- st.depth + 1;
  if st.depth > st.max_depth then
    fail_code Clip_diag.Codes.limit_recursion (peek st)
      (Printf.sprintf "mapping nesting exceeds the limit of %d" st.max_depth)

let leave st = st.depth <- st.depth - 1

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
  let message = d.Clip_diag.message in
  if String.equal d.Clip_diag.code Clip_diag.Codes.schema_lexical then
    raise (Lexer.Lex_error { line; column; message })
  else if
    String.equal d.Clip_diag.code Clip_diag.Codes.schema_syntax
    || String.equal d.Clip_diag.code Clip_diag.Codes.schema_invalid
  then raise (Sdsl.Syntax_error { line; column; message })
  else raise (Syntax_error { line; column; message })

let expect_sym st s =
  let t = next st in
  match t.token with
  | Lexer.Sym x when String.equal x s -> ()
  | tok -> fail t (Printf.sprintf "expected %S, found %s" s (Lexer.token_to_string tok))

let expect_ident st =
  let t = next st in
  match t.token with
  | Lexer.Ident s -> s
  | tok ->
    fail t (Printf.sprintf "expected an identifier, found %s" (Lexer.token_to_string tok))

let rec skip_semis st =
  match (peek st).token with
  | Lexer.Sym ";" ->
    ignore (next st);
    skip_semis st
  | _ -> ()

(* An absolute path: root.step.step... *)
let parse_path st =
  let t = peek st in
  let root = expect_ident st in
  let rec go acc =
    match (peek st).token with
    | Lexer.Sym "." ->
      ignore (next st);
      (match (peek st).token with
       | Lexer.Sym "@" ->
         ignore (next st);
         let name = expect_ident st in
         List.rev (Path.Attr name :: acc)
       | Lexer.Ident "value" ->
         ignore (next st);
         List.rev (Path.Value :: acc)
       | Lexer.Ident name ->
         ignore (next st);
         go (Path.Child name :: acc)
       | tok ->
         fail (peek st)
           (Printf.sprintf "expected a path step, found %s" (Lexer.token_to_string tok)))
    | _ -> List.rev acc
  in
  let steps = go [] in
  ignore t;
  Path.make root steps

(* Relative steps after a variable: $v.a.@b *)
let parse_var_steps st =
  expect_sym st "$";
  let var = expect_ident st in
  let rec go acc =
    match (peek st).token with
    | Lexer.Sym "." ->
      ignore (next st);
      (match (peek st).token with
       | Lexer.Sym "@" ->
         ignore (next st);
         let name = expect_ident st in
         List.rev (Path.Attr name :: acc)
       | Lexer.Ident "value" ->
         ignore (next st);
         List.rev (Path.Value :: acc)
       | Lexer.Ident name ->
         ignore (next st);
         go (Path.Child name :: acc)
       | tok ->
         fail (peek st)
           (Printf.sprintf "expected a path step, found %s" (Lexer.token_to_string tok)))
    | _ -> List.rev acc
  in
  (var, go [])

let parse_operand st =
  match (peek st).token with
  | Lexer.Sym "$" ->
    let var, steps = parse_var_steps st in
    Mapping.O_path (var, steps)
  | Lexer.Int_lit i ->
    ignore (next st);
    Mapping.O_const (Clip_xml.Atom.Int i)
  | Lexer.Float_lit f ->
    ignore (next st);
    Mapping.O_const (Clip_xml.Atom.Float f)
  | Lexer.String_lit s ->
    ignore (next st);
    Mapping.O_const (Clip_xml.Atom.String s)
  | Lexer.Ident ("true" | "false") ->
    let t = next st in
    (match t.token with
     | Lexer.Ident b -> Mapping.O_const (Clip_xml.Atom.Bool (bool_of_string b))
     | _ -> assert false)
  | tok ->
    fail (peek st)
      (Printf.sprintf "expected $var.path or a literal, found %s"
         (Lexer.token_to_string tok))

let parse_cmp_op st =
  let t = next st in
  match t.token with
  | Lexer.Sym "=" | Lexer.Sym "==" -> Tgd.Eq
  | Lexer.Sym "<>" | Lexer.Sym "!=" -> Tgd.Ne
  | Lexer.Sym "<" -> Tgd.Lt
  | Lexer.Sym "<=" -> Tgd.Le
  | Lexer.Sym ">" -> Tgd.Gt
  | Lexer.Sym ">=" -> Tgd.Ge
  | Lexer.Ident "in" -> Tgd.In
  | tok ->
    fail t (Printf.sprintf "expected a comparison operator, found %s"
              (Lexer.token_to_string tok))

let parse_predicates st =
  let rec go acc =
    let left = parse_operand st in
    let op = parse_cmp_op st in
    let right = parse_operand st in
    let acc = { Mapping.p_left = left; p_op = op; p_right = right } :: acc in
    match (peek st).token with
    | Lexer.Sym "," ->
      ignore (next st);
      go acc
    | _ -> List.rev acc
  in
  go []

let parse_inputs st =
  let rec go acc =
    let path = parse_path st in
    let var =
      match (peek st).token with
      | Lexer.Ident "as" ->
        ignore (next st);
        expect_sym st "$";
        Some (expect_ident st)
      | _ -> None
    in
    let acc = { Mapping.in_source = path; in_var = var } :: acc in
    match (peek st).token with
    | Lexer.Sym "," ->
      ignore (next st);
      go acc
    | _ -> List.rev acc
  in
  go []

let parse_group_keys st =
  let rec go acc =
    let var, steps = parse_var_steps st in
    let acc = (var, steps) :: acc in
    match (peek st).token with
    | Lexer.Sym "," ->
      ignore (next st);
      go acc
    | _ -> List.rev acc
  in
  go []

let agg_of_ident = Tgd.agg_kind_of_string

let rec parse_nodes st =
  skip_semis st;
  match (peek st).token with
  | Lexer.Ident (("node" | "group") as kw) ->
    ignore (next st);
    let is_group = String.equal kw "group" in
    (* optional label *)
    let id =
      match st.toks with
      | { token = Lexer.Ident id; _ } :: { token = Lexer.Sym ":"; _ } :: _ ->
        ignore (next st);
        ignore (next st);
        Some id
      | _ -> None
    in
    let inputs = parse_inputs st in
    let group_by =
      match (peek st).token with
      | Lexer.Ident "by" ->
        ignore (next st);
        parse_group_keys st
      | _ -> []
    in
    (match group_by with
     | [] when is_group -> fail (peek st) "a group node needs a 'by' clause"
     | _ -> ());
    let output =
      match (peek st).token with
      | Lexer.Sym "->" ->
        ignore (next st);
        Some (parse_path st)
      | _ -> None
    in
    let cond =
      match (peek st).token with
      | Lexer.Ident "where" ->
        ignore (next st);
        parse_predicates st
      | _ -> []
    in
    let children =
      match (peek st).token with
      | Lexer.Sym "{" ->
        enter st;
        ignore (next st);
        let children = parse_nodes st in
        expect_sym st "}";
        leave st;
        children
      | _ -> []
    in
    let node = Mapping.node ?id ?output ~cond ~group_by ~children inputs in
    node :: parse_nodes st
  | _ -> []

type mitem = M_node of Mapping.build_node | M_value of Mapping.value_mapping

let rec parse_mitems st =
  skip_semis st;
  match (peek st).token with
  | Lexer.Sym "}" -> []
  | Lexer.Ident ("node" | "group") ->
    let nodes = parse_nodes st in
    List.map (fun n -> M_node n) nodes @ parse_mitems st
  | Lexer.Ident "value" ->
    ignore (next st);
    let vm = parse_value_tail st in
    M_value vm :: parse_mitems st
  | tok ->
    fail (peek st)
      (Printf.sprintf "expected 'node', 'group' or 'value', found %s"
         (Lexer.token_to_string tok))

and parse_value_tail st =
  let fn, sources =
    match (peek st).token with
    | Lexer.Sym "<" ->
      (* <<agg>> path *)
      expect_sym st "<";
      expect_sym st "<";
      let name = expect_ident st in
      let kind =
        match agg_of_ident name with
        | Some k -> k
        | None -> fail (peek st) (Printf.sprintf "unknown aggregate %S" name)
      in
      expect_sym st ">";
      expect_sym st ">";
      let src = parse_path st in
      (Mapping.Aggregate kind, [ src ])
    | Lexer.Int_lit i ->
      ignore (next st);
      (Mapping.Constant (Clip_xml.Atom.Int i), [])
    | Lexer.Float_lit f ->
      ignore (next st);
      (Mapping.Constant (Clip_xml.Atom.Float f), [])
    | Lexer.String_lit s ->
      ignore (next st);
      (Mapping.Constant (Clip_xml.Atom.String s), [])
    | Lexer.Ident name when (match st.toks with
                             | _ :: { token = Lexer.Sym "("; _ } :: _ -> true
                             | _ -> false) ->
      (* scalar function application *)
      ignore (next st);
      expect_sym st "(";
      let rec args acc =
        let p = parse_path st in
        match (peek st).token with
        | Lexer.Sym "," ->
          ignore (next st);
          args (p :: acc)
        | _ -> List.rev (p :: acc)
      in
      let sources = args [] in
      expect_sym st ")";
      (Mapping.Scalar name, sources)
    | _ ->
      let src = parse_path st in
      (Mapping.Identity, [ src ])
  in
  expect_sym st "->";
  let target = parse_path st in
  Mapping.value ~fn sources target

let parse_mapping_block st ~source ~target =
  let t = next st in
  (match t.token with
   | Lexer.Ident "mapping" -> ()
   | tok ->
     fail t (Printf.sprintf "expected 'mapping', found %s" (Lexer.token_to_string tok)));
  expect_sym st "{";
  let items = parse_mitems st in
  expect_sym st "}";
  let roots = List.filter_map (function M_node n -> Some n | M_value _ -> None) items in
  let values =
    List.filter_map (function M_value v -> Some v | M_node _ -> None) items
  in
  Mapping.make ~source ~target ~roots values

let tokens_exn src =
  match Lexer.tokenize_result src with
  | Ok toks -> toks
  | Error ds -> Clip_diag.fail_all ds

let parse_result ?limits src =
  Clip_diag.guard (fun () ->
      let toks = tokens_exn src in
      let source, toks = Sdsl.parse_tokens ?limits toks in
      let target, toks = Sdsl.parse_tokens ?limits toks in
      let st = state_of ?limits toks in
      let m = parse_mapping_block st ~source ~target in
      skip_semis st;
      (match (peek st).token with
       | Lexer.Eof -> ()
       | tok ->
         fail (peek st)
           (Printf.sprintf "trailing input after the mapping: %s"
              (Lexer.token_to_string tok)));
      m)

let parse ?limits src =
  match parse_result ?limits src with Ok m -> m | Error ds -> raise_legacy ds

let parse_mapping_result ?limits ~source ~target src =
  Clip_diag.guard (fun () ->
      let st = state_of ?limits (tokens_exn src) in
      let m = parse_mapping_block st ~source ~target in
      (match (peek st).token with
       | Lexer.Eof -> ()
       | tok ->
         fail (peek st)
           (Printf.sprintf "trailing input after the mapping: %s"
              (Lexer.token_to_string tok)));
      m)

let parse_mapping ?limits ~source ~target src =
  match parse_mapping_result ?limits ~source ~target src with
  | Ok m -> m
  | Error ds -> raise_legacy ds

(* --- Rendering ----------------------------------------------------------- *)

let atom_literal (a : Clip_xml.Atom.t) =
  match a with
  | Clip_xml.Atom.String s -> Printf.sprintf "%S" s
  | a -> Clip_xml.Atom.to_string a

let operand_to_string = function
  | Mapping.O_path (v, steps) ->
    String.concat "." (("$" ^ v) :: List.map Path.step_to_string steps)
  | Mapping.O_const a -> atom_literal a

let to_string (m : Mapping.t) =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Buffer.add_string buf (Sdsl.to_string m.source);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Sdsl.to_string m.target);
  Buffer.add_string buf "\nmapping {\n";
  let rec node ind (n : Mapping.build_node) =
    let pad = String.make ind ' ' in
    let kw = match n.bn_group_by with [] -> "node" | _ :: _ -> "group" in
    let inputs =
      String.concat ", "
        (List.map
           (fun (i : Mapping.input) ->
             Path.to_string i.in_source
             ^ match i.in_var with Some v -> " as $" ^ v | None -> "")
           n.bn_inputs)
    in
    let by =
      match n.bn_group_by with
      | [] -> ""
      | keys ->
        " by "
        ^ String.concat ", "
            (List.map
               (fun (v, steps) ->
                 String.concat "." (("$" ^ v) :: List.map Path.step_to_string steps))
               keys)
    in
    let out =
      match n.bn_output with
      | Some p -> " -> " ^ Path.to_string p
      | None -> ""
    in
    let where =
      match n.bn_cond with
      | [] -> ""
      | ps ->
        " where "
        ^ String.concat ", "
            (List.map
               (fun (p : Mapping.predicate) ->
                 Printf.sprintf "%s %s %s" (operand_to_string p.p_left)
                   (Tgd.cmp_op_to_string p.p_op)
                   (operand_to_string p.p_right))
               ps)
    in
    add "%s%s %s: %s%s%s%s" pad kw n.bn_id inputs by out where;
    match n.bn_children with
    | [] -> add "\n"
    | children ->
      add " {\n";
      List.iter (node (ind + 2)) children;
      add "%s}\n" pad
  in
  List.iter (node 2) m.roots;
  List.iter
    (fun (vm : Mapping.value_mapping) ->
      let src =
        match vm.vm_fn, vm.vm_sources with
        | Mapping.Identity, [ p ] -> Path.to_string p
        | Mapping.Constant a, [] -> atom_literal a
        | Mapping.Scalar name, ps ->
          Printf.sprintf "%s(%s)" name (String.concat ", " (List.map Path.to_string ps))
        | Mapping.Aggregate kind, [ p ] ->
          Printf.sprintf "<<%s>> %s" (Tgd.agg_kind_to_string kind) (Path.to_string p)
        | _ -> "<malformed>"
      in
      add "  value %s -> %s\n" src (Path.to_string vm.vm_target))
    m.values;
  add "}\n";
  Buffer.contents buf
