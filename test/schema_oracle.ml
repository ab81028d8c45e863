(* The reference definitions of the compile front end's hot kernels:
   the DSL tokenizer, the schema-path operations and the schema
   queries, as list-based code that resolves every prefix from the
   root. They share no code with [Clip_schema.Lexer], [Path] or
   [Schema] beyond the types, and are kept here as the differential
   oracle for them: test/test_front.ml requires answer-for-answer
   agreement (spans included for the tokenizer). Clarity over speed. *)

open Clip_schema

(* --- Paths --------------------------------------------------------------- *)

module Path_ref = struct
  open Path

  let ends_on_leaf p =
    match List.rev p.steps with
    | (Attr _ | Value) :: _ -> true
    | Child _ :: _ | [] -> false

  let extend p step =
    if ends_on_leaf p then
      invalid_arg "Path: cannot extend a path past an attribute or value step";
    { p with steps = p.steps @ [ step ] }

  let parent p =
    match p.steps with
    | [] -> None
    | _ ->
      let steps = List.filteri (fun i _ -> i < List.length p.steps - 1) p.steps in
      Some { p with steps }

  let last_step p = match List.rev p.steps with [] -> None | s :: _ -> Some s

  let element_of p =
    if ends_on_leaf p then
      match parent p with Some q -> q | None -> assert false
    else p

  let element_prefixes p =
    let e = element_of p in
    let rec go acc steps =
      match steps with
      | [] -> List.rev acc
      | s :: rest ->
        let prev = match acc with q :: _ -> q | [] -> assert false in
        go ({ prev with steps = prev.steps @ [ s ] } :: acc) rest
    in
    go [ { e with steps = [] } ] e.steps

  let rec steps_prefix a b =
    match a, b with
    | [], _ -> true
    | _, [] -> false
    | x :: a, y :: b -> x = y && steps_prefix a b

  let is_prefix a b = String.equal a.root b.root && steps_prefix a.steps b.steps

  let strip_prefix ~prefix p =
    if not (String.equal prefix.root p.root) then None
    else
      let rec go pre steps =
        match pre, steps with
        | [], rest -> Some rest
        | x :: pre, y :: steps when x = y -> go pre steps
        | _ :: _, _ -> None
      in
      go prefix.steps p.steps

  let append p steps = List.fold_left extend p steps
  let equal a b = String.equal a.root b.root && a.steps = b.steps

  let compare a b =
    let r = String.compare a.root b.root in
    if r <> 0 then r else Stdlib.compare a.steps b.steps
end

(* --- Schema queries ------------------------------------------------------ *)

module Schema_ref = struct
  open Schema

  let find t (p : Path.t) =
    if not (String.equal p.root t.root.name) then None
    else
      let rec go e = function
        | [] -> Some (Element_ref e)
        | Path.Child n :: rest ->
          (match List.find_opt (fun c -> String.equal c.name n) e.children with
           | Some c -> go c rest
           | None -> None)
        | [ Path.Attr n ] ->
          (match List.find_opt (fun a -> String.equal a.attr_name n) e.attrs with
           | Some a -> Some (Attr_ref (e, a))
           | None -> None)
        | [ Path.Value ] ->
          (match e.value with Some ty -> Some (Value_ref (e, ty)) | None -> None)
        | (Path.Attr _ | Path.Value) :: _ :: _ -> None
      in
      go t.root p.steps

  let find_element t p =
    match find t p with
    | Some (Element_ref e) -> Some e
    | Some (Attr_ref _ | Value_ref _) | None -> None

  let is_repeating t p =
    match find_element t p with
    | Some e -> p.Path.steps <> [] && Cardinality.is_repeating e.card
    | None -> false

  let repeating_ancestors t p =
    List.filter (is_repeating t) (Path_ref.element_prefixes p)

  let repeating_strictly_between t ~above ~below =
    let above_chain = Path_ref.element_prefixes above in
    let on_above q = List.exists (Path_ref.equal q) above_chain in
    List.filter (fun q -> not (on_above q)) (repeating_ancestors t below)

  let reference_between t a b =
    let under ctx leaf = Path_ref.is_prefix ctx (Path_ref.element_of leaf) in
    List.find_opt
      (fun r ->
        (under a r.ref_from && under b r.ref_to)
        || (under b r.ref_from && under a r.ref_to))
      t.refs
end

(* --- Tokenizer ----------------------------------------------------------- *)

(* The tokenizer before the table-driven rewrite. Its string escapes
   differ on purpose: it reads [\\n] and [\\t] and drops the backslash
   of any other escape, where the rewrite reads exactly what
   [String.escaped] writes and rejects the rest. *)

(* Multi-character symbols, longest first. *)
let symbols2 = [ "->"; ".."; "<="; ">="; "<>"; "!="; "==" ]
let symbols1 = "{}[]()<>=*?+@.:,;$|/-"

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize_result src =
  let n = String.length src in
  let line = ref 1 and bol = ref 0 in
  let tokens = ref [] in
  let error pos message =
    Clip_diag.fail
      (Clip_diag.error ~code:Clip_diag.Codes.schema_lexical
         ~span:(Clip_diag.span ~offset:pos ~line:!line ~col:(pos - !bol + 1) ())
         message)
  in
  Clip_diag.guard @@ fun () ->
  let emit pos token =
    tokens := { Lexer.token; line = !line; column = pos - !bol + 1 } :: !tokens
  in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' then
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if is_ident_start c then begin
      let start = !i in
      let continue = ref true in
      while !continue && !i < n do
        let c = src.[!i] in
        if is_ident_char c then incr i
        else if c = '-' && !i + 1 < n && is_ident_char src.[!i + 1] then incr i
        else continue := false
      done;
      emit start (Lexer.Ident (String.sub src start (!i - start)))
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      (* A fractional part — but not the ".." range symbol. *)
      if !i + 1 < n && src.[!i] = '.' && is_digit src.[!i + 1] then begin
        incr i;
        while !i < n && is_digit src.[!i] do
          incr i
        done;
        match float_of_string_opt (String.sub src start (!i - start)) with
        | Some f -> emit start (Lexer.Float_lit f)
        | None -> error start "malformed number literal"
      end
      else
        match int_of_string_opt (String.sub src start (!i - start)) with
        | Some v -> emit start (Lexer.Int_lit v)
        | None -> error start "integer literal out of range"
    end
    else if c = '"' then begin
      let start = !i in
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !i < n do
        let c = src.[!i] in
        if c = '"' then begin
          closed := true;
          incr i
        end
        else if c = '\\' && !i + 1 < n then begin
          (match src.[!i + 1] with
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | c -> Buffer.add_char buf c);
          i := !i + 2
        end
        else begin
          Buffer.add_char buf c;
          incr i
        end
      done;
      if not !closed then error start "unterminated string literal";
      emit start (Lexer.String_lit (Buffer.contents buf))
    end
    else begin
      let two = if !i + 2 <= n then String.sub src !i 2 else "" in
      if List.mem two symbols2 then begin
        emit !i (Lexer.Sym two);
        i := !i + 2
      end
      else if String.contains symbols1 c then begin
        emit !i (Lexer.Sym (String.make 1 c));
        incr i
      end
      else error !i (Printf.sprintf "unexpected character %C" c)
    end
  done;
  emit n Lexer.Eof;
  List.rev !tokens
