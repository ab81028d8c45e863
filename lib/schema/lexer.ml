type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Sym of string
  | Eof

type spanned = { token : token; line : int; column : int }

exception Lex_error of { line : int; column : int; message : string }

let token_to_string = function
  | Ident s -> s
  | Int_lit i -> string_of_int i
  | Float_lit f -> string_of_float f
  | String_lit s -> Printf.sprintf "%S" s
  | Sym s -> s
  | Eof -> "<eof>"

(* Character classes, one byte per character code, so each step of the
   lexer dispatches on one table load. *)
let c_other = '\000'
let c_ident = 'i' (* [A-Za-z_]: starts an identifier *)
let c_digit = 'd'
let c_blank = 'b' (* space, tab, carriage return *)
let c_symbol = 's' (* a one-character symbol *)

let symbols1 = "{}[]()<>=*?+@.:,;$|/-"

let classes =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> c_ident
      | '0' .. '9' -> c_digit
      | ' ' | '\t' | '\r' -> c_blank
      | c when String.contains symbols1 c -> c_symbol
      | _ -> c_other)

let class_of c = String.unsafe_get classes (Char.code c)
let is_ident_char c =
  let k = class_of c in
  k == c_ident || k == c_digit

(* One shared token per symbol: the lexer allocates no symbol string.
   [Eof] marks the characters that are not one-character symbols. *)
let sym1 =
  Array.init 256 (fun i ->
      let c = Char.chr i in
      if String.contains symbols1 c then Sym (String.make 1 c) else Eof)

(* The two-character symbols ([->], [..], [<=], [>=], [<>], [!=],
   [==]), which take precedence over their first character; [Eof] when
   [c d] is none of them. *)
let sym_arrow = Sym "->"
let sym_range = Sym ".."
let sym_le = Sym "<="
let sym_ge = Sym ">="
let sym_ne = Sym "<>"
let sym_bang_eq = Sym "!="
let sym_eq_eq = Sym "=="

let sym2 c d =
  match c, d with
  | '-', '>' -> sym_arrow
  | '.', '.' -> sym_range
  | '<', '=' -> sym_le
  | '>', '=' -> sym_ge
  | '<', '>' -> sym_ne
  | '!', '=' -> sym_bang_eq
  | '=', '=' -> sym_eq_eq
  | _ -> Eof

(* A run of at most 18 decimal digits is below [max_int] (about
   4.6e18), so it is read without an overflow check. *)
let max_safe_digits = 18

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
    tokens := { token; line = !line; column = pos - !bol + 1 } :: !tokens
  in
  let is_digit_at j = j < n && class_of src.[j] == c_digit in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let k = class_of c in
    if k == c_blank then incr i
    else if k == c_ident then begin
      let start = !i in
      let continue = ref true in
      while !continue && !i < n do
        let c = src.[!i] in
        if is_ident_char c then incr i
        else if c = '-' && !i + 1 < n && is_ident_char src.[!i + 1] then incr i
        else continue := false
      done;
      emit start (Ident (String.sub src start (!i - start)))
    end
    else if k == c_symbol || c = '!' then begin
      let two = if !i + 1 < n then sym2 c src.[!i + 1] else Eof in
      match two with
      | Eof ->
        (match sym1.(Char.code c) with
         | Eof -> error !i (Printf.sprintf "unexpected character %C" c)
         | tok ->
           emit !i tok;
           incr i)
      | tok ->
        emit !i tok;
        i := !i + 2
    end
    else if k == c_digit then begin
      let start = !i in
      while is_digit_at !i do
        incr i
      done;
      (* A fractional part — but not the ".." range symbol. *)
      if !i < n && src.[!i] = '.' && is_digit_at (!i + 1) then begin
        incr i;
        while is_digit_at !i do
          incr i
        done;
        match float_of_string_opt (String.sub src start (!i - start)) with
        | Some f -> emit start (Float_lit f)
        | None -> error start "malformed number literal"
      end
      else if !i - start <= max_safe_digits then begin
        let v = ref 0 in
        for j = start to !i - 1 do
          v := (!v * 10) + (Char.code src.[j] - Char.code '0')
        done;
        emit start (Int_lit !v)
      end
      else
        match int_of_string_opt (String.sub src start (!i - start)) with
        | Some v -> emit start (Int_lit v)
        | None -> error start "integer literal out of range"
    end
    else if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = '#' then
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if c = '"' then begin
      (* The literal reports the position of its opening quote; a raw
         newline inside it still moves [line] and [bol] for the tokens
         that follow. *)
      let start = !i and start_line = !line and start_bol = !bol in
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
          (* Exactly the escapes [String.escaped] writes, so a string
             printed with [%S] reads back unchanged. *)
          let width =
            match src.[!i + 1] with
            | 'n' -> Buffer.add_char buf '\n'; 2
            | 't' -> Buffer.add_char buf '\t'; 2
            | 'r' -> Buffer.add_char buf '\r'; 2
            | 'b' -> Buffer.add_char buf '\b'; 2
            | ('\\' | '"') as e -> Buffer.add_char buf e; 2
            | '0' .. '9' when is_digit_at (!i + 2) && is_digit_at (!i + 3) ->
              let digit j = Char.code src.[!i + j] - Char.code '0' in
              let code = (100 * digit 1) + (10 * digit 2) + digit 3 in
              if code > 255 then
                error !i
                  (Printf.sprintf "invalid escape in string literal: \\%d is above 255"
                     code);
              Buffer.add_char buf (Char.chr code);
              4
            | e ->
              error !i
                (Printf.sprintf "invalid escape in string literal: \\ followed by %C" e)
          in
          i := !i + width
        end
        else begin
          if c = '\n' then begin incr line; bol := !i + 1 end;
          Buffer.add_char buf c;
          incr i
        end
      done;
      if not !closed then begin
        line := start_line;
        bol := start_bol;
        error start "unterminated string literal"
      end;
      tokens :=
        { token = String_lit (Buffer.contents buf); line = start_line;
          column = start - start_bol + 1 }
        :: !tokens
    end
    else error !i (Printf.sprintf "unexpected character %C" c)
  done;
  emit n Eof;
  List.rev !tokens

let tokenize src =
  match tokenize_result src with
  | Ok toks -> toks
  | Error ds ->
    let d = List.hd ds in
    let line, column =
      match d.Clip_diag.span with
      | Some sp -> (sp.Clip_diag.line, sp.Clip_diag.col)
      | None -> (1, 1)
    in
    raise (Lex_error { line; column; message = d.Clip_diag.message })
