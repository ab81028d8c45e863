(* The reference XML parser: a plain recursive descent over one
   resident string, stepping one byte at a time. It shares no code with
   the lexer in [Clip_xml.Stream] (which [Clip_xml.Parser] wraps) and
   is kept here as the differential oracle for it: test/test_stream.ml
   and the xml fuzz target require document-for-document and
   diagnostic-for-diagnostic (spans included) agreement. Clarity over
   speed. *)

open Clip_xml

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of the beginning of the current line *)
  mutable depth : int; (* current element-nesting depth *)
  limits : Clip_diag.Limits.t;
}

let here st =
  Clip_diag.span ~offset:st.pos ~line:st.line ~col:(st.pos - st.bol + 1) ()

let error_at ?(code = Clip_diag.Codes.xml_syntax) ?hints st message =
  Clip_diag.fail (Clip_diag.error ~span:(here st) ?hints ~code message)

let error st message = error_at st message

let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]

let advance st =
  if not (eof st) then begin
    if peek st = '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
    end;
    st.pos <- st.pos + 1
  end

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_spaces st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let expect st s =
  if looking_at st s then
    for _ = 1 to String.length s do
      advance st
    done
  else error st (Printf.sprintf "expected %S" s)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name st =
  if not (is_name_start (peek st)) then error st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let is_decimal c = c >= '0' && c <= '9'
let is_hex c = is_decimal c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* [ent] is ["#..."]. XML spells a character reference only as [#]
   then decimal digits or [#x] then hexadecimal digits; the digits are
   checked before [int_of_string_opt] sees them, since it also reads
   OCaml's signs, radix prefixes and [_] separators. *)
let char_ref ent =
  let n = String.length ent in
  let prefix, digits, ok =
    if ent.[1] = 'x' then ("0x", String.sub ent 2 (n - 2), is_hex)
    else ("", String.sub ent 1 (n - 1), is_decimal)
  in
  if digits = "" || not (String.for_all ok digits) then None
  else int_of_string_opt (prefix ^ digits)

let decode_entities st s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '&' then begin
      match String.index_from_opt s !i ';' with
      | None -> error st "unterminated entity reference"
      | Some j ->
        let ent = String.sub s (!i + 1) (j - !i - 1) in
        let repl =
          match ent with
          | "lt" -> "<"
          | "gt" -> ">"
          | "amp" -> "&"
          | "quot" -> "\""
          | "apos" -> "'"
          | _ ->
            if String.length ent > 1 && ent.[0] = '#' then
              match char_ref ent with
              | Some c when c < 128 -> String.make 1 (Char.chr c)
              | Some _ | None -> error st ("unsupported character reference &" ^ ent ^ ";")
            else error st ("unknown entity &" ^ ent ^ ";")
        in
        Buffer.add_string buf repl;
        i := j + 1
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let parse_quoted st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then error st "expected a quoted value";
  advance st;
  let start = st.pos in
  while (not (eof st)) && peek st <> quote do
    advance st
  done;
  if eof st then error st "unterminated attribute value";
  let raw = String.sub st.src start (st.pos - start) in
  advance st;
  decode_entities st raw

let skip_comment st =
  expect st "<!--";
  let rec loop () =
    if eof st then error st "unterminated comment"
    else if looking_at st "-->" then expect st "-->"
    else begin
      advance st;
      loop ()
    end
  in
  loop ()

let rec skip_misc st =
  skip_spaces st;
  if looking_at st "<!--" then begin
    skip_comment st;
    skip_misc st
  end
  else if looking_at st "<!DOCTYPE" then begin
    (* skip to the matching '>' (internal subsets in brackets included) *)
    let depth = ref 0 in
    let rec loop () =
      if eof st then error st "unterminated DOCTYPE"
      else begin
        (match peek st with
         | '[' -> incr depth
         | ']' -> decr depth
         | '>' when !depth = 0 ->
           advance st;
           raise Exit
         | _ -> ());
        advance st;
        loop ()
      end
    in
    (try loop () with Exit -> ());
    skip_misc st
  end
  else if looking_at st "<?" then begin
    let rec loop () =
      if eof st then error st "unterminated processing instruction"
      else if looking_at st "?>" then expect st "?>"
      else begin
        advance st;
        loop ()
      end
    in
    loop ();
    skip_misc st
  end

let parse_attrs st =
  let rec loop acc =
    skip_spaces st;
    let c = peek st in
    if c = '>' || c = '/' || eof st then List.rev acc
    else
      let name = parse_name st in
      skip_spaces st;
      expect st "=";
      skip_spaces st;
      let value = parse_quoted st in
      loop ((name, Atom.of_string value) :: acc)
  in
  loop []

let rec parse_element st =
  st.depth <- st.depth + 1;
  if st.depth > st.limits.Clip_diag.Limits.max_xml_depth then
    error_at st ~code:Clip_diag.Codes.limit_xml_depth
      ~hints:[ "raise Limits.max_xml_depth to accept deeper documents" ]
      (Printf.sprintf "element nesting exceeds the limit of %d"
         st.limits.Clip_diag.Limits.max_xml_depth);
  let node = parse_element_guarded st in
  st.depth <- st.depth - 1;
  node

and parse_element_guarded st =
  expect st "<";
  let tagname = parse_name st in
  let attrs = parse_attrs st in
  skip_spaces st;
  if looking_at st "/>" then begin
    expect st "/>";
    Node.elem ~attrs tagname []
  end
  else begin
    expect st ">";
    let children = parse_content st tagname in
    Node.elem ~attrs tagname children
  end

and parse_content st tagname =
  let buf = Buffer.create 16 in
  let flush_text acc =
    let s = Buffer.contents buf in
    Buffer.clear buf;
    if String.for_all is_space s then acc
    else Node.text (Atom.of_string (decode_entities st (String.trim s))) :: acc
  in
  let rec loop acc =
    if eof st then error st ("unterminated element <" ^ tagname ^ ">")
    else if looking_at st "</" then begin
      let acc = flush_text acc in
      expect st "</";
      let closing = parse_name st in
      skip_spaces st;
      expect st ">";
      if not (String.equal closing tagname) then
        error st
          (Printf.sprintf "mismatched closing tag: expected </%s>, found </%s>"
             tagname closing);
      List.rev acc
    end
    else if looking_at st "<!--" then begin
      let acc = flush_text acc in
      skip_comment st;
      loop acc
    end
    else if looking_at st "<![CDATA[" then begin
      (* CDATA contributes literal text, no entity decoding. The text
         before it is flushed where its run ends, as in every other
         branch, so its entity errors point there. *)
      let acc = flush_text acc in
      expect st "<![CDATA[";
      let start = st.pos in
      while (not (eof st)) && not (looking_at st "]]>") do
        advance st
      done;
      if eof st then error st "unterminated CDATA section";
      let raw = String.sub st.src start (st.pos - start) in
      expect st "]]>";
      loop (Node.text (Atom.String raw) :: acc)
    end
    else if peek st = '<' then begin
      let acc = flush_text acc in
      loop (parse_element st :: acc)
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      loop acc
    end
  in
  loop []

let parse_string_result ?(limits = Clip_diag.Limits.default) s =
  Clip_diag.guard (fun () ->
      let st = { src = s; pos = 0; line = 1; bol = 0; depth = 0; limits } in
      if String.length s > limits.Clip_diag.Limits.max_input_bytes then
        error_at st ~code:Clip_diag.Codes.limit_input_bytes
          ~hints:[ "raise Limits.max_input_bytes to accept larger documents" ]
          (Printf.sprintf "input is %d bytes, larger than the limit of %d"
             (String.length s) limits.Clip_diag.Limits.max_input_bytes);
      skip_misc st;
      if eof st then error st "empty document";
      let root = parse_element st in
      skip_misc st;
      if not (eof st) then error st "trailing content after the root element";
      root)

(* A parse outcome — the document, or the diagnostics with their spans —
   as one string, for outcome-for-outcome comparison. *)
let outcome = function
  | Ok node -> "ok: " ^ Printer.to_string node
  | Error ds -> "error: " ^ String.concat "\n" (List.map Clip_diag.render ds)
