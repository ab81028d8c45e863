(* The XML lexer: a pull-based (SAX-style) event lexer over an
   incremental byte feed, which also builds trees directly
   ([parse_result], [subtree_result]); [Parser.parse_string_result] is
   [parse_result] over [of_string].

   Runs, not bytes. Names, spaces, character data, quoted values and
   the [-->] / []]>] / [?>] terminators are each found by one loop over
   the window, and the cursor then moves once. Text and attribute
   values are typed in the window at the markup that ends them
   ([Atom.of_bytes]): an integer or boolean is read without a copy, any
   other value is sliced once, and only a value holding ['&'] is
   entity-decoded and typed again. A closing tag is compared with its
   opening tag in place, and a name seen before is shared rather than
   copied.

   The window. Bytes [wpos, len) of [buf] are unconsumed; a run being
   scanned stays in the window from the cursor on while [more] pulls
   further chunks. A chunk arriving when nothing is pending is adopted
   as the window without a copy ([of_string] never copies its string).
   Otherwise the pending bytes and the chunk go into a buffer the lexer
   owns: it is compacted only when its consumed prefix is at least half
   of it and grown geometrically otherwise, so a run that crosses many
   refills is copied an amortised constant number of times. Residency
   is one chunk plus the longest pending run.

   Lines. Spans carry line and column, but newlines are counted only
   when a span is built or just before a refill drops the consumed
   prefix: [line]/[bol] describe global offset [lpos].

   Two invariants are pinned by test/test_stream.ml against the
   reference parser in test/xml_oracle.ml:

   - {e chunk-boundary independence} — results do not depend on where
     the feed is cut: every scan pulls until its run ends;
   - {e size precedence} — the reference checks the input-size limit up
     front against the whole string, so an oversized document reports
     CLIP-LIM-001 even when its first byte is garbage. A chunked feed
     only discovers the total size as it reads, so before latching any
     other failure it drains and sizes the rest of the feed
     ([size_precedence]) and lets the limit verdict win. *)

type event =
  | Start of { tag : string; attrs : (string * Atom.t) list }
  | Text of Atom.t
  | End of string

type phase = Prolog | Content | Epilog | Finished

type source = {
  refill : unit -> string option;
  mutable buf : Bytes.t; (* the window: bytes [wpos, len) are unconsumed *)
  mutable len : int;
  mutable owned : bool; (* [buf] is ours to write, not an adopted chunk *)
  mutable wpos : int;
  mutable base : int; (* global offset of buf.[0] *)
  mutable at_eof : bool; (* the producer is exhausted *)
  mutable fed : int; (* total bytes accepted from the producer *)
  mutable line : int; (* line number at global offset [lpos] *)
  mutable bol : int; (* global offset of that line's start *)
  mutable lpos : int;
  mutable depth : int; (* current element-nesting depth *)
  names : string array; (* names read, by a hash of their bytes; the
                           length is a power of two *)
  syms : Symbol.t option array; (* the symbol of [names.(h)] once a tag
                                   has needed it *)
  limits : Clip_diag.Limits.t;
  mutable phase : phase;
  mutable stack : string list; (* open elements, innermost first *)
  mutable pending : event list; (* recognised but undelivered events *)
  mutable failed : Clip_diag.t list option; (* latched first failure *)
}

let pos st = st.base + st.wpos

(* Count the newlines in [lpos, p); [p] is in the window. *)
let sync_lines st p =
  for i = st.lpos - st.base to p - st.base - 1 do
    if Bytes.unsafe_get st.buf i = '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.base + i + 1
    end
  done;
  if p > st.lpos then st.lpos <- p

let error_at ?(code = Clip_diag.Codes.xml_syntax) ?hints st message =
  let p = pos st in
  sync_lines st p;
  Clip_diag.fail
    (Clip_diag.error
       ~span:(Clip_diag.span ~offset:p ~line:st.line ~col:(p - st.bol + 1) ())
       ?hints ~code message)

let error st message = error_at st message

(* The limit is checked before any byte is read, at position 0; a feed
   reproduces the identical diagnostic (total size included) by
   draining the producer once the running total exceeds the limit. *)
let oversized_error ~total st =
  Clip_diag.error
    ~span:(Clip_diag.span ~offset:0 ~line:1 ~col:1 ())
    ~hints:[ "raise Limits.max_input_bytes to accept larger documents" ]
    ~code:Clip_diag.Codes.limit_input_bytes
    (Printf.sprintf "input is %d bytes, larger than the limit of %d" total
       st.limits.Clip_diag.Limits.max_input_bytes)

(* Consume the rest of the producer and return the total byte count of
   the whole feed. A producer failure while draining just ends the
   count early: the drain runs on paths that already hold a verdict. *)
let drain_total st =
  let total = ref st.fed in
  (try
     let rec drain () =
       match st.refill () with
       | None -> ()
       | Some chunk ->
         total := !total + String.length chunk;
         drain ()
     in
     drain ()
   with _ -> ());
  st.at_eof <- true;
  !total

let oversized st = Clip_diag.fail (oversized_error ~total:(drain_total st) st)

(* Append [chunk] to the unconsumed bytes (see the window, above). *)
let accept st chunk =
  let n = String.length chunk in
  st.fed <- st.fed + n;
  if st.fed > st.limits.Clip_diag.Limits.max_input_bytes then oversized st;
  let keep = st.len - st.wpos and cap = Bytes.length st.buf in
  if st.owned && st.len + n <= cap then begin
    Bytes.blit_string chunk 0 st.buf st.len n;
    st.len <- st.len + n
  end
  else begin
    sync_lines st (pos st);
    if keep = 0 then begin
      st.buf <- Bytes.unsafe_of_string chunk;
      st.owned <- false
    end
    else begin
      let dst =
        if st.owned && keep + n <= cap && st.wpos >= cap / 2 then st.buf
        else Bytes.create (2 * (keep + n))
      in
      Bytes.blit st.buf st.wpos dst 0 keep;
      Bytes.blit_string chunk 0 dst keep n;
      st.buf <- dst;
      st.owned <- true
    end;
    st.base <- st.base + st.wpos;
    st.wpos <- 0;
    st.len <- keep + n
  end

(* Pull the next non-empty chunk; [false] once the feed is exhausted. *)
let rec more st =
  (not st.at_eof)
  &&
  match st.refill () with
  | None ->
    st.at_eof <- true;
    false
  | Some "" -> more st
  | Some chunk ->
    accept st chunk;
    true

let rec fill st k = more st && (st.wpos + k < st.len || fill st k)

(* Is the byte [k] past the cursor available? Pulls as needed. *)
let[@inline] has st k = st.wpos + k < st.len || fill st k

(* The byte [k] past the cursor; [has st k] must hold. *)
let[@inline] byte st k = Bytes.unsafe_get st.buf (st.wpos + k)

let[@inline] is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let[@inline] is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | _ -> false

let[@inline] is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' | '0' .. '9' | '-' | '.' -> true
  | _ -> false

(* The offset of the first [c] at or past offset [k], or of the end of
   the feed. *)
let rec index st k c =
  let buf = st.buf and stop = st.len in
  let i = ref (st.wpos + k) in
  while !i < stop && Bytes.unsafe_get buf !i <> c do
    incr i
  done;
  let k = !i - st.wpos in
  if !i < stop || not (more st) then k else index st k c

let rec name_end st k =
  let buf = st.buf and stop = st.len in
  let i = ref (st.wpos + k) in
  while !i < stop && is_name_char (Bytes.unsafe_get buf !i) do
    incr i
  done;
  let k = !i - st.wpos in
  if !i < stop || not (more st) then k else name_end st k

let rec skip_spaces st =
  let buf = st.buf and stop = st.len in
  let i = ref st.wpos in
  while !i < stop && is_space (Bytes.unsafe_get buf !i) do
    incr i
  done;
  st.wpos <- !i;
  if !i = stop && more st then skip_spaces st

(* Do the bytes from offset [k] on spell [lit] from its index [j] on?
   They must be available. *)
let rec spells st k lit j =
  j = String.length lit
  || Bytes.unsafe_get st.buf (st.wpos + k + j) = String.unsafe_get lit j
     && spells st k lit (j + 1)

let looking_at st lit = has st (String.length lit - 1) && spells st 0 lit 0

(* The offset of the first [lit] at or past offset [k], or [-1]. *)
let rec find st k lit =
  let k = index st k (String.unsafe_get lit 0) in
  if not (has st (k + String.length lit - 1)) then -1
  else if spells st k lit 0 then k
  else find st (k + 1) lit

let expect st c =
  if has st 0 && byte st 0 = c then st.wpos <- st.wpos + 1
  else error st (Printf.sprintf "expected %S" (String.make 1 c))

(* Documents repeat a schema-sized set of names: a name still held in
   its slot of [names] is returned again, not copied, so trees share
   their name strings, and a tag's symbol is interned once per slot
   fill rather than once per element. [name_slot] reads a name and
   returns its slot. *)
let name_slot st =
  if not (has st 0 && is_name_start (byte st 0)) then error st "expected a name";
  let k = name_end st 1 in
  let h = ref 0 in
  for i = st.wpos to st.wpos + k - 1 do
    h := (!h * 31) + Char.code (Bytes.unsafe_get st.buf i)
  done;
  let h = !h land (Array.length st.names - 1) in
  let s = st.names.(h) in
  if not (String.length s = k && spells st 0 s 0) then begin
    st.names.(h) <- Bytes.sub_string st.buf st.wpos k;
    st.syms.(h) <- None
  end;
  st.wpos <- st.wpos + k;
  h

let name st = st.names.(name_slot st)

let symbol st h =
  match st.syms.(h) with
  | Some sym -> sym
  | None ->
    let sym = Symbol.intern st.names.(h) in
    st.syms.(h) <- Some sym;
    sym

(* The character a reference's digits [ent.[i..]] name in [radix], or
   [-1] when a byte is not a digit of [radix] or the code reaches 128. *)
let rec char_code ent i radix acc =
  if i = String.length ent then acc
  else
    let d =
      match ent.[i] with
      | '0' .. '9' as c -> Char.code c - 48
      | ('a' .. 'f' as c) when radix = 16 -> Char.code c - 87
      | ('A' .. 'F' as c) when radix = 16 -> Char.code c - 55
      | _ -> -1
    in
    let acc = (acc * radix) + d in
    if d < 0 || acc >= 128 then -1 else char_code ent (i + 1) radix acc

(* [ent] is ["#..."]: XML spells a character reference [#] then decimal
   digits, or [#x] then hexadecimal digits, and nothing else. *)
let char_ref ent =
  if ent.[1] <> 'x' then char_code ent 1 10 0
  else if String.length ent > 2 then char_code ent 2 16 0
  else -1

(* Errors point at the cursor, which the caller has moved past the
   text or quoted value being decoded. *)
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
              let c = char_ref ent in
              if c < 0 then error st ("unsupported character reference &" ^ ent ^ ";")
              else String.make 1 (Char.chr c)
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

let rec has_amp s i = i < String.length s && (String.unsafe_get s i = '&' || has_amp s (i + 1))

(* The value in [buf.[lo..hi-1]], typed where it sits (see the top of
   the file). A value holding ['&'] types as a [String]: only then is it
   decoded and typed again. *)
let value st lo hi =
  match Atom.of_bytes st.buf lo (hi - lo) with
  | Atom.String s when has_amp s 0 -> Atom.of_string (decode_entities st s)
  | a -> a

let quoted st =
  let q = if has st 0 then byte st 0 else '\000' in
  if q <> '"' && q <> '\'' then error st "expected a quoted value";
  let k = index st 1 q in
  if not (has st k) then begin
    st.wpos <- st.len;
    error st "unterminated attribute value"
  end;
  let lo = st.wpos + 1 in
  st.wpos <- st.wpos + k + 1;
  value st lo (lo + k - 1)

let rec attrs st acc =
  skip_spaces st;
  if not (has st 0) then List.rev acc
  else
    match byte st 0 with
    | '>' | '/' -> List.rev acc
    | _ ->
      let n = name st in
      skip_spaces st;
      expect st '=';
      skip_spaces st;
      let v = quoted st in
      attrs st ((n, v) :: acc)

(* The cursor is on the '<' of a start tag: bound the depth (before
   the tag is read), read the name. *)
let open_tag st =
  st.depth <- st.depth + 1;
  if st.depth > st.limits.Clip_diag.Limits.max_xml_depth then
    error_at st ~code:Clip_diag.Codes.limit_xml_depth
      ~hints:[ "raise Limits.max_xml_depth to accept deeper documents" ]
      (Printf.sprintf "element nesting exceeds the limit of %d"
         st.limits.Clip_diag.Limits.max_xml_depth);
  expect st '<';
  name_slot st

(* After the attributes: [true] for "/>" (the element is closed, depth
   restored), [false] for '>'. *)
let self_closing st =
  if looking_at st "/>" then begin
    st.wpos <- st.wpos + 2;
    st.depth <- st.depth - 1;
    true
  end
  else begin
    expect st '>';
    false
  end

(* The cursor is on "</" inside [tag]. *)
let close_tag st tag =
  st.wpos <- st.wpos + 2;
  if not (has st 0 && is_name_start (byte st 0)) then error st "expected a name";
  let k = name_end st 1 in
  let same = k = String.length tag && spells st 0 tag 0 in
  let closing = if same then tag else Bytes.sub_string st.buf st.wpos k in
  st.wpos <- st.wpos + k;
  skip_spaces st;
  expect st '>';
  if not same then
    error st
      (Printf.sprintf "mismatched closing tag: expected </%s>, found </%s>" tag
         closing);
  st.depth <- st.depth - 1

let skip_comment st =
  let k = find st 4 "-->" in
  if k < 0 then begin
    st.wpos <- st.len;
    error st "unterminated comment"
  end;
  st.wpos <- st.wpos + k + 3

let cdata st =
  let k = find st 9 "]]>" in
  if k < 0 then begin
    st.wpos <- st.len;
    error st "unterminated CDATA section"
  end;
  let raw = Bytes.sub_string st.buf (st.wpos + 9) (k - 9) in
  st.wpos <- st.wpos + k + 3;
  raw

(* Skip to the '>' closing a DOCTYPE, internal subsets in brackets
   included. *)
let rec skip_doctype st k depth =
  if not (has st k) then begin
    st.wpos <- st.len;
    error st "unterminated DOCTYPE"
  end;
  match byte st k with
  | '[' -> skip_doctype st (k + 1) (depth + 1)
  | ']' -> skip_doctype st (k + 1) (depth - 1)
  | '>' when depth = 0 -> st.wpos <- st.wpos + k + 1
  | _ -> skip_doctype st (k + 1) depth

let rec skip_misc st =
  skip_spaces st;
  if looking_at st "<!--" then begin
    skip_comment st;
    skip_misc st
  end
  else if looking_at st "<!DOCTYPE" then begin
    skip_doctype st 0 0;
    skip_misc st
  end
  else if looking_at st "<?" then begin
    let k = find st 1 "?>" in
    if k < 0 then begin
      st.wpos <- st.len;
      error st "unterminated processing instruction"
    end;
    st.wpos <- st.wpos + k + 2;
    skip_misc st
  end

let prolog st =
  skip_misc st;
  if not (has st 0) then error st "empty document"

let epilog st =
  skip_misc st;
  if has st 0 then error st "trailing content after the root element";
  st.phase <- Finished

(* Character data inside [tag]: move the cursor over the run to the
   next markup and return the run's start. The markup must be there. *)
let text_run st tag =
  let k = index st 0 '<' in
  let i = st.wpos in
  st.wpos <- i + k;
  if not (has st 0) then error st ("unterminated element <" ^ tag ^ ">");
  i

(* Is the run from [i] to the cursor whitespace-only (no text node)? *)
let blank st i =
  let j = ref i in
  while !j < st.wpos && is_space (Bytes.unsafe_get st.buf !j) do
    incr j
  done;
  !j = st.wpos

let is_trimmed = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* The non-blank run from [i] to the cursor as a text atom: trimmed
   (as [String.trim] does), typed, decoded if it holds ['&']. *)
let text st i =
  let lo = ref i and hi = ref st.wpos in
  while !lo < !hi && is_trimmed (Bytes.unsafe_get st.buf !lo) do
    incr lo
  done;
  while !hi > !lo && is_trimmed (Bytes.unsafe_get st.buf (!hi - 1)) do
    decr hi
  done;
  value st !lo !hi

type markup = Close | Comment | Cdata | Open

(* The cursor is on a '<' inside an element. *)
let markup st =
  match if has st 1 then byte st 1 else '\000' with
  | '/' -> Close
  | '!' when looking_at st "<!--" -> Comment
  | '!' when looking_at st "<![CDATA[" -> Cdata
  | _ -> Open

(* --- Building trees ------------------------------------------------------ *)

(* The tag's string and symbol are read before the attributes, whose
   names may take over the tag's slot. *)
let rec element st =
  let slot = open_tag st in
  let tag = st.names.(slot) and sym = symbol st slot in
  let attrs = attrs st [] in
  if self_closing st then Node.elem_sym ~attrs sym []
  else children st sym tag attrs []

(* The content of the open element [tag] up to its closing tag. *)
and children st sym tag attrs acc =
  let i = text_run st tag in
  let acc = if blank st i then acc else Node.text (text st i) :: acc in
  match markup st with
  | Close ->
    close_tag st tag;
    Node.elem_sym ~attrs sym (List.rev acc)
  | Comment ->
    skip_comment st;
    children st sym tag attrs acc
  | Cdata -> children st sym tag attrs (Node.text (Atom.String (cdata st)) :: acc)
  | Open -> children st sym tag attrs (element st :: acc)

(* --- Events ------------------------------------------------------------- *)

let start_events st =
  let tag = st.names.(open_tag st) in
  let attrs = attrs st [] in
  if self_closing st then begin
    if st.stack = [] then st.phase <- Epilog;
    [ Start { tag; attrs }; End tag ]
  end
  else begin
    st.stack <- tag :: st.stack;
    st.phase <- Content;
    [ Start { tag; attrs } ]
  end

let close st =
  st.stack <- List.tl st.stack;
  if st.stack = [] then st.phase <- Epilog

(* The events up to and including the next markup inside [tag]. The
   text before the markup is decoded first (its errors point where it
   ends) but delivered only with the markup's events, so a markup
   error wins over the text in front of it. *)
let content_events st tag =
  let i = text_run st tag in
  let text = if blank st i then None else Some (Text (text st i)) in
  let evs =
    match markup st with
    | Close ->
      close_tag st tag;
      close st;
      [ End tag ]
    | Comment ->
      skip_comment st;
      []
    | Cdata -> [ Text (Atom.String (cdata st)) ]
    | Open -> start_events st
  in
  match text with None -> evs | Some t -> t :: evs

let rec next_ev st =
  match st.pending with
  | e :: rest ->
    st.pending <- rest;
    Some e
  | [] ->
    (match st.phase, st.stack with
     | Finished, _ -> None
     | Prolog, _ ->
       prolog st;
       st.pending <- start_events st;
       next_ev st
     | Content, tag :: _ ->
       st.pending <- content_events st tag;
       next_ev st
     | Content, [] -> assert false
     | Epilog, _ ->
       epilog st;
       None)

(* Keep diagnostics chunking-independent (see the top of the file). *)
let size_precedence st ds =
  let oversized d =
    String.equal d.Clip_diag.code Clip_diag.Codes.limit_input_bytes
  in
  if List.exists oversized ds then ds
  else
    let total = drain_total st in
    if total > st.limits.Clip_diag.Limits.max_input_bytes then
      [ oversized_error ~total st ]
    else ds

(* Run [body] under the source's one guard: a failure latches, and
   escapes as a structured [Error]. *)
let guarded body st =
  match st.failed with
  | Some ds -> Error ds
  | None ->
    (match body st with
     | v -> Ok v
     | exception Clip_diag.Fail ds ->
       let ds = size_precedence st ds in
       st.failed <- Some ds;
       Error ds)

let next_result st = guarded next_ev st

let subtree_result st ~tag ~attrs =
  guarded
    (fun st ->
      match st.pending with
      | End _ :: rest ->
        st.pending <- rest;
        Node.elem ~attrs tag []
      | _ ->
        let node = children st (Symbol.intern tag) tag attrs [] in
        close st;
        node)
    st

let document st =
  prolog st;
  let root = element st in
  epilog st;
  root

let parse_result st = guarded document st

let of_chunks ?(limits = Clip_diag.Limits.default) refill =
  {
    refill;
    buf = Bytes.empty;
    len = 0;
    owned = false;
    wpos = 0;
    base = 0;
    at_eof = false;
    fed = 0;
    line = 1;
    bol = 0;
    lpos = 0;
    depth = 0;
    names = Array.make 64 "";
    syms = Array.make 64 None;
    limits;
    phase = Prolog;
    stack = [];
    pending = [];
    failed = None;
  }

let of_string ?limits s =
  (* One whole-string chunk: the first refill sees the full length, so
     the size limit is checked up front. *)
  let sent = ref false in
  of_chunks ?limits (fun () ->
      if !sent then None
      else begin
        sent := true;
        Some s
      end)

let of_channel ?limits ?(chunk_bytes = 65536) ic =
  let chunk_bytes = max 1 chunk_bytes in
  let buf = Bytes.create chunk_bytes in
  of_chunks ?limits (fun () ->
      let n = input ic buf 0 chunk_bytes in
      if n = 0 then None else Some (Bytes.sub_string buf 0 n))
