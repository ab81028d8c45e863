(* Tests for the XML lexer (Clip_xml.Stream, which Clip_xml.Parser
   wraps): chunk-boundary independence, and document and diagnostic
   identity with the reference parser in xml_oracle.ml — the contracts
   the tree parser, the shard cutter and the CLI's --stream path stand
   on. *)

open Clip_xml

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let outcome = Xml_oracle.outcome

(* Feed [bytes] as chunks cut at the given (sorted, in-range)
   positions. *)
let chunked ?limits bytes cuts =
  let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < String.length bytes) cuts) in
  let pieces =
    let rec go start = function
      | [] -> [ String.sub bytes start (String.length bytes - start) ]
      | c :: rest -> String.sub bytes start (c - start) :: go c rest
    in
    if bytes = "" then [] else go 0 cuts
  in
  let remaining = ref pieces in
  Stream.of_chunks ?limits (fun () ->
      match !remaining with
      | [] -> None
      | p :: rest ->
        remaining := rest;
        Some p)

let byte_by_byte ?limits bytes =
  let i = ref 0 in
  Stream.of_chunks ?limits (fun () ->
      if !i >= String.length bytes then None
      else begin
        let c = String.sub bytes !i 1 in
        incr i;
        Some c
      end)

(* The tree parser and the three stream feeds must agree with the
   oracle on [bytes] — same document, or same diagnostics (codes,
   messages, spans). *)
let assert_all_agree ?limits bytes =
  let reference = outcome (Xml_oracle.parse_string_result ?limits bytes) in
  checks "parser" reference (outcome (Parser.parse_string_result ?limits bytes));
  checks "of_string" reference
    (outcome (Stream.parse_result (Stream.of_string ?limits bytes)));
  checks "byte-by-byte" reference
    (outcome (Stream.parse_result (byte_by_byte ?limits bytes)));
  checks "mid chunks" reference
    (outcome
       (Stream.parse_result
          (chunked ?limits bytes [ 1; 3; String.length bytes / 2 ])))

(* [outcome] with every atom shown with its kind and a float to the
   bit: [Int 12], [Float 12.] and [String "12"] print alike in XML. *)
let show_atom = function
  | Atom.Int i -> Printf.sprintf "Int %d" i
  | Atom.Float f -> Printf.sprintf "Float %h" f
  | Atom.Bool b -> Printf.sprintf "Bool %b" b
  | Atom.String s -> Printf.sprintf "String %S" s

let rec typed = function
  | Node.Text a -> show_atom a
  | Node.Element e ->
    let attrs = List.map (fun (k, v) -> Printf.sprintf " %s=%s" k (show_atom v)) e.Node.attrs in
    Printf.sprintf "<%s%s>%s</>" e.Node.tag (String.concat "" attrs)
      (String.concat "," (List.map typed e.Node.children))

let typed_outcome = function
  | Ok node -> "ok: " ^ typed node
  | Error ds -> "error: " ^ String.concat "\n" (List.map Clip_diag.render ds)

let well_formed =
  [
    "<a/>";
    "<a></a>";
    "<r><x>1</x><x>2.5</x><x>true</x><x>hello world</x></r>";
    "<r a=\"1\" b=\"two\"><c k=\"v\"/>text<d/>more</r>";
    "<r>&lt;&amp;&gt;&quot;&apos;&#65;&#x41;</r>";
    "<r><![CDATA[  raw <stuff> & more  ]]></r>";
    "<r>before<![CDATA[42]]></r>";
    "<?xml version=\"1.0\"?><!-- head --><!DOCTYPE r [<!ELEMENT r ANY>]><r/><!-- tail -->";
    "  <r>\n  <e>  spaced  text  </e>\n  </r>  ";
    "<r><a><b><c><d>deep</d></c></b></a></r>";
    "<source><dept deptno=\"d1\"><emp>ann</emp><emp>bob</emp></dept><dept \
     deptno=\"d2\"><emp>cat</emp></dept></source>";
  ]

let malformed =
  [
    "";
    "   ";
    "plain text";
    "<r>";
    "<r><a></b></r>";
    "<r attr=oops/>";
    "<r a=\"1\" a=\"2\"/>";
    "<r>&unknown;</r>";
    "<r>&#xZZ;</r>";
    "<r>&brokenentity</r>";
    "<r><![CDATA[never closed</r>";
    "<r/><r/>";
    "<r/>trailing";
    "<r></r";
    "<1bad/>";
    "<r><a/>";
    "<!-- only a comment -->";
    "<r>&<x/></r>";
    "<r>a &bogus; b<x/></r>";
    "<r>&<![CDATA[x]]></r>";
  ]

let equivalence_tests =
  [
    Alcotest.test_case "well-formed documents" `Quick (fun () ->
        List.iter assert_all_agree well_formed);
    Alcotest.test_case "malformed documents: identical diagnostics" `Quick
      (fun () -> List.iter assert_all_agree malformed);
    Alcotest.test_case "text errors point where the text run ends" `Quick
      (fun () ->
        (* The text before a child element or a CDATA section is decoded
           before that markup is read, so an entity error in it reports
           the column of the markup's '<'. *)
        List.iter
          (fun (bytes, col) ->
            assert_all_agree bytes;
            match Parser.parse_string bytes with
            | _ -> Alcotest.failf "%S parsed" bytes
            | exception Parser.Parse_error { column; _ } ->
              Alcotest.(check int) bytes col column)
          [
            ("<r>&<x/></r>", 5);
            ("<r>a &bogus; b<x/></r>", 15);
            ("<r>&<![CDATA[x]]></r>", 5);
          ]);
    Alcotest.test_case "depth limit: identical CLIP-LIM-002" `Quick (fun () ->
        let limits = { Clip_diag.Limits.default with max_xml_depth = 3 } in
        assert_all_agree ~limits "<a><b><c><d>too deep</d></c></b></a>";
        assert_all_agree ~limits "<a><b><c>just fits</c></b></a>");
    Alcotest.test_case "size limit: of_string matches CLIP-LIM-001" `Quick
      (fun () ->
        let limits = { Clip_diag.Limits.default with max_input_bytes = 10 } in
        let bytes = "<r>0123456789</r>" in
        (* The whole-string feed checks the limit up front, exactly as
           the reference parser does. *)
        checks "of_string"
          (outcome (Xml_oracle.parse_string_result ~limits bytes))
          (outcome (Stream.parse_result (Stream.of_string ~limits bytes)));
        (* A chunked feed discovers the total size incrementally but
           still reports the same code, message and span once the
           running count passes the limit on this well-formed input. *)
        checks "byte-by-byte"
          (outcome (Xml_oracle.parse_string_result ~limits bytes))
          (outcome (Stream.parse_result (byte_by_byte ~limits bytes))));
    Alcotest.test_case
      "size limit beats a later syntax error, chunking-independent" `Quick
      (fun () ->
        (* Oversized AND malformed: the reference parser's up-front size
           check reports CLIP-LIM-001 before it ever sees the broken
           markup. A chunked feed recognises the syntax error first —
           the unterminated root, the garbage prologue — while its
           running total is still under the limit; it must drain the
           rest of the feed and report the same CLIP-LIM-001 as the
           reference parser, wherever the chunks were cut. *)
        let limits = { Clip_diag.Limits.default with max_input_bytes = 10 } in
        List.iter
          (fun bytes -> assert_all_agree ~limits bytes)
          [
            "<r>0123456789";          (* truncated root, oversized *)
            "plain text 0123456789";  (* garbage from byte one *)
            "<r><a></b></r> padding"; (* mismatched tags, oversized *)
            "<r a=\"1\" a=\"1\"/> tail tail"; (* dup attr, oversized *)
          ];
        (* Under-limit malformed input keeps its syntax diagnostic:
           the precedence rule only fires when the whole feed is
           actually oversized. *)
        assert_all_agree ~limits "<r><a>");
    Alcotest.test_case "character references: only &#digits; and &#xhex;" `Quick
      (fun () ->
        let in_text r = "<r>" ^ r ^ "</r>" and in_attr r = "<r a=\"" ^ r ^ "\"/>" in
        (* OCaml literal syntax, an uppercase X, a sign, no digits, a
           code past 127: all CLIP-XML-001, in text and in attributes. *)
        List.iter
          (fun r ->
            List.iter
              (fun bytes ->
                assert_all_agree bytes;
                match Parser.parse_string_result bytes with
                | Ok _ -> Alcotest.failf "%S parsed" bytes
                | Error [ d ] ->
                  checks bytes "CLIP-XML-001" d.Clip_diag.code;
                  checks bytes ("unsupported character reference " ^ r) d.Clip_diag.message
                | Error _ -> Alcotest.failf "%S: not one diagnostic" bytes)
              [ in_text r; in_attr r ])
          [
            "&#0o101;"; "&#0b1000001;"; "&#6_5;"; "&#+65;"; "&#0x41;"; "&#X41;"; "&#-65;";
            "&#x;"; "&#x-41;"; "&#128;"; "&#x80;"; "&#99999999999999999999999;";
          ];
        List.iter
          (fun (r, want) ->
            List.iter
              (fun (bytes, node) ->
                assert_all_agree bytes;
                checks bytes (typed_outcome (Ok node)) (typed_outcome (Parser.parse_string_result bytes)))
              [
                (in_text r, Node.elem "r" [ Node.text_string want ]);
                (in_attr r, Node.elem ~attrs:[ ("a", Atom.String want) ] "r" []);
              ])
          [ ("&#65;", "A"); ("&#065;", "A"); ("&#x41;", "A"); ("&#x4a;", "J"); ("&#x4A;", "J");
            ("&#x0000041;", "A"); ("&#127;", "\127") ]);
    Alcotest.test_case "values typed across every chunk boundary" `Quick (fun () ->
        (* Numbers, signs and references cut at every byte, and at
           every single cut: each feed gives the oracle's tree, atom
           kinds included, or its diagnostic. *)
        let docs =
          [
            "<r a=\"+5\" b=\"007\" c=\"-\" d=\"4611686018427387904\" e=\" 12\" f=\"1e5\" \
             g=\"0x10\" h=\"true\" i=\"-4611686018427387904\" j=\"&#49;2\"/>";
            "<r><x>-12</x><x>+7</x><x>  42  </x><x>4611686018427387903</x>\
             <x>-4611686018427387905</x><x>2.5e-3</x><x>-.5</x><x>false</x><x>-</x></r>";
            "<r><x>&#49;2</x><x>1&#50;</x><x>&#45;7</x><x>+&#x35;</x><x>tr&#117;e</x>\
             <x>1&amp;2</x><x>&#x31;&#x30;</x><x> &#32;5</x></r>";
            "<r><x>12&#0x41;</x></r>";
            "<r a=\"-3&#+65;\"/>";
            "<r><x>99&unknown;</x></r>";
            "<r><x>-5&#49</x></r>";
          ]
        in
        List.iter
          (fun bytes ->
            let reference = typed_outcome (Xml_oracle.parse_string_result bytes) in
            checks bytes reference (typed_outcome (Stream.parse_result (byte_by_byte bytes)));
            for c = 1 to String.length bytes - 1 do
              checks (Printf.sprintf "%s cut at %d" bytes c) reference
                (typed_outcome (Stream.parse_result (chunked bytes [ c ])))
            done)
          docs);
    Alcotest.test_case "tags and attributes read alike across every chunk boundary" `Quick
      (fun () ->
        (* The spellings the lexer takes directly ([a="1"], a tag
           closed by '>', [</e>]) next to the ones it does not
           ([a = '1'], [<e >], [</e >]), names that share a slot of the
           name table (e, af and ch hash alike), and runs of spaces and
           form feeds, cut at every byte: each feed gives the oracle's
           tree or its diagnostic. *)
        let docs =
          [
            "<r a=\"1\" b = '2' c =\"x\"d='y'><e/><e ><e a=\"1\"/></e ><af/><e>1</e>\
             <ch a=\"1\">t</ch><e/></r>";
            "<r>  <e>\012</e> <e> \012 </e><e>  </e>\n<e> x </e></r>";
            "<r><e></ee></r>";
            "<r><ee></e></r>";
            "<r><e></e x></r>";
            "<r a=\"1\" a2/>";
            "<r a=\"1>";
          ]
        in
        List.iter
          (fun bytes ->
            let reference = typed_outcome (Xml_oracle.parse_string_result bytes) in
            checks bytes reference (typed_outcome (Stream.parse_result (byte_by_byte bytes)));
            for c = 1 to String.length bytes - 1 do
              checks (Printf.sprintf "%s cut at %d" bytes c) reference
                (typed_outcome (Stream.parse_result (chunked bytes [ c ])))
            done)
          docs);
    Alcotest.test_case "event stream shape" `Quick (fun () ->
        let st = Stream.of_string "<r a=\"1\">hi<e/></r>" in
        let next () =
          match Stream.next_result st with
          | Ok e -> e
          | Error _ -> Alcotest.fail "unexpected error"
        in
        (match next () with
         | Some (Stream.Start { tag = "r"; attrs = [ ("a", Atom.Int 1) ] }) -> ()
         | _ -> Alcotest.fail "expected <r> start");
        (match next () with
         | Some (Stream.Text (Atom.String "hi")) -> ()
         | _ -> Alcotest.fail "expected text");
        (match next () with
         | Some (Stream.Start { tag = "e"; attrs = [] }) -> ()
         | _ -> Alcotest.fail "expected <e> start");
        (match next () with
         | Some (Stream.End "e") -> ()
         | _ -> Alcotest.fail "expected </e>");
        (match next () with
         | Some (Stream.End "r") -> ()
         | _ -> Alcotest.fail "expected </r>");
        checkb "eof" true (next () = None);
        checkb "still eof" true (next () = None));
    Alcotest.test_case "failed source latches its error" `Quick (fun () ->
        let st = Stream.of_string "<r><oops</r>" in
        let rec drain last =
          match Stream.next_result st with
          | Ok (Some _) -> drain last
          | Ok None -> Alcotest.fail "expected a parse error"
          | Error ds -> ds
        in
        let first = drain [] in
        (match Stream.next_result st with
         | Error ds ->
           checks "same error"
             (String.concat "\n" (List.map Clip_diag.render first))
             (String.concat "\n" (List.map Clip_diag.render ds))
         | Ok _ -> Alcotest.fail "error did not latch"));
  ]

(* --- Agreement with the oracle, over random documents ------------------ *)

(* A tree built from [Stream.next_result] events alone, or — with
   [~subtrees] — from events down to the root's children and
   [Stream.subtree_result] below them, as the shard cutter reads. *)
let events_outcome ~subtrees src =
  let rec children tag attrs acc =
    match Stream.next_result src with
    | Error ds -> Error ds
    | Ok (Some (Stream.Text a)) -> children tag attrs (Node.text a :: acc)
    | Ok (Some (Stream.Start { tag = t; attrs = a })) ->
      let child =
        if subtrees then Stream.subtree_result src ~tag:t ~attrs:a
        else children t a []
      in
      (match child with Ok c -> children tag attrs (c :: acc) | e -> e)
    | Ok (Some (Stream.End _)) -> Ok (Node.elem ~attrs tag (List.rev acc))
    | Ok None -> Alcotest.fail "end of events inside an element"
  in
  match Stream.next_result src with
  | Error ds -> Error ds
  | Ok (Some (Stream.Start { tag; attrs })) ->
    (match children tag attrs [] with
     | Ok root ->
       (match Stream.next_result src with
        | Ok None -> Ok root
        | Ok (Some _) -> Alcotest.fail "an event after the root"
        | Error ds -> Error ds)
     | e -> e)
  | Ok _ -> Alcotest.fail "the first event is not a start tag"

(* Documents written as bytes, so that they reach what a printer never
   writes: entities (malformed ones too), CDATA, comments, processing
   instructions, DOCTYPE, \n and \r\n, whitespace-only and form-feed
   runs, '>' and '<' inside attribute values, spaces inside tags. *)
let gen_text =
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (0 -- 4)
         (oneofl
            [
              "a"; "hi there"; "12"; "-3"; "2.5"; "true"; " "; "  "; "\t"; "\n";
              "\r\n"; "\012"; "&amp;"; "&lt;"; "&gt;"; "&quot;"; "&apos;";
              "&#65;"; "&#x41;"; "&"; "&bogus;"; "&#xZZ;"; "&#300;"; "&#;";
              "&amp"; ">"; "]]>"; "'"; "\""; "+5"; "007"; "1e5"; "&#+65;"; "&#0x41;";
              "&#6_5;"; "&#X41;"; "&#049;";
            ])))

let gen_name = QCheck2.Gen.oneofl [ "a"; "b"; "r"; "x1"; "_n"; "a-b"; "n.m"; "p:q" ]
let gen_space = QCheck2.Gen.oneofl [ ""; ""; " "; "\n"; "\r\n"; "\t " ]

let gen_attr =
  QCheck2.Gen.(
    gen_space >>= fun lead ->
    gen_name >>= fun name ->
    gen_space >>= fun sp ->
    oneofl [ '"'; '\'' ] >>= fun q ->
    map
      (fun v ->
        let v = String.map (fun c -> if c = q then '>' else c) v in
        Printf.sprintf " %s%s%s=%s%c%s%c" lead name sp sp q v q)
      (oneof [ gen_text; oneofl [ ">"; "<"; "a>b"; "x < y" ] ]))

let gen_cdata =
  QCheck2.Gen.(
    map
      (fun parts -> "<![CDATA[" ^ String.concat "" parts ^ "]]>")
      (list_size (0 -- 3) (oneofl [ "x"; "<y>"; "&amp;"; "]]"; "]"; " "; "\n"; "\r\n" ])))

let gen_misc =
  QCheck2.Gen.oneofl
    [
      "<!-- c -->"; "<!---->"; "<!-- a - b -->"; "<?pi x?>"; "<?>";
      "<?xml version=\"1.0\"?>"; "<!DOCTYPE r [<!ELEMENT r ANY>]>"; "<!DOCTYPE r>";
      " "; "\n"; "\r\n";
    ]

let gen_element =
  QCheck2.Gen.(
    sized_size (0 -- 4) @@ fix (fun self n ->
        gen_name >>= fun tag ->
        list_size (0 -- 2) gen_attr >>= fun attrs ->
        gen_space >>= fun sp ->
        gen_space >>= fun sp_close ->
        let open_tag = "<" ^ tag ^ String.concat "" attrs ^ sp in
        let with_content items =
          open_tag ^ ">" ^ String.concat "" items ^ "</" ^ tag ^ sp_close ^ ">"
        in
        let item =
          frequency
            [
              (3, gen_text);
              ((if n = 0 then 0 else 3), self (n / 2));
              (1, gen_misc);
              (1, gen_cdata);
            ]
        in
        frequency
          [ (1, return (open_tag ^ "/>")); (4, map with_content (list_size (0 -- 4) item)) ]))

(* A document's bytes, possibly mutated (one byte overwritten, a byte
   inserted, or a truncated tail), plus random cut positions. *)
let gen_case =
  QCheck2.Gen.(
    list_size (0 -- 2) gen_misc >>= fun prolog ->
    gen_element >>= fun root ->
    list_size (0 -- 2) gen_misc >>= fun epilog ->
    let bytes = String.concat "" prolog ^ root ^ String.concat "" epilog in
    let n = String.length bytes in
    let mutated =
      oneof
        [
          return bytes;
          (int_bound (max 0 (n - 1)) >>= fun i ->
           printable >>= fun c ->
           return (String.mapi (fun j x -> if j = i then c else x) bytes));
          (int_bound n >>= fun i ->
           return (String.sub bytes 0 i));
          (int_bound n >>= fun i ->
           printable >>= fun c ->
           return
             (String.sub bytes 0 i ^ String.make 1 c
             ^ String.sub bytes i (n - i)));
        ]
    in
    mutated >>= fun bytes ->
    list_size (0 -- 6) (int_bound (max 1 (String.length bytes))) >>= fun cuts ->
    return (bytes, cuts))

let prop_oracle =
  QCheck2.Test.make ~count:5000
    ~print:(fun (bytes, cuts) ->
      Printf.sprintf "%S cut at [%s]" bytes
        (String.concat "; " (List.map string_of_int cuts)))
    ~name:"whole / byte-by-byte / random chunks agree with the oracle (parser and events too)"
    gen_case
    (fun (bytes, cuts) ->
      let reference = outcome (Xml_oracle.parse_string_result bytes) in
      outcome (Parser.parse_string_result bytes) = reference
      && outcome (Stream.parse_result (Stream.of_string bytes)) = reference
      && outcome (Stream.parse_result (byte_by_byte bytes)) = reference
      && outcome (Stream.parse_result (chunked bytes cuts)) = reference
      && outcome (events_outcome ~subtrees:false (chunked bytes cuts)) = reference
      && outcome (events_outcome ~subtrees:true (byte_by_byte bytes)) = reference)

let property_tests = List.map QCheck_alcotest.to_alcotest [ prop_oracle ]

(* --- The window stays amortised-linear --------------------------------- *)

(* One text node of [mb] MiB fed in 4 KiB chunks: the run crosses every
   refill, so a window that re-copied the pending run on each pull
   would be quadratic. CPU seconds, best of [tries]. *)
let time_text_node ~tries mb =
  let n = mb * 1024 * 1024 in
  let doc = "<r>" ^ String.make n 'x' ^ "</r>" in
  let limits = { Clip_diag.Limits.default with max_input_bytes = max_int } in
  let best = ref infinity in
  for _ = 1 to tries do
    let off = ref 0 in
    let src =
      Stream.of_chunks ~limits (fun () ->
          if !off >= String.length doc then None
          else begin
            let k = min 4096 (String.length doc - !off) in
            let chunk = String.sub doc !off k in
            off := !off + k;
            Some chunk
          end)
    in
    let t0 = Sys.time () in
    let r = Stream.parse_result src in
    best := Float.min !best (Sys.time () -. t0);
    match r with
    | Ok (Node.Element { children = [ Node.Text (Atom.String s) ]; _ })
      when String.length s = n -> ()
    | _ -> Alcotest.fail "the text node did not parse"
  done;
  !best

let scaling_tests =
  [
    Alcotest.test_case "a 16 MiB text node costs < 16x a 2 MiB one" `Slow
      (fun () ->
        let small = time_text_node ~tries:3 2 in
        let large = time_text_node ~tries:2 16 in
        if large > 16. *. Float.max small 1e-3 then
          Alcotest.failf "2 MiB: %.3fs, 16 MiB: %.3fs (%.1fx; linear is 8x)" small
            large (large /. small));
  ]

let () =
  Alcotest.run "stream"
    [
      ("equivalence", equivalence_tests);
      ("properties", property_tests);
      ("scaling", scaling_tests);
    ]
