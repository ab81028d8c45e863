(* Tests for the Clip_xml substrate: atoms, the parser, the printers
   and tree operations. *)

open Clip_xml

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

(* An atom with its kind, and a float to the bit. *)
let show_atom = function
  | Atom.Int i -> Printf.sprintf "Int %d" i
  | Atom.Float f -> Printf.sprintf "Float %h" f
  | Atom.Bool b -> Printf.sprintf "Bool %b" b
  | Atom.String s -> Printf.sprintf "String %S" s

(* [Atom.of_bytes] on [s] set between bytes that would change the
   value if it read past the slice. *)
let of_bytes_between ~pad s =
  let b = Bytes.of_string (pad ^ s ^ pad) in
  Atom.of_bytes b (String.length pad) (String.length s)

(* --- Atoms -------------------------------------------------------------- *)

let atom_tests =
  [
    Alcotest.test_case "of_string int" `Quick (fun () ->
        checkb "int" true (Atom.of_string "42" = Atom.Int 42));
    Alcotest.test_case "of_string float" `Quick (fun () ->
        checkb "float" true (Atom.of_string "4.5" = Atom.Float 4.5));
    Alcotest.test_case "of_string bool" `Quick (fun () ->
        checkb "bool" true (Atom.of_string "true" = Atom.Bool true));
    Alcotest.test_case "of_string string" `Quick (fun () ->
        checkb "string" true (Atom.of_string "John Smith" = Atom.String "John Smith"));
    Alcotest.test_case "to_string integral float has no decoration" `Quick (fun () ->
        checks "10875" "10875" (Atom.to_string (Atom.Float 10875.)));
    Alcotest.test_case "to_string fractional float" `Quick (fun () ->
        checks "2.5" "2.5" (Atom.to_string (Atom.Float 2.5)));
    Alcotest.test_case "of_string reads only XML decimal and double forms" `Quick
      (fun () ->
        let show = show_atom in
        List.iter
          (fun (s, want) -> checks s (show want) (show (Atom.of_string s)))
          [
            (* OCaml literal syntax stays text *)
            ("0x10", Atom.String "0x10");
            ("0o7", Atom.String "0o7");
            ("0b1", Atom.String "0b1");
            ("0u5", Atom.String "0u5");
            ("1_000", Atom.String "1_000");
            ("_1", Atom.String "_1");
            ("0x1p3", Atom.String "0x1p3");
            ("Infinity", Atom.String "Infinity");
            ("inf", Atom.String "inf");
            ("-inf", Atom.String "-inf");
            ("INF", Atom.String "INF");
            ("nan", Atom.String "nan");
            ("NaN", Atom.String "NaN");
            ("1e400", Atom.String "1e400");
            (* leading zeros and signs *)
            ("007", Atom.Int 7);
            ("-007", Atom.Int (-7));
            ("+5", Atom.Int 5);
            ("-0", Atom.Int 0);
            ("4611686018427387903", Atom.Int max_int);
            ("-4611686018427387904", Atom.Int min_int);
            ("4611686018427387904", Atom.Float 0x1p62);
            ("+5.5", Atom.Float 5.5);
            ("-.5", Atom.Float (-0.5));
            ("5.", Atom.Float 5.);
            ("00.5", Atom.Float 0.5);
            (* exponents *)
            ("1e3", Atom.Float 1000.);
            ("1E+3", Atom.Float 1000.);
            ("1.e-3", Atom.Float 0.001);
            ("1e", Atom.String "1e");
            (".e3", Atom.String ".e3");
            (* whitespace: leading reads as a float, trailing as text *)
            (" 5", Atom.Float 5.);
            ("\t-5", Atom.Float (-5.));
            ("5 ", Atom.String "5 ");
            ("- 5", Atom.String "- 5");
            (* neither numbers nor booleans *)
            (".", Atom.String ".");
            ("-", Atom.String "-");
            ("", Atom.String "");
            ("True", Atom.String "True");
            ("false", Atom.Bool false);
          ]);
    Alcotest.test_case "of_bytes types a slice as of_string types its copy" `Quick
      (fun () ->
        List.iter
          (fun (s, want) ->
            checks s (show_atom want) (show_atom (Atom.of_string s));
            List.iter
              (fun pad -> checks (pad ^ "|" ^ s) (show_atom want) (show_atom (of_bytes_between ~pad s)))
              [ ""; "9"; "x"; " "; "e5" ])
          [
            ("+5", Atom.Int 5);
            ("007", Atom.Int 7);
            ("-", Atom.String "-");
            ("4611686018427387903", Atom.Int max_int);
            ("4611686018427387904", Atom.Float 0x1p62);
            ("-4611686018427387904", Atom.Int min_int);
            ("-4611686018427387905", Atom.Float (-0x1p62));
            ("99999999999999999999", Atom.Float 1e20);
            (" 12", Atom.Float 12.);
            ("1e5", Atom.Float 1e5);
            ("0x10", Atom.String "0x10");
            ("true", Atom.Bool true);
            ("false", Atom.Bool false);
            ("tru", Atom.String "tru");
            ("", Atom.String "");
            ("R&amp;D", Atom.String "R&amp;D");
          ];
        checkb "out of range" true
          (match Atom.of_bytes (Bytes.of_string "12") 1 2 with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "to_string prints the shortest float that reads back" `Quick
      (fun () ->
        List.iter
          (fun (f, want) ->
            let got = Atom.to_string (Atom.Float f) in
            checks want want got;
            checkb (want ^ " reads back") true (Float.equal (float_of_string got) f))
          [
            (3.14159265, "3.14159265");
            (1234567.25, "1234567.25");
            (0.1, "0.1");
            (0.1 +. 0.2, "0.30000000000000004");
            (1. /. 3., "0.3333333333333333");
            (12204.485714285714, "12204.485714285714");
            (1e20, "1e+20");
            (-0., "-0");
          ]);
    Alcotest.test_case "source values print back unchanged" `Quick (fun () ->
        List.iter
          (fun s -> checks s s (Atom.to_string (Atom.of_string s)))
          [ "3.14159265"; "1234567.25"; "1_000"; "Infinity"; "0x10"; "16"; "-7"; "0.001" ]);
    Alcotest.test_case "numeric promotion in equal" `Quick (fun () ->
        checkb "3 = 3.0" true (Atom.equal (Atom.Int 3) (Atom.Float 3.)));
    Alcotest.test_case "string <> int" `Quick (fun () ->
        checkb "\"3\" <> 3" false (Atom.equal (Atom.String "3") (Atom.Int 3)));
    Alcotest.test_case "compare numeric cross-kind" `Quick (fun () ->
        checkb "2 < 2.5" true (Atom.compare (Atom.Int 2) (Atom.Float 2.5) < 0));
    Alcotest.test_case "compare is total and consistent" `Quick (fun () ->
        let atoms =
          [ Atom.Int 1; Atom.Float 1.5; Atom.String "a"; Atom.Bool true ]
        in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                checki "antisym" (compare (Atom.compare a b) 0)
                  (compare 0 (Atom.compare b a)))
              atoms)
          atoms);
    Alcotest.test_case "to_float" `Quick (fun () ->
        checkb "int" true (Atom.to_float (Atom.Int 2) = Some 2.);
        checkb "string" true (Atom.to_float (Atom.String "x") = None));
  ]

(* --- Join-key normalisation ------------------------------------------------

   [Atom.key] is the single normalisation behind the plan layer's hash
   joins and both backends' grouping/dedup keys; these cases pin its
   equality semantics so a drive-by "simplification" cannot silently
   change what joins. *)

let key_tests =
  [
    Alcotest.test_case "int and float promote to one key" `Quick (fun () ->
        checkb "3 / 3.0" true (Atom.key (Atom.Int 3) = Atom.key (Atom.Float 3.)));
    Alcotest.test_case "string never joins a number" `Quick (fun () ->
        checkb "\"3\" / 3" false (Atom.key (Atom.String "3") = Atom.key (Atom.Int 3)));
    Alcotest.test_case "0. and -0. are one key" `Quick (fun () ->
        (* [Float.equal] holds on signed zeros, so [Atom.equal] does,
           so the key must too — a finer key would make hash joins
           miss matches the naive oracle emits. *)
        checkb "signed zeros" true
          (Atom.key (Atom.Float 0.) = Atom.key (Atom.Float (-0.))));
    Alcotest.test_case "all NaNs are one key" `Quick (fun () ->
        checkb "nan payloads" true
          (Atom.key (Atom.Float Float.nan) = Atom.key (Atom.Float (0. /. 0.))));
    Alcotest.test_case "key equality coincides with Atom.equal" `Quick (fun () ->
        (* On atoms inside the exact float range the two notions must
           agree in both directions. *)
        let samples =
          [
            Atom.Int 0; Atom.Int 3; Atom.Int (-7); Atom.Float 3.; Atom.Float 2.5;
            Atom.Float 0.; Atom.Float (-0.); Atom.String ""; Atom.String "3";
            Atom.String "a"; Atom.Bool true; Atom.Bool false;
          ]
        in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                checkb
                  (Printf.sprintf "%s / %s" (Atom.to_string a) (Atom.to_string b))
                  (Atom.equal a b)
                  (Atom.key a = Atom.key b))
              samples)
          samples);
    Alcotest.test_case "beyond 2^53 keys coarsen but equal stays exact" `Quick
      (fun () ->
        (* 2^53 and 2^53 + 1 share a float image, hence a key; the
           atoms themselves stay distinct, which is why every hash
           consumer re-checks the original predicate per hit. *)
        let p53 = 9007199254740992 in
        checkb "keys collide" true
          (Atom.key (Atom.Int p53) = Atom.key (Atom.Int (p53 + 1)));
        checkb "equal distinguishes" false
          (Atom.equal (Atom.Int p53) (Atom.Int (p53 + 1))));
  ]

(* --- Parser -------------------------------------------------------------- *)

let parse = Parser.parse_string

let parser_tests =
  [
    Alcotest.test_case "element with attributes" `Quick (fun () ->
        let doc = parse {|<a x="1" y="hello"/>|} in
        let e = Node.as_element doc in
        checks "tag" "a" e.tag;
        checkb "x" true (Node.attr e "x" = Some (Atom.Int 1));
        checkb "y" true (Node.attr e "y" = Some (Atom.String "hello")));
    Alcotest.test_case "nested elements and text" `Quick (fun () ->
        let doc = parse "<a><b>hi</b><b>ho</b></a>" in
        let e = Node.as_element doc in
        checki "2 bs" 2 (List.length (Node.children_named e "b"));
        let b = List.hd (Node.children_named e "b") in
        checkb "text" true (Node.text_value b = Some (Atom.String "hi")));
    Alcotest.test_case "whitespace between elements is dropped" `Quick (fun () ->
        let doc = parse "<a>\n  <b/>\n  <c/>\n</a>" in
        checki "2 children" 2 (List.length (Node.child_elements (Node.as_element doc))));
    Alcotest.test_case "mixed text is trimmed" `Quick (fun () ->
        let doc = parse "<a>  hello  </a>" in
        checkb "trimmed" true
          (Node.text_value (Node.as_element doc) = Some (Atom.String "hello")));
    Alcotest.test_case "entities decode" `Quick (fun () ->
        let doc = parse "<a>R&amp;D &lt;3 &#65;</a>" in
        checkb "decoded" true
          (Node.text_value (Node.as_element doc) = Some (Atom.String "R&D <3 A")));
    Alcotest.test_case "entities in attributes" `Quick (fun () ->
        let doc = parse {|<a x="a&quot;b"/>|} in
        checkb "decoded" true
          (Node.attr (Node.as_element doc) "x" = Some (Atom.String "a\"b")));
    Alcotest.test_case "comments are skipped" `Quick (fun () ->
        let doc = parse "<!-- head --><a><!-- inner --><b/></a><!-- tail -->" in
        checki "1 child" 1 (List.length (Node.child_elements (Node.as_element doc))));
    Alcotest.test_case "xml declaration is skipped" `Quick (fun () ->
        let doc = parse "<?xml version=\"1.0\"?><a/>" in
        checks "tag" "a" (Node.tag doc));
    Alcotest.test_case "DOCTYPE (with internal subset) is skipped" `Quick (fun () ->
        let doc =
          parse
            "<?xml version=\"1.0\"?><!DOCTYPE a [ <!ELEMENT a (b)> ]><a><b/></a>"
        in
        checki "1 child" 1 (List.length (Node.child_elements (Node.as_element doc))));
    Alcotest.test_case "CDATA is literal text" `Quick (fun () ->
        let doc = parse "<a><![CDATA[x < y & z]]></a>" in
        checkb "literal" true
          (Node.text_value (Node.as_element doc) = Some (Atom.String "x < y & z")));
    Alcotest.test_case "unterminated CDATA fails" `Quick (fun () ->
        checkb "error" true (Parser.parse_string_opt "<a><![CDATA[oops</a>" = None));
    Alcotest.test_case "single-quoted attributes" `Quick (fun () ->
        let doc = parse "<a x='1'/>" in
        checkb "x" true (Node.attr (Node.as_element doc) "x" = Some (Atom.Int 1)));
    Alcotest.test_case "mismatched closing tag fails" `Quick (fun () ->
        checkb "error" true (Parser.parse_string_opt "<a><b></a></b>" = None));
    Alcotest.test_case "unterminated element fails" `Quick (fun () ->
        checkb "error" true (Parser.parse_string_opt "<a><b>" = None));
    Alcotest.test_case "trailing content fails" `Quick (fun () ->
        checkb "error" true (Parser.parse_string_opt "<a/><b/>" = None));
    Alcotest.test_case "empty document fails" `Quick (fun () ->
        checkb "error" true (Parser.parse_string_opt "   " = None));
    Alcotest.test_case "error carries position" `Quick (fun () ->
        match Parser.parse_string "<a>\n<b x=></b></a>" with
        | exception Parser.Parse_error { line; _ } -> checki "line" 2 line
        | _ -> Alcotest.fail "expected a parse error");
  ]

(* --- Printers ------------------------------------------------------------ *)

let printer_tests =
  [
    Alcotest.test_case "compact roundtrip" `Quick (fun () ->
        let doc = parse {|<a x="1"><b>hi</b><c/></a>|} in
        let doc' = parse (Printer.to_string doc) in
        checkb "equal" true (Node.equal doc doc'));
    Alcotest.test_case "pretty roundtrip" `Quick (fun () ->
        let doc = parse {|<a x="1"><b>hi</b><c y="z &amp; w"/></a>|} in
        let doc' = parse (Printer.to_pretty_string doc) in
        checkb "equal" true (Node.equal doc doc'));
    Alcotest.test_case "escaping special characters" `Quick (fun () ->
        let doc = Node.elem "a" [ Node.text_string "x<y&z" ] in
        checks "escaped" "<a>x&lt;y&amp;z</a>" (Printer.to_string doc));
    Alcotest.test_case "attribute escaping" `Quick (fun () ->
        let doc = Node.elem ~attrs:[ ("q", Atom.String "a\"b") ] "a" [] in
        checks "escaped" {|<a q="a&quot;b"/>|} (Printer.to_string doc));
    Alcotest.test_case "tree rendering: leaf element" `Quick (fun () ->
        let doc = parse "<a><b>hi</b></a>" in
        checks "tree" "a---b = hi" (Printer.to_tree_string doc));
    Alcotest.test_case "tree rendering: attribute leaves and siblings" `Quick
      (fun () ->
        let doc = parse {|<t><d name="x"/><d name="y"/></t>|} in
        let s = Printer.to_tree_string doc in
        checkb "first inline" true
          (String.length s > 0 && String.sub s 0 6 = "t---d-");
        checkb "has last marker" true
          (String.length s > 0
          && String.index_opt s '`' <> None));
    (* Engine-generated instances have no depth bound, so every
       serializer must survive documents far deeper than any OCaml
       stack: these only pass because the printers run on explicit
       worklists. The compact and pretty printers run the full 100k
       levels (pretty with [indent:0] — per-level indentation makes
       its output quadratic in depth, ~20 GB at 100k); the ASCII-tree
       renderer builds each line by splicing, also quadratic, so it
       runs a shallower chain that still breaks naive recursion-per-
       level implementations long before it breaks the worklist. *)
    Alcotest.test_case "printers survive a 100k-deep chain" `Quick (fun () ->
        let chain depth =
          let rec build n acc =
            if n = 0 then acc else build (n - 1) (Node.elem "d" [ acc ])
          in
          build depth (Node.elem "leaf" [ Node.text_string "x" ])
        in
        let depth = 100_000 in
        let doc = chain depth in
        let compact = Printer.to_string doc in
        checki "compact length" ((depth * 7) + String.length "<leaf>x</leaf>")
          (String.length compact);
        checks "innermost" "<leaf>x</leaf>" (String.sub compact (depth * 3) 14);
        let pretty = Printer.to_pretty_string ~indent:0 doc in
        (* one open + one close line per chain level, one leaf line *)
        checki "pretty lines" ((2 * depth) + 1)
          (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 pretty);
        let tree = Printer.to_tree_string (chain 10_000) in
        checks "tree ends at the leaf" "leaf = x"
          (String.sub tree (String.length tree - 8) 8));
  ]

(* --- Node operations ------------------------------------------------------ *)

let node_tests =
  [
    Alcotest.test_case "size counts elements, attributes and text" `Quick (fun () ->
        let doc = parse {|<a x="1"><b>hi</b></a>|} in
        (* a + @x + b + text *)
        checki "size" 4 (Node.size doc));
    Alcotest.test_case "depth" `Quick (fun () ->
        checki "depth" 3 (Node.depth (parse "<a><b><c/></b></a>")));
    Alcotest.test_case "count_elements" `Quick (fun () ->
        let doc = parse "<a><b/><c><b/></c></a>" in
        checki "2 bs" 2 (Node.count_elements doc "b"));
    Alcotest.test_case "equal is order-sensitive" `Quick (fun () ->
        checkb "different order differs" false
          (Node.equal (parse "<a><b/><c/></a>") (parse "<a><c/><b/></a>")));
    Alcotest.test_case "equal_unordered ignores sibling order" `Quick (fun () ->
        checkb "same set" true
          (Node.equal_unordered (parse "<a><b/><c/></a>") (parse "<a><c/><b/></a>")));
    Alcotest.test_case "equal_unordered ignores attribute order" `Quick (fun () ->
        checkb "same attrs" true
          (Node.equal_unordered (parse {|<a x="1" y="2"/>|}) (parse {|<a y="2" x="1"/>|})));
    Alcotest.test_case "equal_unordered distinguishes multiplicity" `Quick (fun () ->
        checkb "counts matter" false
          (Node.equal_unordered (parse "<a><b/><b/></a>") (parse "<a><b/></a>")));
    Alcotest.test_case "equal_unordered is deep" `Quick (fun () ->
        checkb "nested sets" true
          (Node.equal_unordered
             (parse "<a><b><x/><y/></b></a>")
             (parse "<a><b><y/><x/></b></a>")));
    Alcotest.test_case "text_value concatenates" `Quick (fun () ->
        let e = Node.as_element (Node.elem "a" [ Node.text_string "x"; Node.text_string "y" ]) in
        checkb "xy" true (Node.text_value e = Some (Atom.String "xy")));
    Alcotest.test_case "as_element rejects text" `Quick (fun () ->
        checkb "raises" true
          (match Node.as_element (Node.text_string "t") with
           | exception Invalid_argument _ -> true
           | _ -> false));
  ]

(* --- Property tests -------------------------------------------------------- *)

let gen_atom =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Atom.Int i) small_int;
        map (fun s -> Atom.String s) (string_size ~gen:(char_range 'a' 'z') (1 -- 8));
        map (fun b -> Atom.Bool b) bool;
      ])

let gen_node =
  QCheck2.Gen.(
    sized_size (1 -- 4) @@ fix (fun self n ->
        let leaf = map (fun a -> Node.leaf "leaf" a) gen_atom in
        if n <= 0 then leaf
        else
          oneof
            [
              leaf;
              map2
                (fun attrs children ->
                  let attrs = List.mapi (fun i a -> (Printf.sprintf "a%d" i, a)) attrs in
                  Node.elem ~attrs "node" children)
                (list_size (0 -- 2) gen_atom)
                (list_size (0 -- 3) (self (n / 2)));
            ]))

let prop_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"parse (to_string n) is unchanged" gen_node
    (fun node ->
      match Parser.parse_string_opt (Printer.to_string node) with
      | Some node' -> Node.equal_unordered node node'
      | None -> false)

let prop_pretty_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"parse (to_pretty_string n) is unchanged" gen_node
    (fun node ->
      match Parser.parse_string_opt (Printer.to_pretty_string node) with
      | Some node' -> Node.equal_unordered node node'
      | None -> false)

let prop_size_below =
  QCheck2.Test.make ~count:200 ~name:"size_below l n is size n < l"
    QCheck2.Gen.(pair (0 -- 40) gen_node)
    (fun (limit, node) -> Node.size_below limit node = (Node.size node < limit))

let prop_canonical_reflexive =
  QCheck2.Test.make ~count:200 ~name:"equal_unordered is reflexive" gen_node
    (fun node -> Node.equal_unordered node node)

(* Random bytes drawn mostly from the characters the numeric forms and
   the booleans are made of, and a random slice of them. *)
let gen_slice =
  QCheck2.Gen.(
    let piece =
      oneof
        [
          oneofl [ "0"; "1"; "7"; "9"; "+"; "-"; "."; "e"; "E"; " "; "\t"; "\011"; "x"; "_" ];
          oneofl [ "true"; "false"; "4611686018427387904"; "0x"; "nan"; "&"; "&#49;" ];
          map (String.make 1) char;
        ]
    in
    map (String.concat "") (list_size (0 -- 12) piece) >>= fun s ->
    let n = String.length s in
    int_bound n >>= fun off ->
    int_bound (n - off) >>= fun len -> return (s, off, len))

let prop_of_bytes =
  QCheck2.Test.make ~count:5000 ~name:"of_bytes b off len = of_string (Bytes.sub_string b off len)"
    ~print:(fun (s, off, len) -> Printf.sprintf "%S off %d len %d" s off len)
    gen_slice
    (fun (s, off, len) ->
      let b = Bytes.of_string s in
      String.equal
        (show_atom (Atom.of_bytes b off len))
        (show_atom (Atom.of_string (Bytes.sub_string b off len))))

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip;
      prop_pretty_roundtrip;
      prop_canonical_reflexive;
      prop_size_below;
      prop_of_bytes;
    ]

(* --- Instance statistics ------------------------------------------------ *)

let stats_tests =
  [
    Alcotest.test_case "collect counts tags, depth and fan-out" `Quick (fun () ->
        let doc =
          parse
            {|<r a="1"><d><p x="1" y="2">t</p><p/><e>u</e></d><d><p/></d>text</r>|}
        in
        let st = Stats.collect doc in
        let count tag = Stats.tag_count st (Symbol.intern tag) in
        checki "nodes like Node.size" (Node.size doc) (Stats.node_count st);
        checki "elements" 7 (Stats.element_count st);
        checki "depth" 4 (Stats.depth st);
        checki "max fan-out" 3 (Stats.max_fanout st);
        checki "p" 3 (count "p");
        checki "d" 2 (count "d");
        checki "r" 1 (count "r");
        checki "absent tag" 0 (count "no-such-tag-in-this-document"));
    Alcotest.test_case "text_value reads every child shape" `Quick (fun () ->
        let value xml = Node.text_value (Node.as_element (parse xml)) in
        checkb "no children" true (value "<a/>" = None);
        checkb "one text" true (value "<a>5</a>" = Some (Atom.Int 5));
        checkb "one element" true (value "<a><b>5</b></a>" = None);
        checkb "text beside an element" true (value "<a><b/>x</a>" = Some (Atom.String "x"));
        checkb "texts concatenate" true
          (value "<a>x<b/>y</a>" = Some (Atom.String "xy")));
  ]

let () =
  Alcotest.run "xml"
    [
      ("atom", atom_tests);
      ("key", key_tests);
      ("parser", parser_tests);
      ("printer", printer_tests);
      ("node", node_tests);
      ("stats", stats_tests);
      ("properties", property_tests);
    ]
