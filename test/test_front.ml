(* The compile front end against its oracles (test/schema_oracle.ml):
   the tokenizer token for token and diagnostic for diagnostic, the
   path operations and the schema queries answer for answer; and the
   DSL's string constants round-tripping through [Dsl.to_string]. *)

open Clip_schema
module S = Clip_scenarios
module Dsl = Clip_core.Dsl
module Mapping = Clip_core.Mapping
module O = Schema_oracle

let checkb = Alcotest.(check bool)

(* --- Corpus --------------------------------------------------------------- *)

let clio_mapping (m : Mapping.t) =
  Clip_clio.Generate.to_clip m (Clip_clio.Generate.forest ~extension:true m)

(* Every figure and Table-I mapping, Table I both as given (values
   only) and with the CPT Clio generates for it. *)
let mappings =
  List.map (fun (f : S.Figures.t) -> f.mapping) S.Figures.all
  @ List.concat_map
      (fun (sc : S.Table1.scenario) -> [ sc.mapping; clio_mapping sc.mapping ])
      S.Table1.all

let schemas =
  List.concat_map (fun (m : Mapping.t) -> [ m.source; m.target ]) mappings
  @ [ S.Deptdb.source ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let example_dir = "../examples/mappings"

let example_texts =
  Sys.readdir example_dir |> Array.to_list |> List.sort String.compare
  |> List.filter (fun f -> Filename.check_suffix f ".clip")
  |> List.map (fun f -> (f, read_file (Filename.concat example_dir f)))

let texts =
  List.mapi (fun i m -> (Printf.sprintf "mapping %d" i, Dsl.to_string m)) mappings
  @ List.mapi (fun i s -> (Printf.sprintf "schema %d" i, Clip_schema.Dsl.to_string s)) schemas
  @ example_texts

(* --- Tokenizer ------------------------------------------------------------ *)

let same_lexing src =
  Lexer.tokenize_result src = O.tokenize_result src

let token_tests =
  [
    Alcotest.test_case "figure, Table I and fixture texts lex as before" `Quick
      (fun () ->
        List.iter
          (fun (name, src) ->
            (match Lexer.tokenize_result src with
             | Ok toks -> checkb (name ^ ": lexes") true (List.length toks > 1)
             | Error _ -> Alcotest.failf "%s does not lex" name);
            checkb name true (same_lexing src))
          texts);
    Alcotest.test_case "every lexical error keeps its code, message and span" `Quick
      (fun () ->
        List.iter
          (fun src ->
            (match Lexer.tokenize_result src with
             | Error [ d ] ->
               Alcotest.(check string) (src ^ ": code") "CLIP-SCH-001" d.Clip_diag.code
             | Ok _ | Error _ -> Alcotest.failf "%S should be one lexical error" src);
            checkb src true (same_lexing src))
          [
            "schema s { a: % }";
            "schema s {\n  a: string\n  ~b }";
            "a ! b";
            "a !";
            "\"open";
            "x\n  \"open \\\" still open";
            "x \"ends on a backslash\\";
            "99999999999999999999";
            "[1..4611686018427387904]";
            "\n\n   123456789012345678901234567890 ";
          ]);
    Alcotest.test_case "numbers at the edge of the fast path" `Quick (fun () ->
        List.iter
          (fun src -> checkb src true (same_lexing src))
          [
            "999999999999999999";
            "0000000000000000001";
            "4611686018427387903";
            "4611686018427387904";
            "1.5 1..2 3.25.4 007 0.000000000000000000001";
          ]);
  ]

(* Random texts over the DSL's characters. A backslash is only followed
   by [n], [t], a backslash or a quote: the escapes both tokenizers read
   alike. *)
let gen_text =
  let open QCheck2.Gen in
  let piece =
    oneof
      [
        map (String.make 1) (oneofl (List.init 26 (fun i -> Char.chr (97 + i))));
        oneofl
          [
            " "; "  "; "\n"; "\t"; "\r"; "#c\n"; "-"; "_"; "x-y"; "a1"; "Z";
            "0"; "42"; "3.5"; "1..2"; "99999999999999999999"; "\""; "\"s\"";
            "\\n"; "\\t"; "\\\\"; "\\\""; "!"; "!="; "->"; "<="; ">="; "<>"; "==";
            "{"; "}"; "["; "]"; "("; ")"; "<"; ">"; "="; "*"; "?"; "+"; "@";
            "."; ":"; ","; ";"; "$"; "|"; "/"; "%"; "~"; "\xc3\xa9";
          ];
      ]
  in
  map (String.concat "") (list_size (0 -- 40) piece)

let token_props =
  [
    QCheck2.Test.make ~count:2000 ~name:"random texts lex as before"
      ~print:(Printf.sprintf "%S") gen_text same_lexing;
  ]

(* --- Escapes ------------------------------------------------------------- *)

let lex_string src =
  match Lexer.tokenize_result src with
  | Ok [ { token = Lexer.String_lit s; _ }; { token = Lexer.Eof; _ } ] -> Ok s
  | Ok _ -> Error "not one string literal"
  | Error [ d ] ->
    let col = match d.Clip_diag.span with Some sp -> sp.Clip_diag.col | None -> 0 in
    Error (Printf.sprintf "%s at column %d" d.Clip_diag.code col)
  | Error _ -> Error "several diagnostics"

let escape_tests =
  let check_lex src expected =
    Alcotest.(check (result string string)) src expected (lex_string src)
  in
  [
    Alcotest.test_case "the escapes String.escaped writes" `Quick (fun () ->
        check_lex {|"a\\b\"c"|} (Ok "a\\b\"c");
        check_lex {|"\n\t\r\b"|} (Ok "\n\t\r\b");
        check_lex {|"caf\195\169"|} (Ok "caf\xc3\xa9");
        check_lex {|"\000\255"|} (Ok "\000\255"));
    Alcotest.test_case "any other escape is CLIP-SCH-001 at its backslash" `Quick
      (fun () ->
        check_lex {|"ab\q"|} (Error "CLIP-SCH-001 at column 4");
        check_lex {|"\256"|} (Error "CLIP-SCH-001 at column 2");
        check_lex {|"x\12"|} (Error "CLIP-SCH-001 at column 3");
        check_lex {|"\1a2"|} (Error "CLIP-SCH-001 at column 2");
        check_lex {|"\ "|} (Error "CLIP-SCH-001 at column 2"));
    Alcotest.test_case "a token after a two-line literal reports its own line" `Quick
      (fun () ->
        let src = "value \"a\nb\" x\n  y" in
        let positions =
          match Lexer.tokenize_result src with
          | Ok toks -> List.map (fun (t : Lexer.spanned) -> (t.line, t.column)) toks
          | Error ds -> Alcotest.fail (Clip_diag.render_list ds)
        in
        Alcotest.(check (list (pair int int)))
          "value, literal, x, y, eof" [ (1, 1); (1, 7); (2, 4); (3, 3); (3, 4) ] positions;
        checkb "the oracle agrees" true (same_lexing src));
    Alcotest.test_case "a constant with non-ASCII bytes prints and reads back" `Quick
      (fun () ->
        let m = S.Figures.fig3.mapping in
        let target = (List.hd m.values).vm_target in
        let m =
          { m with
            values =
              [ Mapping.value ~fn:(Mapping.Constant (Clip_xml.Atom.String "caf\xc3\xa9\r\b"))
                  [] target ] }
        in
        match Dsl.parse_result (Dsl.to_string m) with
        | Ok m' -> checkb "round trip" true (m' = m)
        | Error ds -> Alcotest.fail (Clip_diag.render_list ds));
  ]

(* Arbitrary bytes as a value-mapping constant and as a where-clause
   constant of fig4's mapping. *)
let with_constants (m : Mapping.t) s t =
  let node (n : Mapping.build_node) =
    let cond =
      match n.bn_inputs with
      | { in_var = Some v; _ } :: _ ->
        [
          {
            Mapping.p_left = Mapping.O_path (v, []);
            p_op = Clip_tgd.Tgd.Ne;
            p_right = Mapping.O_const (Clip_xml.Atom.String t);
          };
        ]
      | _ -> []
    in
    { n with bn_cond = n.bn_cond @ cond }
  in
  let values =
    List.map
      (fun (vm : Mapping.value_mapping) ->
        { vm with vm_fn = Mapping.Constant (Clip_xml.Atom.String s); vm_sources = [] })
      m.values
  in
  { m with roots = List.map node m.roots; values }

let escape_props =
  let any_bytes = QCheck2.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 24)) in
  [
    QCheck2.Test.make ~count:500 ~name:"string constants of any bytes round-trip"
      ~print:QCheck2.Print.(pair string string)
      (QCheck2.Gen.pair any_bytes any_bytes)
      (fun (s, t) ->
        let m = with_constants S.Figures.fig4.mapping s t in
        match Dsl.parse_result (Dsl.to_string m) with
        | Ok m' -> m' = m
        | Error _ -> false);
  ]

(* --- Paths and schema queries ------------------------------------------- *)

let names =
  List.sort_uniq String.compare
    ("zz" :: "value"
     :: List.concat_map
          (fun (s : Schema.t) ->
            List.concat_map
              (fun (p : Path.t) ->
                p.root
                :: List.map
                     (function Path.Child n | Path.Attr n -> n | Path.Value -> "value")
                     p.steps)
              (Schema.element_paths s @ Schema.leaf_paths s))
          schemas)

let schema_paths (s : Schema.t) = Schema.element_paths s @ Schema.leaf_paths s

let gen_step =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun n -> Path.Child n) (oneofl names));
        (2, map (fun n -> Path.Attr n) (oneofl names));
        (1, return Path.Value);
      ])

(* A path of [s]: drawn from the schema (possibly truncated, extended
   with a random step or moved to a wrong root) or entirely random,
   leaf steps anywhere included. *)
let gen_path (s : Schema.t) =
  let open QCheck2.Gen in
  let real = oneofl (schema_paths s) in
  frequency
    [
      (4, real);
      ( 2,
        map2
          (fun (p : Path.t) k -> { p with steps = List.filteri (fun i _ -> i < k) p.steps })
          real (0 -- 4) );
      (2, map2 (fun (p : Path.t) st -> { p with steps = p.steps @ [ st ] }) real gen_step);
      (1, map (fun (p : Path.t) -> { p with root = "elsewhere" }) real);
      ( 2,
        map2
          (fun root steps -> Path.make root steps)
          (oneofl [ s.root.name; s.root.name; "zz" ])
          (list_size (0 -- 5) gen_step) );
    ]

let gen_case =
  QCheck2.Gen.(
    oneofl schemas >>= fun s ->
    map2 (fun p q -> (s, p, q)) (gen_path s) (gen_path s))

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m
let sign x = Stdlib.compare x 0

let agrees (s, p, q) =
  let module P = O.Path_ref in
  let module R = O.Schema_ref in
  Path.parent p = P.parent p
  && Path.element_of p = P.element_of p
  && Path.element_prefixes p = P.element_prefixes p
  && Path.is_leaf p = P.ends_on_leaf p
  && Path.last_step p = P.last_step p
  && Path.equal p q = P.equal p q
  && Path.equal p p
  && sign (Path.compare p q) = sign (P.compare p q)
  && Path.is_prefix p q = P.is_prefix p q
  && Path.is_prefix p p = P.is_prefix p p
  && Path.strip_prefix ~prefix:p q = P.strip_prefix ~prefix:p q
  && outcome (fun () -> Path.append p q.steps) = outcome (fun () -> P.append p q.steps)
  && List.for_all
       (fun st -> outcome (fun () -> Path.append p [ st ]) = outcome (fun () -> P.append p [ st ]))
       [ Path.Child "c"; Path.Attr "a"; Path.Value ]
  && Schema.find s p = R.find s p
  && Schema.is_repeating s p = R.is_repeating s p
  && Schema.repeating_ancestors s p = R.repeating_ancestors s p
  && Schema.repeating_strictly_between s ~above:p ~below:q
     = R.repeating_strictly_between s ~above:p ~below:q
  && Schema.repeating_strictly_between s ~above:q ~below:p
     = R.repeating_strictly_between s ~above:q ~below:p
  && Schema.reference_between s p q = R.reference_between s p q

let print_case (_, p, q) = Path.to_string p ^ " / " ^ Path.to_string q

let path_tests =
  [
    Alcotest.test_case "every schema path pair agrees with the oracle" `Quick (fun () ->
        List.iter
          (fun s ->
            let ps = schema_paths s in
            List.iter
              (fun p ->
                List.iter
                  (fun q -> checkb (print_case (s, p, q)) true (agrees (s, p, q)))
                  ps)
              ps)
          schemas);
  ]

let path_props =
  [
    QCheck2.Test.make ~count:5000 ~name:"random paths agree with the oracle"
      ~print:print_case gen_case agrees;
  ]

let () =
  Alcotest.run "front"
    [
      ("tokens", token_tests @ List.map QCheck_alcotest.to_alcotest token_props);
      ("escapes", escape_tests @ List.map QCheck_alcotest.to_alcotest escape_props);
      ("paths", path_tests @ List.map QCheck_alcotest.to_alcotest path_props);
    ]
