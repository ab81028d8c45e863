(* Error-path tests: every parser and evaluator must report failures
   as [Clip_diag] diagnostics with the documented stable code and, for
   parsers, an accurate source span. These pin the exact codes so a
   refactor cannot silently reshuffle them. *)

module D = Clip_diag
module Node = Clip_xml.Node
module Atom = Clip_xml.Atom

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* [expect_code code result] — the result is an [Error] whose first
   diagnostic carries [code]; returns that diagnostic. *)
let expect_code ?(msg = "diagnostic code") code = function
  | Ok _ -> Alcotest.failf "%s: expected Error [%s], got Ok" msg code
  | Error [] -> Alcotest.failf "%s: Error with no diagnostics" msg
  | Error (d : D.t list) ->
    checks msg code (List.hd d).code;
    List.hd d

let expect_span ?(msg = "span") ~line ~col (d : D.t) =
  match d.span with
  | None -> Alcotest.failf "%s: diagnostic %s has no span" msg d.code
  | Some s ->
    checki (msg ^ ": line") line s.line;
    checki (msg ^ ": col") col s.col

(* --- Parsers: codes and spans ----------------------------------------- *)

let xml_tests =
  [
    Alcotest.test_case "mismatched tag is CLIP-XML-001 with a span" `Quick (fun () ->
        let d =
          expect_code D.Codes.xml_syntax
            (Clip_xml.Parser.parse_string_result "<a>\n  <b>x</c>\n</a>")
        in
        expect_span ~line:2 ~col:11 d);
    Alcotest.test_case "truncated document is CLIP-XML-001" `Quick (fun () ->
        ignore (expect_code D.Codes.xml_syntax (Clip_xml.Parser.parse_string_result "<a><b>")));
    Alcotest.test_case "legacy wrapper still raises Parse_error" `Quick (fun () ->
        match Clip_xml.Parser.parse_string "<a" with
        | _ -> Alcotest.fail "expected Parse_error"
        | exception Clip_xml.Parser.Parse_error _ -> ());
  ]

let schema_tests =
  [
    Alcotest.test_case "lexer error is CLIP-SCH-001 with a span" `Quick (fun () ->
        let d =
          expect_code D.Codes.schema_lexical
            (Clip_schema.Lexer.tokenize_result "schema s {\n  a ~ string\n}")
        in
        expect_span ~line:2 ~col:5 d);
    Alcotest.test_case "syntax error is CLIP-SCH-002" `Quick (fun () ->
        ignore
          (expect_code D.Codes.schema_syntax
             (Clip_schema.Dsl.parse_result "schema s { a: }")));
    Alcotest.test_case "unsupported XSD construct is CLIP-SCH-003" `Quick (fun () ->
        let xsd =
          "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\
           <xs:element name=\"r\" maxOccurs=\"lots\" type=\"xs:string\"/>\
           </xs:schema>"
        in
        ignore (expect_code D.Codes.xsd_unsupported (Clip_schema.Xsd.of_string_result xsd)));
    Alcotest.test_case "malformed XSD XML keeps the XML code" `Quick (fun () ->
        ignore (expect_code D.Codes.xml_syntax (Clip_schema.Xsd.of_string_result "<xs:schema>")));
  ]

let mapping_tests =
  [
    Alcotest.test_case "mapping syntax error is CLIP-MAP-001 with line" `Quick (fun () ->
        let src =
          "schema source { a [0..*] { v: int } }\n\
           schema target { t [0..*] { @x: int } }\n\
           mapping {\n\
          \  node n: source.a as -> target.t\n\
           }\n"
        in
        let d = expect_code D.Codes.mapping_syntax (Clip_core.Dsl.parse_result src) in
        (match d.span with
         | Some s -> checki "error on the node line" 4 s.line
         | None -> Alcotest.fail "mapping diagnostic has no span"));
    Alcotest.test_case "schema error inside a mapping file keeps CLIP-SCH code" `Quick
      (fun () ->
        let src = "schema source { a [9..1] { v: int } }" in
        match Clip_core.Dsl.parse_result src with
        | Ok _ -> Alcotest.fail "expected Error"
        | Error (d :: _) ->
          checkb "is a CLIP-SCH-* code" true
            (String.length d.D.code >= 8 && String.sub d.D.code 0 8 = "CLIP-SCH")
        | Error [] -> Alcotest.fail "no diagnostics");
  ]

let xquery_tests =
  [
    Alcotest.test_case "syntax error is CLIP-XQ-001 with a span" `Quick (fun () ->
        let d =
          expect_code D.Codes.xquery_syntax
            (Xquery_parser.parse_string_result "for $x in")
        in
        (match d.D.span with
         | Some _ -> ()
         | None -> Alcotest.fail "xquery diagnostic has no span"));
    Alcotest.test_case "huge integer literal is rejected, not crashed" `Quick (fun () ->
        ignore
          (expect_code D.Codes.xquery_syntax
             (Xquery_parser.parse_string_result "99999999999999999999999999")));
    Alcotest.test_case "unbound variable at eval is CLIP-XQ-002" `Quick (fun () ->
        match Xquery_parser.parse_string_result "$nope" with
        | Error ds -> Alcotest.failf "parse failed: %s" (D.render_list ds)
        | Ok e ->
          ignore
            (expect_code D.Codes.xquery_eval
               (Clip_xquery.Eval.run_result ~input:(Node.elem "doc" []) e)));
  ]

(* --- Compile and validity --------------------------------------------- *)

let compile_tests =
  [
    Alcotest.test_case "invalid mapping reports CLIP-VAL-* from to_tgd_result" `Quick
      (fun () ->
        (* The cram suite's bad.clip: a value mapping whose source sits
           inside a repeating element no builder iterates. *)
        let src =
          "schema s { a [0..*] { x: string  b [0..*] { y: string } } }\n\
           schema t { c [0..*] { @y: string } }\n\
           mapping {\n\
          \  node n: s.a as $a -> t.c\n\
          \  value s.a.b.y.value -> t.c.@y\n\
           }\n"
        in
        let m =
          match Clip_core.Dsl.parse_result src with
          | Ok m -> m
          | Error ds -> Alcotest.failf "fixture does not parse: %s" (D.render_list ds)
        in
        let d =
          expect_code
            (D.Codes.validity "unanchored-source")
            (Clip_core.Compile.to_tgd_result m)
        in
        checkb "validity diagnostic is an error" true (D.is_error d);
        (* diagnose collects the same issues without raising. *)
        checkb "diagnose reports errors" true (D.has_errors (Clip_core.Engine.diagnose m)));
    Alcotest.test_case "driverless value mapping compiles to CLIP-CMP-007" `Quick
      (fun () ->
        let src =
          "schema source { a [0..*] { v: int } }\n\
           schema target { t [1..1] { @x: int } }\n\
           mapping {\n\
          \  value source.a.v.value -> target.t.@x\n\
           }\n"
        in
        match Clip_core.Dsl.parse_result src with
        | Error ds -> Alcotest.failf "fixture does not parse: %s" (D.render_list ds)
        | Ok m ->
          ignore
            (expect_code D.Codes.compile_no_driver
               (Clip_core.Compile.to_tgd_unchecked_result m)));
    Alcotest.test_case "diagnose on a valid mapping is warning-free or warnings only"
      `Quick (fun () ->
        let src =
          "schema source { a [0..*] { v: int } }\n\
           schema target { t [0..*] { @x: int } }\n\
           mapping {\n\
          \  node n: source.a as $p -> target.t\n\
          \  value source.a.v.value -> target.t.@x\n\
           }\n"
        in
        match Clip_core.Dsl.parse_result src with
        | Error ds -> Alcotest.failf "fixture does not parse: %s" (D.render_list ds)
        | Ok m -> checkb "no errors" false (D.has_errors (Clip_core.Engine.diagnose m)));
  ]

(* --- Engine entry points ------------------------------------------------ *)

let parse_mapping src =
  match Clip_core.Dsl.parse_result src with
  | Ok m -> m
  | Error ds -> Alcotest.failf "fixture does not parse: %s" (D.render_list ds)

let codes = function
  | Ok _ -> Alcotest.fail "expected Error, got Ok"
  | Error ds -> List.map (fun (d : D.t) -> d.code) ds

let engine_tests =
  let module Engine = Clip_core.Engine in
  let module S = Clip_scenarios in
  [
    Alcotest.test_case "explain_result reports what run_result reports" `Quick
      (fun () ->
        (* A validity failure (no [b] under [s]) and Fig. 1's driverless
           value mapping (CLIP-CMP-007): EXPLAIN compiles like a run, so
           it must reject both with the run's diagnostics, on every
           backend. *)
        let invalid =
          parse_mapping
            "schema s { a [0..*] { x: string } }
             schema t { c [0..*] { @x: string } }
             mapping {
            \  node n: s.b as $a -> t.c
             }
"
        in
        let small = Clip_xml.Parser.parse_string "<s><a><x>hi</x></a></s>" in
        List.iter
          (fun (m, doc, first) ->
            List.iter
              (fun backend ->
                let run = codes (Engine.run_result ~backend m doc) in
                let explain = codes (Engine.explain_result ~backend m doc) in
                checks "first code" first (List.hd explain);
                Alcotest.(check (list string)) "same codes as run" run explain)
              [ `Tgd; `Xquery; `Rel ])
          [
            (invalid, small, D.Codes.validity "bad-input");
            (S.Figures.fig1_values, S.Deptdb.instance, D.Codes.compile_no_driver);
          ]);
    Alcotest.test_case "the universal-solution ablation is CLIP-ENG-001 off tgd"
      `Quick (fun () ->
        let sc = S.Figures.fig3 in
        let doc = S.Deptdb.instance in
        let text = Clip_xml.Printer.to_string doc in
        let minimum_cardinality = false in
        checkb "tgd runs the ablation" true
          (Result.is_ok (Engine.run_result ~minimum_cardinality sc.mapping doc));
        List.iter
          (fun backend ->
            let expect how r =
              ignore (expect_code ~msg:how D.Codes.ablation_backend r)
            in
            expect "whole"
              (Engine.run_result ~backend ~minimum_cardinality sc.mapping doc);
            expect "run raises Fail"
              (match Engine.run ~backend ~minimum_cardinality sc.mapping doc with
               | _ -> Ok ()
               | exception D.Fail ds -> Error ds);
            List.iter
              (fun mode ->
                expect "stream"
                  (Engine.run_stream_result ~backend ~minimum_cardinality ~mode
                     ~shard_bytes:64 sc.mapping
                     (Clip_xml.Stream.of_string text)))
              [ `Whole; `Sharded ])
          [ `Xquery; `Rel ]);
  ]

(* --- Resource limits --------------------------------------------------- *)

let deep_xml depth =
  let buf = Buffer.create (depth * 8) in
  for _ = 1 to depth do
    Buffer.add_string buf "<a>"
  done;
  Buffer.add_char buf 'x';
  for _ = 1 to depth do
    Buffer.add_string buf "</a>"
  done;
  Buffer.contents buf

let limit_tests =
  [
    Alcotest.test_case "oversized input is CLIP-LIM-001" `Quick (fun () ->
        let limits = { D.Limits.default with D.Limits.max_input_bytes = 8 } in
        ignore
          (expect_code D.Codes.limit_input_bytes
             (Clip_xml.Parser.parse_string_result ~limits "<a>hello world</a>")));
    Alcotest.test_case "deep XML is CLIP-LIM-002, not Stack_overflow" `Quick (fun () ->
        ignore
          (expect_code D.Codes.limit_xml_depth
             (Clip_xml.Parser.parse_string_result (deep_xml 100_000))));
    Alcotest.test_case "XML within the depth limit still parses" `Quick (fun () ->
        match Clip_xml.Parser.parse_string_result (deep_xml 50) with
        | Ok _ -> ()
        | Error ds -> Alcotest.failf "unexpected: %s" (D.render_list ds));
    Alcotest.test_case "deep XQuery parens are CLIP-LIM-003" `Quick (fun () ->
        let q = String.make 100_000 '(' ^ "1" ^ String.make 100_000 ')' in
        ignore
          (expect_code D.Codes.limit_recursion (Xquery_parser.parse_string_result q)));
    Alcotest.test_case "deep schema nesting is CLIP-LIM-003" `Quick (fun () ->
        let buf = Buffer.create (1 lsl 20) in
        Buffer.add_string buf "schema s ";
        for _ = 1 to 100_000 do
          Buffer.add_string buf "{ a "
        done;
        Buffer.add_string buf "{ x: string ";
        for _ = 0 to 100_000 do
          Buffer.add_char buf '}'
        done;
        ignore
          (expect_code D.Codes.limit_recursion
             (Clip_schema.Dsl.parse_result (Buffer.contents buf))));
    Alcotest.test_case "tgd engine step budget is CLIP-LIM-004" `Quick (fun () ->
        let src =
          "schema source { a [0..*] { v: int } }\n\
           schema target { t [0..*] { u [0..*] { @x: int } } }\n\
           mapping {\n\
          \  node n: source.a as $p, source.a as $q, source.a as $r -> target.t\n\
           }\n"
        in
        let m =
          match Clip_core.Dsl.parse_result src with
          | Ok m -> m
          | Error ds -> Alcotest.failf "fixture does not parse: %s" (D.render_list ds)
        in
        let items =
          List.init 60 (fun i -> Node.elem "a" [ Node.elem "v" [ Node.text (Atom.Int i) ] ])
        in
        let doc = Node.elem "source" items in
        let limits = { D.Limits.default with D.Limits.max_eval_steps = 10_000 } in
        let d =
          expect_code D.Codes.limit_eval_steps
            (Clip_core.Engine.run_result ~limits m doc)
        in
        checkb "limit diagnostics carry a hint" true (d.D.hints <> []);
        checkb "is_resource_limit recognises it" true (D.is_resource_limit d));
    Alcotest.test_case "step budget meters both plan modes (CLIP-LIM-004)" `Quick
      (fun () ->
        (* The streaming executor must keep ticking the step budget per
           enumerated binding under both plans — a hash join may *lower*
           the count (skipped bindings are never enumerated), never
           disable metering. *)
        let src =
          "schema source { a [0..*] { v: int } }\n\
           schema target { t [0..*] { u [0..*] { @x: int } } }\n\
           mapping {\n\
          \  node n: source.a as $p, source.a as $q, source.a as $r -> target.t\n\
           }\n"
        in
        let m =
          match Clip_core.Dsl.parse_result src with
          | Ok m -> m
          | Error ds -> Alcotest.failf "fixture does not parse: %s" (D.render_list ds)
        in
        let items =
          List.init 60 (fun i -> Node.elem "a" [ Node.elem "v" [ Node.text (Atom.Int i) ] ])
        in
        let doc = Node.elem "source" items in
        let limits = { D.Limits.default with D.Limits.max_eval_steps = 10_000 } in
        List.iter
          (fun plan ->
            let c = Clip_obs.Counters.create () in
            let ctx = Clip_run.create ~counters:c () in
            let d =
              expect_code D.Codes.limit_eval_steps
                (Clip_core.Engine.run_result ~ctx ~limits ~plan m doc)
            in
            checkb "budget diagnostics carry a hint" true (d.D.hints <> []);
            checkb "lim_ticks counts the enumerated bindings" true
              (c.Clip_obs.Counters.lim_ticks >= 10_000))
          [ `Indexed; `Auto ]);
    Alcotest.test_case "lim_ticks is the step budget, on every figure" `Quick
      (fun () ->
        (* A run that ticks n times with no limit succeeds under a
           budget of exactly n steps and fails one step short. *)
        let module S = Clip_scenarios in
        let run (sc : S.Figures.t) ~backend ~plan limits =
          let c = Clip_obs.Counters.create () in
          let r =
            Clip_core.Engine.run_result ~ctx:(Clip_run.create ~counters:c ())
              ~limits ~backend ~plan
              ~minimum_cardinality:sc.S.Figures.minimum_cardinality
              sc.S.Figures.mapping S.Deptdb.instance
          in
          (r, c.Clip_obs.Counters.lim_ticks)
        in
        List.iter
          (fun (sc : S.Figures.t) ->
            List.iter
              (fun (bname, backend) ->
                List.iter
                  (fun (pname, plan) ->
                    let what = Printf.sprintf "%s/%s/%s" sc.S.Figures.name bname pname in
                    let budget n = { D.Limits.unlimited with D.Limits.max_eval_steps = n } in
                    let n =
                      match run sc ~backend ~plan D.Limits.unlimited with
                      | Ok _, n -> n
                      | Error ds, _ -> Alcotest.failf "%s: %s" what (D.render_list ds)
                    in
                    (match run sc ~backend ~plan (budget n) with
                     | Ok _, ticks -> checki (what ^ ": ticks under a budget of n") n ticks
                     | Error ds, _ ->
                       Alcotest.failf "%s fails under a budget of its %d ticks: %s" what n
                         (D.render_list ds));
                    ignore
                      (expect_code ~msg:(what ^ ": budget n - 1") D.Codes.limit_eval_steps
                         (fst (run sc ~backend ~plan (budget (n - 1))))))
                  [ ("indexed", `Indexed); ("auto", `Auto) ])
              (if sc.S.Figures.minimum_cardinality then [ ("tgd", `Tgd); ("xquery", `Xquery) ]
               else [ ("tgd", `Tgd) ]))
          S.Figures.all);
    Alcotest.test_case "xquery eval step budget is CLIP-LIM-004" `Quick (fun () ->
        let q =
          "for $a in d/x for $b in d/x for $c in d/x for $e in d/x return 1"
        in
        let e =
          match Xquery_parser.parse_string_result q with
          | Ok e -> e
          | Error ds -> Alcotest.failf "fixture does not parse: %s" (D.render_list ds)
        in
        let input = Node.elem "d" (List.init 40 (fun _ -> Node.elem "x" [])) in
        let limits = { D.Limits.default with D.Limits.max_eval_steps = 5_000 } in
        ignore
          (expect_code D.Codes.limit_eval_steps
             (Clip_xquery.Eval.run_result ~limits ~input e)));
  ]

(* --- Rendering --------------------------------------------------------- *)

let render_tests =
  [
    Alcotest.test_case "to_string carries severity, code and position" `Quick (fun () ->
        let d =
          D.error ~span:(D.span ~line:3 ~col:7 ()) ~code:"CLIP-XML-001" "boom"
        in
        checks "to_string" "error[CLIP-XML-001] at line 3, column 7: boom"
          (D.to_string d));
    Alcotest.test_case "render points a caret at the offending column" `Quick (fun () ->
        let src = "line one\nline two oops\nline three" in
        let d =
          D.error
            ~span:(D.span ~line:2 ~col:10 ~end_col:14 ())
            ~hints:[ "try deleting it" ] ~code:"CLIP-TEST-001" "unexpected word"
        in
        let out = D.render ~src d in
        checkb "shows the source line" true
          (String.length out > 0
          && (let re = "line two oops" in
              let rec find i =
                i + String.length re <= String.length out
                && (String.sub out i (String.length re) = re || find (i + 1))
              in
              find 0));
        let caret_line = " 2 | line two oops" in
        let expect_caret = "   |          ^^^^" in
        let lines = String.split_on_char '\n' out in
        checkb "caret under the span" true
          (List.exists (String.equal caret_line) lines
          && List.exists (String.equal expect_caret) lines);
        checkb "hint is printed" true
          (List.exists (fun l -> l = "  hint: try deleting it") lines);
        checkb "render ends with a newline" true (out.[String.length out - 1] = '\n'));
    Alcotest.test_case "span_of_offset computes line and column" `Quick (fun () ->
        let src = "ab\ncde\nf" in
        let s = D.span_of_offset src 5 in
        checki "line" 2 s.D.line;
        checki "col" 3 s.D.col;
        checki "offset survives" 5 s.D.offset);
    Alcotest.test_case "render_list separates diagnostics with blank lines" `Quick
      (fun () ->
        let mk c = D.error ~code:c "m" in
        let out = D.render_list [ mk "CLIP-A"; mk "CLIP-B" ] in
        checks "joined" "error[CLIP-A]: m\n\nerror[CLIP-B]: m\n" out);
  ]

let () =
  Alcotest.run "diag"
    [
      ("xml-errors", xml_tests);
      ("schema-errors", schema_tests);
      ("mapping-errors", mapping_tests);
      ("xquery-errors", xquery_tests);
      ("compile-errors", compile_tests);
      ("engine-errors", engine_tests);
      ("limits", limit_tests);
      ("render", render_tests);
    ]
