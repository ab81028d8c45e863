(* Tests for the Clip_tgd substrate: terms, nested tgds, the
   well-formedness checker, the paper-notation printer, and the
   data-exchange evaluator. *)

module Path = Clip_schema.Path
module Term = Clip_tgd.Term
module Tgd = Clip_tgd.Tgd
module Eval = Clip_tgd.Eval
module Atom = Clip_xml.Atom
module Node = Clip_xml.Node

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

let path s =
  match Path.of_string s with
  | Ok p -> p
  | Error m -> Alcotest.failf "bad path %S: %s" s m

let xml = Clip_xml.Parser.parse_string

(* --- Terms --------------------------------------------------------------- *)

let term_tests =
  [
    Alcotest.test_case "of_path / to_string" `Quick (fun () ->
        checks "spelled" "source.dept.regEmp.@pid"
          (Term.expr_to_string (Term.of_path (path "source.dept.regEmp.@pid"))));
    Alcotest.test_case "reroot against a prefix" `Quick (fun () ->
        match Term.reroot ~var:"d" ~prefix:(path "source.dept") (path "source.dept.Proj.@pid") with
        | Some e -> checks "rerooted" "d.Proj.@pid" (Term.expr_to_string e)
        | None -> Alcotest.fail "expected a rerooted expression");
    Alcotest.test_case "reroot fails off-prefix" `Quick (fun () ->
        checkb "none" true
          (Term.reroot ~var:"d" ~prefix:(path "source.other") (path "source.dept") = None));
    Alcotest.test_case "reroot on the prefix itself is the bare variable" `Quick
      (fun () ->
        match Term.reroot ~var:"p" ~prefix:(path "s.a.b") (path "s.a.b") with
        | Some e -> checks "bare" "p" (Term.expr_to_string e)
        | None -> Alcotest.fail "expected Some");
    Alcotest.test_case "head and steps" `Quick (fun () ->
        let e = Term.proj (Term.var "x") [ Path.Child "a"; Path.Attr "b" ] in
        checkb "head" true (Term.head e = Term.Var "x");
        checkb "steps" true (Term.steps e = [ Path.Child "a"; Path.Attr "b" ]));
    Alcotest.test_case "vars of scalars" `Quick (fun () ->
        let s =
          Term.Fn ("concat", [ Term.E (Term.var "a"); Term.Const (Atom.Int 1);
                               Term.E (Term.proj (Term.var "b") [ Path.Value ]) ])
        in
        checkb "ab" true (Term.scalar_vars s = [ "a"; "b" ]));
    Alcotest.test_case "scalar printing" `Quick (fun () ->
        checks "fn" "concat(x.value, \"-\")"
          (Term.scalar_to_string
             (Term.Fn ("concat", [ Term.E (Term.proj (Term.var "x") [ Path.Value ]);
                                   Term.Const (Atom.String "-") ]))));
  ]

(* --- Tgd structure -------------------------------------------------------- *)

let simple_tgd =
  (* forall d in source.dept, r in d.regEmp | r.sal.value > 11000 ->
     exists d' in target.department (completion), e' in d'.employee |
     e'.@name = r.ename.value *)
  Tgd.make
    ~foralls:
      [
        Tgd.source_gen "d" (Term.of_path (path "source.dept"));
        Tgd.source_gen "r" (Term.proj (Term.var "d") [ Path.Child "regEmp" ]);
      ]
    ~cond:
      [
        Tgd.cmp
          (Term.E (Term.proj (Term.var "r") [ Path.Child "sal"; Path.Value ]))
          Tgd.Gt
          (Term.Const (Atom.Int 11000));
      ]
    ~exists:
      [
        Tgd.completion "d'" (Term.of_path (path "target.department"));
        Tgd.driven "e'" (Term.proj (Term.var "d'") [ Path.Child "employee" ]);
      ]
    ~assertions:
      [
        Tgd.St_eq
          ( Term.proj (Term.var "e'") [ Path.Attr "name" ],
            Term.E (Term.proj (Term.var "r") [ Path.Child "ename"; Path.Value ]) );
      ]
    ()

let structure_tests =
  [
    Alcotest.test_case "mapping_count" `Quick (fun () ->
        checki "1" 1 (Tgd.mapping_count simple_tgd);
        let nested = Tgd.make ~children:[ simple_tgd; simple_tgd ] () in
        checki "3" 3 (Tgd.mapping_count nested));
    Alcotest.test_case "function_symbols collects group-by and aggregates" `Quick
      (fun () ->
        let m =
          Tgd.make
            ~exists:
              [
                Tgd.grouped "p'" (Term.of_path (path "t.p"))
                  ~keys:[ Term.E (Term.var "x") ];
              ]
            ~assertions:[ Tgd.Agg (Term.var "p'", Tgd.Avg, Term.var "x") ]
            ()
        in
        Alcotest.(check (list string)) "symbols" [ "group-by"; "avg" ]
          (Tgd.function_symbols m));
    Alcotest.test_case "alpha_equal ignores variable names" `Quick (fun () ->
        let rename =
          Tgd.make
            ~foralls:[ Tgd.source_gen "x" (Term.of_path (path "source.dept")) ]
            ~exists:[ Tgd.driven "y" (Term.of_path (path "target.department")) ]
            ()
        in
        let rename2 =
          Tgd.make
            ~foralls:[ Tgd.source_gen "a" (Term.of_path (path "source.dept")) ]
            ~exists:[ Tgd.driven "b" (Term.of_path (path "target.department")) ]
            ()
        in
        checkb "equal" true (Tgd.alpha_equal rename rename2));
    Alcotest.test_case "alpha_equal distinguishes structure" `Quick (fun () ->
        let m1 =
          Tgd.make ~foralls:[ Tgd.source_gen "x" (Term.of_path (path "s.a")) ] ()
        in
        let m2 =
          Tgd.make ~foralls:[ Tgd.source_gen "x" (Term.of_path (path "s.b")) ] ()
        in
        checkb "different" false (Tgd.alpha_equal m1 m2));
    Alcotest.test_case "alpha_equal distinguishes modes" `Quick (fun () ->
        let d = Tgd.make ~exists:[ Tgd.driven "y" (Term.of_path (path "t.a")) ] () in
        let c = Tgd.make ~exists:[ Tgd.completion "y" (Term.of_path (path "t.a")) ] () in
        checkb "different" false (Tgd.alpha_equal d c));
  ]

(* --- Pretty ----------------------------------------------------------------- *)

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let pretty_tests =
  [
    Alcotest.test_case "ascii rendering of the simple tgd" `Quick (fun () ->
        let s = Clip_tgd.Pretty.to_string ~unicode:false simple_tgd in
        checkb "forall" true (contains s "forall d in source.dept, r in d.regEmp");
        checkb "cond" true (contains s "r.sal.value > 11000");
        checkb "exists" true (contains s "exists d' in target.department, e' in d'.employee");
        checkb "assertion" true (contains s "e'.@name = r.ename.value"));
    Alcotest.test_case "unicode rendering uses the paper's symbols" `Quick (fun () ->
        let s = Clip_tgd.Pretty.to_string simple_tgd in
        checkb "forall" true (contains s "\xe2\x88\x80");
        checkb "exists" true (contains s "\xe2\x88\x83"));
    Alcotest.test_case "group-by prints the second-order prefix" `Quick (fun () ->
        let m =
          Tgd.make
            ~foralls:[ Tgd.source_gen "p" (Term.of_path (path "s.p")) ]
            ~exists:
              [
                Tgd.grouped "p'" (Term.of_path (path "t.q"))
                  ~keys:[ Term.E (Term.proj (Term.var "p") [ Path.Value ]) ];
              ]
            ()
        in
        let s = Clip_tgd.Pretty.to_string ~unicode:false m in
        checkb "prefix" true (contains s "exists group-by (");
        checkb "skolem" true (contains s "p' = group-by(_|_, [p.value])"));
    Alcotest.test_case "submappings print in brackets" `Quick (fun () ->
        let m = Tgd.make ~children:[ simple_tgd ] () in
        let s = Clip_tgd.Pretty.to_string ~unicode:false m in
        checkb "bracket" true (contains s "["));
  ]

(* --- Well-formedness ---------------------------------------------------------- *)

let wf ~m = Clip_tgd.Wellformed.check ~source_root:"source" ~target_root:"target" m

let wellformed_tests =
  [
    Alcotest.test_case "the simple tgd is well-formed" `Quick (fun () ->
        Alcotest.(check (list string))
          "no errors" []
          (List.map Clip_tgd.Wellformed.error_to_string (wf ~m:simple_tgd)));
    Alcotest.test_case "unbound source variable" `Quick (fun () ->
        let m =
          Tgd.make
            ~foralls:[ Tgd.source_gen "r" (Term.proj (Term.var "ghost") [ Path.Child "x" ]) ]
            ()
        in
        checkb "error" false (Clip_tgd.Wellformed.is_wellformed ~source_root:"source" ~target_root:"target" m));
    Alcotest.test_case "target expression in C1 is rejected" `Quick (fun () ->
        let m =
          Tgd.make
            ~foralls:[ Tgd.source_gen "d" (Term.of_path (path "source.dept")) ]
            ~exists:[ Tgd.driven "d'" (Term.of_path (path "target.department")) ]
            ~children:
              [
                Tgd.make
                  ~cond:[ Tgd.cmp (Term.E (Term.var "d'")) Tgd.Eq (Term.Const (Atom.Int 1)) ]
                  ();
              ]
            ()
        in
        checkb "error" false
          (Clip_tgd.Wellformed.is_wellformed ~source_root:"source" ~target_root:"target" m));
    Alcotest.test_case "membership with a constant right side is rejected" `Quick
      (fun () ->
        let m =
          Tgd.make
            ~foralls:[ Tgd.source_gen "d" (Term.of_path (path "source.dept")) ]
            ~cond:[ Tgd.cmp (Term.E (Term.var "d")) Tgd.In (Term.Const (Atom.Int 1)) ]
            ()
        in
        checkb "error" false
          (Clip_tgd.Wellformed.is_wellformed ~source_root:"source" ~target_root:"target" m));
    Alcotest.test_case "submappings see ancestor variables" `Quick (fun () ->
        let m =
          Tgd.make
            ~foralls:[ Tgd.source_gen "d" (Term.of_path (path "source.dept")) ]
            ~exists:[ Tgd.driven "d'" (Term.of_path (path "target.department")) ]
            ~children:
              [
                Tgd.make
                  ~foralls:[ Tgd.source_gen "r" (Term.proj (Term.var "d") [ Path.Child "regEmp" ]) ]
                  ~exists:[ Tgd.driven "e'" (Term.proj (Term.var "d'") [ Path.Child "employee" ]) ]
                  ();
              ]
            ()
        in
        checkb "ok" true
          (Clip_tgd.Wellformed.is_wellformed ~source_root:"source" ~target_root:"target" m));
    Alcotest.test_case "unknown schema root" `Quick (fun () ->
        let m = Tgd.make ~foralls:[ Tgd.source_gen "x" (Term.of_path (path "bogus.a")) ] () in
        checkb "error" false
          (Clip_tgd.Wellformed.is_wellformed ~source_root:"source" ~target_root:"target" m));
  ]

(* --- Evaluator ------------------------------------------------------------------ *)

let source_doc =
  xml
    {|<source>
        <dept><dname>ICT</dname>
          <regEmp pid="1"><ename>John</ename><sal>10000</sal></regEmp>
          <regEmp pid="2"><ename>Ann</ename><sal>12000</sal></regEmp>
        </dept>
        <dept><dname>Ops</dname>
          <regEmp pid="3"><ename>Rich</ename><sal>30000</sal></regEmp>
        </dept>
      </source>|}

let run_result ?minimum_cardinality m =
  Eval.run_result ?minimum_cardinality ~source:source_doc ~target_root:"target" m

let run ?minimum_cardinality m =
  match run_result ?minimum_cardinality m with
  | Ok out -> out
  | Error ds -> Alcotest.failf "run failed: %s" (Clip_diag.render_list ds)

(* The code of the first diagnostic a failing run reports. *)
let error_code m =
  match run_result m with
  | Error (d :: _) -> d.Clip_diag.code
  | Error [] -> Alcotest.fail "Error without diagnostics"
  | Ok _ -> Alcotest.fail "run succeeded"

let eval_tests =
  [
    Alcotest.test_case "completion creates one element (min-cardinality)" `Quick
      (fun () ->
        let out = run simple_tgd in
        checkb "expected" true
          (Node.equal out
             (xml
                {|<target><department><employee name="Ann"/><employee name="Rich"/></department></target>|})));
    Alcotest.test_case "universal-solution mode creates one parent per binding" `Quick
      (fun () ->
        let out = run ~minimum_cardinality:false simple_tgd in
        checki "2 departments" 2 (Node.count_elements out "department"));
    Alcotest.test_case "driven creates one element per binding, duplicates kept" `Quick
      (fun () ->
        let m =
          Tgd.make
            ~foralls:[ Tgd.source_gen "d" (Term.of_path (path "source.dept")) ]
            ~exists:[ Tgd.driven "d'" (Term.of_path (path "target.department")) ]
            ()
        in
        checki "2" 2 (Node.count_elements (run m) "department"));
    Alcotest.test_case "grouped memoises per key" `Quick (fun () ->
        let m =
          Tgd.make
            ~foralls:
              [
                Tgd.source_gen "d" (Term.of_path (path "source.dept"));
                Tgd.source_gen "r" (Term.proj (Term.var "d") [ Path.Child "regEmp" ]);
              ]
            ~exists:
              [
                Tgd.grouped "g'" (Term.of_path (path "target.g"))
                  ~keys:[ Term.E (Term.proj (Term.var "d") [ Path.Child "dname"; Path.Value ]) ];
              ]
            ()
        in
        checki "2 groups from 3 bindings" 2 (Node.count_elements (run m) "g"));
    Alcotest.test_case "conflicting assignments raise" `Quick (fun () ->
        let m =
          Tgd.make
            ~foralls:[ Tgd.source_gen "d" (Term.of_path (path "source.dept")) ]
            ~exists:[ Tgd.completion "t'" (Term.of_path (path "target.t")) ]
            ~assertions:
              [
                Tgd.St_eq
                  ( Term.proj (Term.var "t'") [ Path.Attr "x" ],
                    Term.E (Term.proj (Term.var "d") [ Path.Child "dname"; Path.Value ]) );
              ]
            ()
        in
        checks "code" Clip_diag.Codes.tgd_eval (error_code m));
    Alcotest.test_case "equal re-assignments are fine" `Quick (fun () ->
        let m =
          Tgd.make
            ~foralls:[ Tgd.source_gen "d" (Term.of_path (path "source.dept")) ]
            ~exists:[ Tgd.completion "t'" (Term.of_path (path "target.t")) ]
            ~assertions:
              [ Tgd.St_eq (Term.proj (Term.var "t'") [ Path.Attr "x" ], Term.Const (Atom.Int 1)) ]
            ()
        in
        checkb "one t with x=1" true
          (Node.equal (run m) (xml {|<target><t x="1"/></target>|})));
    Alcotest.test_case "aggregates: count, avg coerce to int when integral" `Quick
      (fun () ->
        let m =
          Tgd.make
            ~foralls:[ Tgd.source_gen "d" (Term.of_path (path "source.dept")) ]
            ~exists:[ Tgd.driven "d'" (Term.of_path (path "target.department")) ]
            ~assertions:
              [
                Tgd.Agg
                  ( Term.proj (Term.var "d'") [ Path.Attr "n" ],
                    Tgd.Count,
                    Term.proj (Term.var "d") [ Path.Child "regEmp" ] );
                Tgd.Agg
                  ( Term.proj (Term.var "d'") [ Path.Attr "avg" ],
                    Tgd.Avg,
                    Term.proj (Term.var "d") [ Path.Child "regEmp"; Path.Child "sal"; Path.Value ] );
              ]
            ()
        in
        checkb "expected" true
          (Node.equal (run m)
             (xml {|<target><department n="2" avg="11000"/><department n="1" avg="30000"/></target>|})));
    Alcotest.test_case "sum of empty set is 0; min/max/avg skip" `Quick (fun () ->
        let m =
          Tgd.make
            ~exists:[ Tgd.completion "t'" (Term.of_path (path "target.t")) ]
            ~assertions:
              [
                Tgd.Agg (Term.proj (Term.var "t'") [ Path.Attr "s" ], Tgd.Sum,
                         Term.of_path (path "source.nothing"));
                Tgd.Agg (Term.proj (Term.var "t'") [ Path.Attr "m" ], Tgd.Min,
                         Term.of_path (path "source.nothing"));
              ]
            ()
        in
        checkb "expected" true (Node.equal (run m) (xml {|<target><t s="0"/></target>|})));
    Alcotest.test_case "scalar functions: concat and arithmetic" `Quick (fun () ->
        let m =
          Tgd.make
            ~foralls:[ Tgd.source_gen "d" (Term.of_path (path "source.dept")) ]
            ~exists:[ Tgd.driven "d'" (Term.of_path (path "target.department")) ]
            ~assertions:
              [
                Tgd.St_eq
                  ( Term.proj (Term.var "d'") [ Path.Attr "label" ],
                    Term.Fn
                      ( "concat",
                        [
                          Term.E (Term.proj (Term.var "d") [ Path.Child "dname"; Path.Value ]);
                          Term.Const (Atom.String "!");
                        ] ) );
              ]
            ()
        in
        let out = run m in
        let first = List.hd (Node.children_named (Node.as_element out) "department") in
        checkb "concat" true (Node.attr first "label" = Some (Atom.String "ICT!")));
    Alcotest.test_case "membership comparison over singleton" `Quick (fun () ->
        let m =
          Tgd.make
            ~foralls:
              [
                Tgd.source_gen "d" (Term.of_path (path "source.dept"));
                Tgd.source_gen "d2" (Term.var "d");
              ]
            ~exists:[ Tgd.driven "t'" (Term.of_path (path "target.t")) ]
            ()
        in
        (* d2 in d ranges over the single member d *)
        checki "2 (one per dept)" 2 (Node.count_elements (run m) "t"));
    Alcotest.test_case "empty source sequence: value mapping is skipped" `Quick
      (fun () ->
        let m =
          Tgd.make
            ~foralls:[ Tgd.source_gen "d" (Term.of_path (path "source.dept")) ]
            ~exists:[ Tgd.driven "d'" (Term.of_path (path "target.department")) ]
            ~assertions:
              [
                Tgd.St_eq
                  ( Term.proj (Term.var "d'") [ Path.Attr "x" ],
                    Term.E (Term.proj (Term.var "d") [ Path.Child "missing"; Path.Value ]) );
              ]
            ()
        in
        let out = run m in
        let first = List.hd (Node.children_named (Node.as_element out) "department") in
        checkb "no attr" true (Node.attr first "x" = None));
    Alcotest.test_case "multi-valued value mapping errors" `Quick (fun () ->
        let m =
          Tgd.make
            ~foralls:[ Tgd.source_gen "d" (Term.of_path (path "source.dept")) ]
            ~exists:[ Tgd.driven "d'" (Term.of_path (path "target.department")) ]
            ~assertions:
              [
                Tgd.St_eq
                  ( Term.proj (Term.var "d'") [ Path.Attr "x" ],
                    Term.E
                      (Term.proj (Term.var "d")
                         [ Path.Child "regEmp"; Path.Child "ename"; Path.Value ]) );
              ]
            ()
        in
        checks "code" Clip_diag.Codes.tgd_eval (error_code m));
    Alcotest.test_case "intermediate singleton elements materialise on demand" `Quick
      (fun () ->
        let m =
          Tgd.make
            ~foralls:[ Tgd.source_gen "d" (Term.of_path (path "source.dept")) ]
            ~exists:[ Tgd.driven "d'" (Term.of_path (path "target.department")) ]
            ~assertions:
              [
                Tgd.St_eq
                  ( Term.proj (Term.var "d'") [ Path.Child "info"; Path.Attr "x" ],
                    Term.E (Term.proj (Term.var "d") [ Path.Child "dname"; Path.Value ]) );
              ]
            ()
        in
        let out = run m in
        let dep = List.hd (Node.children_named (Node.as_element out) "department") in
        let info = List.hd (Node.children_named dep "info") in
        checkb "x" true (Node.attr info "x" = Some (Atom.String "ICT")));
    Alcotest.test_case "wrong source root errors" `Quick (fun () ->
        let m = Tgd.make ~foralls:[ Tgd.source_gen "x" (Term.of_path (path "bogus.a")) ] () in
        checks "code" Clip_diag.Codes.tgd_eval (error_code m));
  ]

let () =
  Alcotest.run "tgd"
    [
      ("term", term_tests);
      ("structure", structure_tests);
      ("pretty", pretty_tests);
      ("wellformed", wellformed_tests);
      ("eval", eval_tests);
    ]
