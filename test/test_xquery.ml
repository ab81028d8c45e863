(* Tests for the Clip_xquery substrate: values, the evaluator over the
   FLWOR fragment, and the pretty-printer. *)

open Clip_xquery
module Atom = Clip_xml.Atom
module Node = Clip_xml.Node

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

let input =
  Clip_xml.Parser.parse_string
    {|<source>
        <dept><dname>ICT</dname>
          <Proj pid="1"><pname>Appliances</pname></Proj>
          <Proj pid="2"><pname>Robotics</pname></Proj>
          <regEmp pid="1"><ename>John</ename><sal>10000</sal></regEmp>
          <regEmp pid="2"><ename>Mark</ename><sal>10500</sal></regEmp>
        </dept>
        <dept><dname>Marketing</dname>
          <Proj pid="1"><pname>Brand</pname></Proj>
          <regEmp pid="1"><ename>Rich</ename><sal>30000</sal></regEmp>
        </dept>
      </source>|}

let run e =
  match Eval.run_result ~input e with
  | Ok v -> v
  | Error ds -> Alcotest.failf "run failed: %s" (Clip_diag.render_list ds)

(* The code of the first diagnostic a failing run reports. *)
let error_code e =
  match Eval.run_result ~input e with
  | Error (d :: _) -> d.Clip_diag.code
  | Error [] -> Alcotest.fail "Error without diagnostics"
  | Ok _ -> Alcotest.fail "run succeeded"

let atoms e = Value.atomize (run e)

let doc_path steps = Ast.path (Ast.Doc "source") steps

(* --- Value module ---------------------------------------------------------- *)

let value_tests =
  [
    Alcotest.test_case "atomize element takes its string value" `Quick (fun () ->
        let n = Node.elem "e" [ Node.leaf "a" (Atom.String "x"); Node.leaf "b" (Atom.String "y") ] in
        checkb "xy" true (Value.atomize [ Value.Node n ] = [ Atom.String "xy" ]));
    Alcotest.test_case "atomize re-types numeric strings" `Quick (fun () ->
        let n = Node.leaf "a" (Atom.Int 42) in
        checkb "42" true (Value.atomize [ Value.Node n ] = [ Atom.Int 42 ]));
    Alcotest.test_case "effective_bool" `Quick (fun () ->
        checkb "empty" false (Value.effective_bool []);
        checkb "node" true (Value.effective_bool [ Value.Node (Node.elem "a" []) ]);
        checkb "zero" false (Value.effective_bool [ Value.Atomic (Atom.Int 0) ]);
        checkb "string" true (Value.effective_bool [ Value.Atomic (Atom.String "x") ]);
        checkb "empty string" false (Value.effective_bool [ Value.Atomic (Atom.String "") ]);
        checkb "multi-atomic raises" true
          (match Value.effective_bool [ Value.Atomic (Atom.Int 1); Value.Atomic (Atom.Int 2) ] with
           | exception Invalid_argument _ -> true
           | _ -> false));
  ]

(* --- Paths ------------------------------------------------------------------- *)

let path_tests =
  [
    Alcotest.test_case "child steps" `Quick (fun () ->
        checki "2 depts" 2 (List.length (run (doc_path [ Ast.Child_step "dept" ]))));
    Alcotest.test_case "deep child steps" `Quick (fun () ->
        checki "3 projs" 3
          (List.length (run (doc_path [ Ast.Child_step "dept"; Ast.Child_step "Proj" ]))));
    Alcotest.test_case "attribute step atomizes" `Quick (fun () ->
        checkb "pids" true
          (atoms (doc_path [ Ast.Child_step "dept"; Ast.Child_step "Proj"; Ast.Attr_step "pid" ])
           = [ Atom.Int 1; Atom.Int 2; Atom.Int 1 ]));
    Alcotest.test_case "text step" `Quick (fun () ->
        checkb "dnames" true
          (atoms
             (doc_path [ Ast.Child_step "dept"; Ast.Child_step "dname"; Ast.Text_step ])
           = [ Atom.String "ICT"; Atom.String "Marketing" ]));
    Alcotest.test_case "missing step yields empty" `Quick (fun () ->
        checki "none" 0 (List.length (run (doc_path [ Ast.Child_step "bogus" ]))));
    Alcotest.test_case "wrong document root errors" `Quick (fun () ->
        checks "code" Clip_diag.Codes.xquery_eval
          (error_code (Ast.Doc "other")));
  ]

(* --- FLWOR -------------------------------------------------------------------- *)

let flwor_tests =
  [
    Alcotest.test_case "for iterates in document order" `Quick (fun () ->
        let q =
          Ast.flwor
            [ Ast.For ("d", doc_path [ Ast.Child_step "dept" ]) ]
            (Ast.path (Ast.var "d") [ Ast.Child_step "dname"; Ast.Text_step ])
        in
        checkb "names" true (atoms q = [ Atom.String "ICT"; Atom.String "Marketing" ]));
    Alcotest.test_case "nested for with correlation" `Quick (fun () ->
        let q =
          Ast.flwor
            [
              Ast.For ("d", doc_path [ Ast.Child_step "dept" ]);
              Ast.For ("p", Ast.path (Ast.var "d") [ Ast.Child_step "Proj" ]);
            ]
            (Ast.path (Ast.var "p") [ Ast.Attr_step "pid" ])
        in
        checki "3 pids" 3 (List.length (run q)));
    Alcotest.test_case "where filters" `Quick (fun () ->
        let q =
          Ast.flwor
            [
              Ast.For ("d", doc_path [ Ast.Child_step "dept" ]);
              Ast.For ("r", Ast.path (Ast.var "d") [ Ast.Child_step "regEmp" ]);
            ]
            ~where:
              (Ast.Cmp
                 ( Ast.Gt,
                   Ast.path (Ast.var "r") [ Ast.Child_step "sal"; Ast.Text_step ],
                   Ast.int 10400 ))
            (Ast.path (Ast.var "r") [ Ast.Child_step "ename"; Ast.Text_step ])
        in
        checkb "names" true (atoms q = [ Atom.String "Mark"; Atom.String "Rich" ]));
    Alcotest.test_case "let binds a whole sequence" `Quick (fun () ->
        let q =
          Ast.flwor
            [ Ast.Let ("ps", doc_path [ Ast.Child_step "dept"; Ast.Child_step "Proj" ]) ]
            (Ast.call "count" [ Ast.var "ps" ])
        in
        checkb "3" true (atoms q = [ Atom.Int 3 ]));
    Alcotest.test_case "general comparison is existential" `Quick (fun () ->
        (* some Proj/@pid equals some regEmp/@pid *)
        let q =
          Ast.Cmp
            ( Ast.Eq,
              doc_path [ Ast.Child_step "dept"; Ast.Child_step "Proj"; Ast.Attr_step "pid" ],
              doc_path [ Ast.Child_step "dept"; Ast.Child_step "regEmp"; Ast.Attr_step "pid" ] )
        in
        checkb "true" true (atoms q = [ Atom.Bool true ]));
    Alcotest.test_case "if/then/else" `Quick (fun () ->
        let q = Ast.If (Ast.Cmp (Ast.Lt, Ast.int 1, Ast.int 2), Ast.str "a", Ast.str "b") in
        checkb "a" true (atoms q = [ Atom.String "a" ]));
    Alcotest.test_case "unbound variable errors" `Quick (fun () ->
        checks "code" Clip_diag.Codes.xquery_eval
          (error_code (Ast.var "nope")));
  ]

(* --- Constructors ---------------------------------------------------------------- *)

let constructor_tests =
  [
    Alcotest.test_case "element with computed attribute" `Quick (fun () ->
        let q =
          Ast.elem ~attrs:[ ("n", Ast.str "x") ] "out" []
        in
        match run q with
        | [ Value.Node n ] ->
          checkb "attr" true (Node.attr (Node.as_element n) "n" = Some (Atom.String "x"))
        | _ -> Alcotest.fail "expected one node");
    Alcotest.test_case "absent attribute value drops the attribute" `Quick (fun () ->
        let q = Ast.elem ~attrs:[ ("n", doc_path [ Ast.Child_step "bogus" ]) ] "out" [] in
        match run q with
        | [ Value.Node n ] -> checkb "no attr" true (Node.attr (Node.as_element n) "n" = None)
        | _ -> Alcotest.fail "expected one node");
    Alcotest.test_case "enclosed sequence becomes children" `Quick (fun () ->
        let q = Ast.elem "out" [ doc_path [ Ast.Child_step "dept"; Ast.Child_step "Proj" ] ] in
        match run q with
        | [ Value.Node n ] ->
          checki "3 children" 3 (List.length (Node.child_elements (Node.as_element n)))
        | _ -> Alcotest.fail "expected one node");
    Alcotest.test_case "atomic content becomes text" `Quick (fun () ->
        let q = Ast.elem "out" [ Ast.int 5 ] in
        match run q with
        | [ Value.Node n ] ->
          checkb "text" true (Node.text_value (Node.as_element n) = Some (Atom.Int 5))
        | _ -> Alcotest.fail "expected one node");
  ]

(* --- Functions ---------------------------------------------------------------------- *)

let function_tests =
  [
    Alcotest.test_case "count" `Quick (fun () ->
        checkb "3" true
          (atoms (Ast.call "count" [ doc_path [ Ast.Child_step "dept"; Ast.Child_step "Proj" ] ])
           = [ Atom.Int 3 ]));
    Alcotest.test_case "sum / avg / min / max" `Quick (fun () ->
        let sals = doc_path [ Ast.Child_step "dept"; Ast.Child_step "regEmp"; Ast.Child_step "sal"; Ast.Text_step ] in
        checkb "sum" true (atoms (Ast.call "sum" [ sals ]) = [ Atom.Float 50500. ]);
        checkb "avg" true
          (match atoms (Ast.call "avg" [ sals ]) with
           | [ a ] -> Atom.to_float a = Some (50500. /. 3.)
           | _ -> false);
        checkb "min" true (atoms (Ast.call "min" [ sals ]) = [ Atom.Float 10000. ]);
        checkb "max" true (atoms (Ast.call "max" [ sals ]) = [ Atom.Float 30000. ]));
    Alcotest.test_case "aggregates on empty sequences" `Quick (fun () ->
        let none = doc_path [ Ast.Child_step "bogus" ] in
        checkb "sum 0" true (atoms (Ast.call "sum" [ none ]) = [ Atom.Int 0 ]);
        checkb "avg empty" true (run (Ast.call "avg" [ none ]) = []);
        checkb "min empty" true (run (Ast.call "min" [ none ]) = []));
    Alcotest.test_case "distinct-values preserves first occurrence order" `Quick
      (fun () ->
        let pids =
          doc_path [ Ast.Child_step "dept"; Ast.Child_step "Proj"; Ast.Attr_step "pid" ]
        in
        checkb "1,2" true
          (atoms (Ast.call "distinct-values" [ pids ]) = [ Atom.Int 1; Atom.Int 2 ]));
    Alcotest.test_case "concat" `Quick (fun () ->
        checkb "ab" true
          (atoms (Ast.call "concat" [ Ast.str "a"; Ast.str "b" ]) = [ Atom.String "ab" ]));
    Alcotest.test_case "string / number / empty / exists / not" `Quick (fun () ->
        checkb "string" true (atoms (Ast.call "string" [ Ast.int 7 ]) = [ Atom.String "7" ]);
        checkb "number" true (atoms (Ast.call "number" [ Ast.str "7" ]) = [ Atom.Float 7. ]);
        checkb "empty" true
          (atoms (Ast.call "empty" [ doc_path [ Ast.Child_step "bogus" ] ]) = [ Atom.Bool true ]);
        checkb "exists" true
          (atoms (Ast.call "exists" [ doc_path [ Ast.Child_step "dept" ] ]) = [ Atom.Bool true ]);
        checkb "not" true (atoms (Ast.call "not" [ Ast.int 0 ]) = [ Atom.Bool true ]));
    Alcotest.test_case "unknown function errors" `Quick (fun () ->
        checks "code" Clip_diag.Codes.xquery_eval
          (error_code (Ast.call "frobnicate" [ Ast.int 1 ])));
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        checkb "int add" true (atoms (Ast.Arith (Ast.Add, Ast.int 2, Ast.int 3)) = [ Atom.Int 5 ]);
        checkb "division" true
          (atoms (Ast.Arith (Ast.Div, Ast.int 7, Ast.int 2)) = [ Atom.Float 3.5 ]);
        checks "div by zero code" Clip_diag.Codes.xquery_eval
          (error_code (Ast.Arith (Ast.Div, Ast.int 1, Ast.int 0))));
  ]

(* --- Pretty printer ------------------------------------------------------------------- *)

let pretty_tests =
  [
    Alcotest.test_case "FLWOR layout" `Quick (fun () ->
        let q =
          Ast.flwor
            [ Ast.For ("d", doc_path [ Ast.Child_step "dept" ]) ]
            ~where:(Ast.Cmp (Ast.Gt, Ast.var "d", Ast.int 0))
            (Ast.var "d")
        in
        let s = Pretty.expr_to_string q in
        let contains needle =
          let n = String.length needle and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
          go 0
        in
        checkb "for clause" true (contains "for $d in source/dept");
        checkb "where clause" true (contains "where $d > 0");
        checkb "return clause" true (contains "return $d"));
    Alcotest.test_case "paths print with slashes" `Quick (fun () ->
        checks "path" "source/dept/@x"
          (Pretty.expr_to_string (doc_path [ Ast.Child_step "dept"; Ast.Attr_step "x" ])));
    Alcotest.test_case "text() prints" `Quick (fun () ->
        checks "path" "$d/dname/text()"
          (Pretty.expr_to_string
             (Ast.path (Ast.var "d") [ Ast.Child_step "dname"; Ast.Text_step ])));
    Alcotest.test_case "string literals are quoted" `Quick (fun () ->
        checks "lit" "\"hi\"" (Pretty.expr_to_string (Ast.str "hi")));
    Alcotest.test_case "constructors with static attributes" `Quick (fun () ->
        checks "elem" "<out name=\"x\"/>"
          (Pretty.expr_to_string (Ast.elem ~attrs:[ ("name", Ast.str "x") ] "out" [])));
  ]

let () =
  Alcotest.run "xquery"
    [
      ("value", value_tests);
      ("paths", path_tests);
      ("flwor", flwor_tests);
      ("constructors", constructor_tests);
      ("functions", function_tests);
      ("pretty", pretty_tests);
    ]
