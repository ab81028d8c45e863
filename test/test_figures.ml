(* End-to-end reproduction tests: every figure of the paper, on both
   execution backends, checked against the expected instances printed
   in the paper, plus backend agreement and target-schema conformance. *)

module S = Clip_scenarios
module Node = Clip_xml.Node
module Engine = Clip_core.Engine

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let run ?backend (sc : S.Figures.t) =
  Engine.run ?backend ~minimum_cardinality:sc.minimum_cardinality sc.mapping
    S.Deptdb.instance

let expected_tests =
  List.filter_map
    (fun (sc : S.Figures.t) ->
      match sc.expected with
      | None -> None
      | Some expected ->
        Some
          (Alcotest.test_case (sc.name ^ ": " ^ sc.title) `Quick (fun () ->
               let out = run sc in
               let ok =
                 if sc.ordered then Node.equal out expected
                 else Node.equal_unordered out expected
               in
               if not ok then
                 Alcotest.failf "mismatch.\n--- got:\n%s\n--- expected:\n%s"
                   (Clip_xml.Printer.to_tree_string out)
                   (Clip_xml.Printer.to_tree_string expected))))
    S.Figures.all

let backend_agreement_tests =
  List.filter_map
    (fun (sc : S.Figures.t) ->
      if not sc.minimum_cardinality then None
      else
        Some
          (Alcotest.test_case (sc.name ^ ": backends agree") `Quick (fun () ->
               let a = run ~backend:`Tgd sc in
               let b = run ~backend:`Xquery sc in
               if not (Node.equal a b) then
                 Alcotest.failf "backends disagree.\n--- tgd:\n%s\n--- xquery:\n%s"
                   (Clip_xml.Printer.to_tree_string a)
                   (Clip_xml.Printer.to_tree_string b))))
    S.Figures.all

(* Outputs conform to the target schemas (referential constraints do
   not apply to the targets, which declare none). *)
let conformance_tests =
  List.map
    (fun (sc : S.Figures.t) ->
      Alcotest.test_case (sc.name ^ ": output validates") `Quick (fun () ->
          let out = run sc in
          Alcotest.(check (list string))
            "valid" []
            (List.map Clip_schema.Validate.violation_to_string
               (Clip_schema.Validate.check sc.mapping.target out))))
    S.Figures.all

(* Paper-specific cardinality facts from the prose. *)
let cardinality_tests =
  [
    Alcotest.test_case "fig3 minimum cardinality: exactly one department" `Quick
      (fun () ->
        checki "1" 1 (Node.count_elements (run S.Figures.fig3) "department"));
    Alcotest.test_case "fig3 universal solution: one department per employee" `Quick
      (fun () ->
        checki "3" 3 (Node.count_elements (run S.Figures.fig3_universal) "department"));
    Alcotest.test_case "fig4 without the arc: employees repeat in all departments"
      `Quick (fun () ->
        let out = run S.Figures.fig4_nocontext in
        checki "2 departments" 2 (Node.count_elements out "department");
        checki "6 employees" 6 (Node.count_elements out "employee"));
    Alcotest.test_case "fig6: 7 join pairs" `Quick (fun () ->
        checki "7" 7 (Node.count_elements (run S.Figures.fig6) "project-emp"));
    Alcotest.test_case "fig6 without the join: per-dept Cartesian (8 + 6)" `Quick
      (fun () ->
        checki "14" 14 (Node.count_elements (run S.Figures.fig6_cartesian) "project-emp"));
    Alcotest.test_case "fig6 without the top node: global Cartesian (4 x 7)" `Quick
      (fun () ->
        checki "28" 28 (Node.count_elements (run S.Figures.fig6_global) "project-emp"));
    Alcotest.test_case "fig7: one project per distinct name" `Quick (fun () ->
        checki "3" 3 (Node.count_elements (run S.Figures.fig7) "project"));
    Alcotest.test_case "fig8: departments grouped under inverted projects" `Quick
      (fun () ->
        let out = run S.Figures.fig8 in
        checki "3 projects" 3 (Node.count_elements out "project");
        checki "4 departments" 4 (Node.count_elements out "department"));
    Alcotest.test_case "fig9: aggregates are exact" `Quick (fun () ->
        let out = run S.Figures.fig9 in
        let depts = Node.children_named (Node.as_element out) "department" in
        let ict = List.hd depts in
        checkb "avg-sal 10875" true
          (Node.attr ict "avg-sal" = Some (Clip_xml.Atom.Int 10875)));
  ]

(* The generated XQuery text embeds the paper's template shapes. *)
let xquery_text_tests =
  let contains s needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  [
    Alcotest.test_case "fig3: constant department wraps the FLWOR" `Quick (fun () ->
        let q = Engine.xquery_text S.Figures.fig3.mapping in
        let dep_pos =
          let rec find i = if String.sub q i 11 = "<department" then i else find (i + 1) in
          find 0
        in
        let for_pos =
          let rec find i = if String.sub q i 4 = "for " then i else find (i + 1) in
          find 0
        in
        checkb "department before for" true (dep_pos < for_pos));
    Alcotest.test_case "fig7: grouping template with distinct-values" `Quick (fun () ->
        let q = Engine.xquery_text S.Figures.fig7.mapping in
        checkb "context let" true (contains q "let $context");
        checkb "distinct-values" true (contains q "distinct-values");
        checkb "group let" true (contains q "let $group"));
    Alcotest.test_case "fig9: native aggregate calls" `Quick (fun () ->
        let q = Engine.xquery_text S.Figures.fig9.mapping in
        checkb "count" true (contains q "count($d/Proj)");
        checkb "avg" true (contains q "avg($d/regEmp/sal/text())"));
  ]

(* Every output element's interned symbol names its tag: the tgd
   builder and the shard rebuild construct elements from symbols they
   resolved earlier, never from the tag string. *)
let symbol_tests =
  [
    Alcotest.test_case "output symbols name their tags" `Quick (fun () ->
        let rec check where = function
          | Node.Text _ -> ()
          | Node.Element e ->
            if not (String.equal (Clip_xml.Symbol.name e.Node.sym) e.Node.tag) then
              Alcotest.failf "%s: <%s> carries the symbol of <%s>" where e.Node.tag
                (Clip_xml.Symbol.name e.Node.sym);
            List.iter (check where) e.Node.children
        in
        List.iter
          (fun (sc : S.Figures.t) ->
            List.iter
              (fun (backend, plan, mode) ->
                check sc.name
                  (Engine.run ~backend ~plan ~mode ~shard_bytes:64
                     ~minimum_cardinality:sc.minimum_cardinality sc.mapping S.Deptdb.instance))
              (List.concat_map
                 (fun backend ->
                   List.concat_map
                     (fun plan -> [ (backend, plan, `Whole); (backend, plan, `Sharded) ])
                     [ `Naive; `Indexed; `Auto ])
                 (* the universal-solution ablation runs on tgd only *)
                 (if sc.minimum_cardinality then [ `Tgd; `Xquery ] else [ `Tgd ])))
          S.Figures.all);
  ]

(* Robustness: running the figures over degenerate instances. *)
let robustness_tests =
  let empty_source = Clip_xml.Parser.parse_string "<source/>" in
  let one_dept =
    Clip_xml.Parser.parse_string
      {|<source><dept><dname>Solo</dname></dept></source>|}
  in
  [
    Alcotest.test_case "figures run on an empty source" `Quick (fun () ->
        List.iter
          (fun (sc : S.Figures.t) ->
            let out =
              Engine.run ~minimum_cardinality:sc.minimum_cardinality sc.mapping
                empty_source
            in
            checkb (sc.name ^ " empty-ish") true (Node.size out >= 1))
          S.Figures.all);
    Alcotest.test_case "figures run on a dept with no projects or employees" `Quick
      (fun () ->
        List.iter
          (fun (sc : S.Figures.t) ->
            ignore
              (Engine.run ~minimum_cardinality:sc.minimum_cardinality sc.mapping
                 one_dept))
          S.Figures.all);
    Alcotest.test_case "backends agree on degenerate instances too" `Quick (fun () ->
        List.iter
          (fun (sc : S.Figures.t) ->
            if sc.minimum_cardinality then begin
              let a = Engine.run ~backend:`Tgd sc.mapping one_dept in
              let b = Engine.run ~backend:`Xquery sc.mapping one_dept in
              checkb (sc.name ^ " agree") true (Node.equal a b)
            end)
          S.Figures.all);
    Alcotest.test_case "a wrong document root is a clean error on every backend"
      `Quick (fun () ->
        let wrong = Clip_xml.Parser.parse_string "<sauce><dept/></sauce>" in
        List.iter
          (fun (backend, code) ->
            match Engine.run_result ~backend S.Figures.fig4.mapping wrong with
            | Error (d :: _) -> Alcotest.(check string) "code" code d.Clip_diag.code
            | Error [] -> Alcotest.fail "Error without diagnostics"
            | Ok _ -> Alcotest.fail "a wrong document root ran")
          Clip_diag.Codes.
            [ (`Tgd, tgd_eval); (`Xquery, xquery_eval); (`Xquery_text, xquery_eval) ]);
    Alcotest.test_case "schema-invalid sources still transform (engines are lax)"
      `Quick (fun () ->
        (* a dept with no dname and a stray element: the engines copy
           what the mapping asks for and ignore the rest *)
        let messy =
          Clip_xml.Parser.parse_string
            {|<source><dept><bogus/>
                <regEmp pid="9"><ename>Zoe</ename><sal>99999</sal></regEmp>
              </dept></source>|}
        in
        checkb "instance is invalid" false
          (Clip_schema.Validate.is_valid S.Deptdb.source messy);
        let out = Engine.run S.Figures.fig3.mapping messy in
        checki "Zoe mapped" 1 (Node.count_elements out "employee"));
    Alcotest.test_case "missing optional leaves are skipped, not errors" `Quick
      (fun () ->
        let partial =
          Clip_xml.Parser.parse_string
            {|<source><dept><dname>D</dname>
                <regEmp pid="1"><ename>NoSal</ename></regEmp>
              </dept></source>|}
        in
        (* fig3 filters on sal; a regEmp without sal simply never
           satisfies the predicate *)
        let out = Engine.run S.Figures.fig3.mapping partial in
        checki "no employees" 0 (Node.count_elements out "employee"));
  ]

let () =
  Alcotest.run "figures"
    [
      ("expected-outputs", expected_tests);
      ("backend-agreement", backend_agreement_tests);
      ("schema-conformance", conformance_tests);
      ("cardinalities", cardinality_tests);
      ("xquery-text", xquery_text_tests);
      ("robustness", robustness_tests);
      ("symbols", symbol_tests);
    ]
