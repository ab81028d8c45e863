(* Tests for the extension modules: XSD import/export, the XQuery text
   parser (and the text-level engine backend), schema matching, lineage
   analysis and the renderer's focus filter. *)

module S = Clip_scenarios
module Path = Clip_schema.Path
module Node = Clip_xml.Node
module Atom = Clip_xml.Atom

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* The value of a run expected to succeed. *)
let ok = function
  | Ok v -> v
  | Error ds -> Alcotest.fail (Clip_diag.render_list ds)

let path s =
  match Path.of_string s with
  | Ok p -> p
  | Error m -> Alcotest.failf "bad path %S: %s" s m

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* --- XSD ------------------------------------------------------------------ *)

let xsd_tests =
  [
    Alcotest.test_case "running schema round-trips (with keyref)" `Quick (fun () ->
        let text = Clip_schema.Xsd.to_string S.Deptdb.source in
        checkb "has keyref" true (contains text "<xs:keyref");
        let s = Clip_schema.Xsd.of_string text in
        checkb "equal" true (s = S.Deptdb.source));
    Alcotest.test_case "figure targets round-trip" `Quick (fun () ->
        List.iter
          (fun s ->
            let s' = Clip_schema.Xsd.of_string (Clip_schema.Xsd.to_string s) in
            checkb "equal" true (s = s'))
          [
            S.Deptdb.target_dp;
            S.Deptdb.target_fig3;
            S.Deptdb.target_fig6;
            S.Deptdb.target_fig7;
            S.Deptdb.target_fig8;
            S.Deptdb.target_fig9;
            S.Generic.source;
            S.Generic.target;
          ]);
    Alcotest.test_case "hand-written XSD with simpleContent" `Quick (fun () ->
        let s =
          Clip_schema.Xsd.of_string
            {|<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
                <xs:element name="r">
                  <xs:complexType><xs:sequence>
                    <xs:element name="item" minOccurs="0" maxOccurs="unbounded">
                      <xs:complexType><xs:simpleContent>
                        <xs:extension base="xs:string">
                          <xs:attribute name="id" type="xs:int" use="required"/>
                        </xs:extension>
                      </xs:simpleContent></xs:complexType>
                    </xs:element>
                  </xs:sequence></xs:complexType>
                </xs:element>
              </xs:schema>|}
        in
        checkb "value" true
          (Clip_schema.Schema.leaf_type s (path "r.item.value")
           = Some Clip_schema.Atomic_type.T_string);
        checkb "attr" true
          (Clip_schema.Schema.leaf_type s (path "r.item.@id")
           = Some Clip_schema.Atomic_type.T_int);
        checkb "repeating" true (Clip_schema.Schema.is_repeating s (path "r.item")));
    Alcotest.test_case "descendant selector .// resolves uniquely" `Quick (fun () ->
        let s =
          Clip_schema.Xsd.of_string
            {|<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
                <xs:element name="r">
                  <xs:complexType><xs:sequence>
                    <xs:element name="a" maxOccurs="unbounded">
                      <xs:complexType>
                        <xs:attribute name="k" type="xs:int" use="required"/>
                      </xs:complexType>
                    </xs:element>
                    <xs:element name="b" maxOccurs="unbounded">
                      <xs:complexType>
                        <xs:attribute name="fk" type="xs:int" use="required"/>
                      </xs:complexType>
                    </xs:element>
                  </xs:sequence></xs:complexType>
                  <xs:key name="k1">
                    <xs:selector xpath=".//a"/><xs:field xpath="@k"/>
                  </xs:key>
                  <xs:keyref name="kr1" refer="k1">
                    <xs:selector xpath=".//b"/><xs:field xpath="@fk"/>
                  </xs:keyref>
                </xs:element>
              </xs:schema>|}
        in
        checki "1 ref" 1 (List.length s.refs);
        checkb "from b" true (Path.equal (List.hd s.refs).ref_from (path "r.b.@fk")));
    Alcotest.test_case "unsupported constructs are reported" `Quick (fun () ->
        List.iter
          (fun text ->
            checkb "raises" true
              (match Clip_schema.Xsd.of_string text with
               | exception Clip_schema.Xsd.Unsupported _ -> true
               | _ -> false))
          [
            {|<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"/>|};
            {|<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
                <xs:element name="r" type="xs:unknownType"/></xs:schema>|};
            {|<foo/>|};
          ]);
    Alcotest.test_case "XSD default attribute use is optional" `Quick (fun () ->
        let s =
          Clip_schema.Xsd.of_string
            {|<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
                <xs:element name="r">
                  <xs:complexType>
                    <xs:attribute name="x" type="xs:string"/>
                  </xs:complexType>
                </xs:element>
              </xs:schema>|}
        in
        match Clip_schema.Schema.find s (path "r.@x") with
        | Some (Clip_schema.Schema.Attr_ref (_, a)) ->
          checkb "optional" false a.attr_required
        | _ -> Alcotest.fail "attribute not found");
  ]

(* --- XQuery text parser ------------------------------------------------------ *)

let xquery_parser_tests =
  [
    Alcotest.test_case "generated queries parse and evaluate identically" `Quick
      (fun () ->
        List.iter
          (fun (sc : S.Figures.t) ->
            if sc.minimum_cardinality then begin
              let text = Clip_core.Engine.xquery_text sc.mapping in
              let q = Clip_xquery.Parser.parse_string text in
              let via_text =
                ok (Clip_xquery.Eval.run_document_result ~input:S.Deptdb.instance q)
              in
              let direct =
                Clip_core.Engine.run ~backend:`Xquery sc.mapping S.Deptdb.instance
              in
              checkb sc.name true (Node.equal via_text direct)
            end)
          S.Figures.all);
    Alcotest.test_case "pretty/parse round-trip preserves evaluation" `Quick
      (fun () ->
        let open Clip_xquery in
        let cases =
          [
            Ast.flwor
              [ Ast.For ("d", Ast.path (Ast.Doc "source") [ Ast.Child_step "dept" ]) ]
              ~where:
                (Ast.Cmp
                   ( Ast.Gt,
                     Ast.call "count" [ Ast.path (Ast.var "d") [ Ast.Child_step "Proj" ] ],
                     Ast.int 1 ))
              (Ast.path (Ast.var "d") [ Ast.Child_step "dname"; Ast.Text_step ]);
            Ast.Arith
              (Ast.Add, Ast.int 1, Ast.Arith (Ast.Mul, Ast.int 2, Ast.int 3));
            Ast.If (Ast.Cmp (Ast.Lt, Ast.int 1, Ast.int 2), Ast.str "y", Ast.str "n");
            Ast.call "distinct-values"
              [
                Ast.path (Ast.Doc "source")
                  [ Ast.Child_step "dept"; Ast.Child_step "Proj"; Ast.Attr_step "pid" ];
              ];
          ]
        in
        List.iter
          (fun q ->
            let q' = Parser.parse_string (Pretty.query_to_string q) in
            checkb "same value" true
              (Value.equal
                 (ok (Eval.run_result ~input:S.Deptdb.instance q))
                 (ok (Eval.run_result ~input:S.Deptdb.instance q'))))
          cases);
    Alcotest.test_case "paper-style unquoted attribute braces" `Quick (fun () ->
        let q =
          Clip_xquery.Parser.parse_string
            {|for $d in source/dept return <department name={$d/dname/text()} numProj={count($d/Proj)}/>|}
        in
        let out = ok (Clip_xquery.Eval.run_result ~input:S.Deptdb.instance q) in
        checki "2 departments" 2 (List.length out));
    Alcotest.test_case "quoted attribute value templates" `Quick (fun () ->
        let q =
          Clip_xquery.Parser.parse_string {|<x a="{ 1 + 2 }" b="static"/>|}
        in
        match ok (Clip_xquery.Eval.run_result ~input:S.Deptdb.instance q) with
        | [ Clip_xquery.Value.Node n ] ->
          let e = Node.as_element n in
          checkb "computed" true (Node.attr e "a" = Some (Atom.Int 3));
          checkb "static" true (Node.attr e "b" = Some (Atom.String "static"))
        | _ -> Alcotest.fail "expected one node");
    Alcotest.test_case "comments, sequences and nested constructors" `Quick
      (fun () ->
        let q =
          Clip_xquery.Parser.parse_string
            {|(: outer (: nested :) comment :)
              <out>{ (1, 2, 3) }<inner/></out>|}
        in
        match ok (Clip_xquery.Eval.run_result ~input:S.Deptdb.instance q) with
        | [ Clip_xquery.Value.Node n ] ->
          let e = Node.as_element n in
          checki "1 inner" 1 (List.length (Node.children_named e "inner"))
        | _ -> Alcotest.fail "expected one node");
    Alcotest.test_case "dashed names parse; spaced minus is subtraction" `Quick
      (fun () ->
        let q = Clip_xquery.Parser.parse_string "<x avg-sal={ 5 - 2 }/>" in
        match ok (Clip_xquery.Eval.run_result ~input:S.Deptdb.instance q) with
        | [ Clip_xquery.Value.Node n ] ->
          checkb "3" true (Node.attr (Node.as_element n) "avg-sal" = Some (Atom.Int 3))
        | _ -> Alcotest.fail "expected one node");
    Alcotest.test_case "errors are positioned and recoverable" `Quick (fun () ->
        checkb "none" true (Clip_xquery.Parser.parse_string_opt "for $x" = None);
        checkb "trailing" true (Clip_xquery.Parser.parse_string_opt "1 2" = None);
        match Clip_xquery.Parser.parse_string "let $x := " with
        | exception Clip_xquery.Parser.Parse_error { position; _ } ->
          checkb "position set" true (position > 0)
        | _ -> Alcotest.fail "expected a parse error");
    Alcotest.test_case "the text backend agrees with the others" `Quick (fun () ->
        List.iter
          (fun (sc : S.Figures.t) ->
            if sc.minimum_cardinality then begin
              let a = Tgd_oracle.expect sc.mapping S.Deptdb.instance in
              let c =
                Clip_core.Engine.run ~backend:`Xquery_text sc.mapping S.Deptdb.instance
              in
              checkb sc.name true (Node.equal a c)
            end)
          S.Figures.all);
  ]

(* --- Matcher -------------------------------------------------------------------- *)

let matcher_tests =
  [
    Alcotest.test_case "similarity basics" `Quick (fun () ->
        checkb "identical" true (Clip_clio.Matcher.similarity "name" "name" = 1.);
        checkb "containment" true (Clip_clio.Matcher.similarity "pname" "name" > 0.5);
        checkb "unrelated" true (Clip_clio.Matcher.similarity "salary" "zip" < 0.3));
    Alcotest.test_case "dept schema suggestions are the right couplings" `Quick
      (fun () ->
        let target =
          Clip_schema.Dsl.parse
            {|schema target {
                department [1..*] {
                  @name: string
                  project [0..*] { @name: string }
                  employee [0..*] { @name: string @salary: int }
                }
              }|}
        in
        let suggestions = Clip_clio.Matcher.suggest S.Deptdb.source target in
        let pairs =
          List.map
            (fun (s : Clip_clio.Matcher.suggestion) ->
              (Path.to_string s.source, Path.to_string s.target))
            suggestions
        in
        checkb "pname -> project@name" true
          (List.mem
             ("source.dept.Proj.pname.value", "target.department.project.@name")
             pairs);
        checkb "ename -> employee@name" true
          (List.mem
             ("source.dept.regEmp.ename.value", "target.department.employee.@name")
             pairs);
        checkb "sal -> @salary" true
          (List.mem
             ("source.dept.regEmp.sal.value", "target.department.employee.@salary")
             pairs);
        checkb "dname -> department@name" true
          (List.mem ("source.dept.dname.value", "target.department.@name") pairs);
        checki "exactly the four couplings" 4 (List.length suggestions));
    Alcotest.test_case "each target leaf is suggested at most once" `Quick (fun () ->
        let suggestions = Clip_clio.Matcher.suggest S.Deptdb.source S.Deptdb.target_dp in
        let targets =
          List.map (fun (s : Clip_clio.Matcher.suggestion) -> s.target) suggestions
        in
        checki "no duplicates" (List.length targets)
          (List.length (List.sort_uniq Path.compare targets)));
    Alcotest.test_case "bootstrap + generation runs end to end" `Quick (fun () ->
        let m = Clip_clio.Matcher.bootstrap S.Deptdb.source S.Deptdb.target_dp in
        checkb "has couplings" true (m.values <> []);
        let tgd = Clip_clio.Generate.generate ~extension:true m in
        let out =
          ok
            (Clip_tgd.Eval.run_result ~source:S.Deptdb.instance
               ~target_root:"target" tgd)
        in
        checkb "produces departments" true (Node.count_elements out "department" > 0));
    Alcotest.test_case "a high threshold filters everything" `Quick (fun () ->
        checki "none" 0
          (List.length
             (Clip_clio.Matcher.suggest ~threshold:1.1 S.Deptdb.source
                S.Deptdb.target_dp)));
  ]

(* --- Lineage --------------------------------------------------------------------- *)

let lineage_tests =
  [
    Alcotest.test_case "value mapping depends on sources + driver chain" `Quick
      (fun () ->
        let deps =
          Clip_core.Lineage.target_dependencies S.Figures.fig4.mapping
            (path "target.department.employee.@name")
        in
        let on kind p' =
          List.exists
            (fun (d : Clip_core.Lineage.dependency) ->
              d.kind = kind && Path.equal d.on (path p'))
            deps
        in
        checkb "value dep" true (on `Value "source.dept.regEmp.ename.value");
        checkb "iteration dep on regEmp" true (on `Iteration "source.dept.regEmp");
        checkb "iteration dep on dept (context)" true (on `Iteration "source.dept");
        checkb "filter dep on sal" true (on `Filter "source.dept.regEmp.sal.value"));
    Alcotest.test_case "group keys show up" `Quick (fun () ->
        let deps =
          Clip_core.Lineage.target_dependencies S.Figures.fig7.mapping
            (path "target.project")
        in
        checkb "group key" true
          (List.exists
             (fun (d : Clip_core.Lineage.dependency) ->
               d.kind = `Group_key
               && Path.equal d.on (path "source.dept.Proj.pname.value"))
             deps));
    Alcotest.test_case "impact of a source subtree change" `Quick (fun () ->
        let impacted =
          List.map Path.to_string
            (Clip_core.Lineage.impacted_by S.Figures.fig4.mapping
               (path "source.dept.regEmp"))
        in
        checkb "employee impacted" true
          (List.mem "target.department.employee" impacted);
        checkb "employee name impacted" true
          (List.mem "target.department.employee.@name" impacted);
        checkb "department not impacted" false
          (List.mem "target.department" impacted));
    Alcotest.test_case "report covers every output and value mapping" `Quick
      (fun () ->
        let rows = Clip_core.Lineage.report S.Figures.fig9.mapping in
        (* 1 builder output + 4 value mappings *)
        checki "rows" 5 (List.length rows));
  ]

(* --- Render focus ------------------------------------------------------------------ *)

let render_tests =
  [
    Alcotest.test_case "focus hides unrelated lines" `Quick (fun () ->
        let full = Clip_core.Render.to_string S.Figures.fig5.mapping in
        let focused =
          Clip_core.Render.to_string
            ~focus:[ path "target.department.project" ]
            S.Figures.fig5.mapping
        in
        checkb "full mentions employee builder" true (contains full "employee");
        checkb "focused keeps the project value mapping" true
          (contains focused "project.@name");
        checkb "focused drops the employee value mapping" false
          (contains focused "employee.@name"));
    Alcotest.test_case "focus on a source subtree keeps its lines" `Quick (fun () ->
        let focused =
          Clip_core.Render.to_string
            ~focus:[ path "source.dept.regEmp" ]
            S.Figures.fig5.mapping
        in
        checkb "employee vm kept" true (contains focused "employee.@name");
        checkb "project vm dropped" false (contains focused "project.@name"));
  ]

(* --- Instance-level provenance -------------------------------------------------- *)

let provenance_tests =
  [
    Alcotest.test_case "fig4: each employee traces to its regEmp and dept" `Quick
      (fun () ->
        let out, trace =
          ok (Clip_core.Engine.run_traced_result S.Figures.fig4.mapping S.Deptdb.instance)
        in
        checkb "output unchanged" true
          (Node.equal out (Clip_core.Engine.run S.Figures.fig4.mapping S.Deptdb.instance));
        (* target_path [1; 0] = second department, first employee:
           Richard Dawson, from Marketing. *)
        let entry =
          List.find
            (fun (t : Clip_tgd.Eval.trace_entry) -> t.target_path = [ 1; 0 ])
            trace
        in
        let tags =
          List.filter_map
            (function Node.Element e -> Some e.Node.tag | Node.Text _ -> None)
            entry.sources
        in
        checkb "has a regEmp source" true (List.mem "regEmp" tags);
        checkb "has a dept source" true (List.mem "dept" tags);
        let has_marketing =
          List.exists
            (fun n ->
              match n with
              | Node.Element e when e.Node.tag = "dept" ->
                (match Node.children_named e "dname" with
                 | d :: _ -> Node.text_value d = Some (Atom.String "Marketing")
                 | [] -> false)
              | _ -> false)
            entry.sources
        in
        checkb "traced to Marketing" true has_marketing);
    Alcotest.test_case "fig7: a grouped project traces to every member Proj" `Quick
      (fun () ->
        let _, trace =
          ok (Clip_core.Engine.run_traced_result S.Figures.fig7.mapping S.Deptdb.instance)
        in
        (* target_path [0] = the Appliances project, grouped from two
           Projs (ICT pid 1 and Marketing pid 32). *)
        let entry =
          List.find
            (fun (t : Clip_tgd.Eval.trace_entry) -> t.target_path = [ 0 ])
            trace
        in
        let projs =
          List.filter
            (function Node.Element e -> e.Node.tag = "Proj" | Node.Text _ -> false)
            entry.sources
        in
        checki "two member Projs" 2 (List.length projs));
    Alcotest.test_case "the root element has no provenance" `Quick (fun () ->
        let _, trace =
          ok (Clip_core.Engine.run_traced_result S.Figures.fig3.mapping S.Deptdb.instance)
        in
        let root =
          List.find (fun (t : Clip_tgd.Eval.trace_entry) -> t.target_path = []) trace
        in
        checkb "empty" true (root.sources = []));
    Alcotest.test_case "a trace entry exists for every target element" `Quick
      (fun () ->
        let out, trace =
          ok (Clip_core.Engine.run_traced_result S.Figures.fig5.mapping S.Deptdb.instance)
        in
        let rec count_elems n =
          match n with
          | Node.Element e ->
            1 + List.fold_left (fun acc c -> acc + count_elems c) 0 e.Node.children
          | Node.Text _ -> 0
        in
        checki "counts agree" (count_elems out) (List.length trace));
    Alcotest.test_case "planned runs trace exactly like the naive interpreter"
      `Quick (fun () ->
        (* a document of over 256 nodes, where `Auto's cost model and
           `Indexed's forced joins plan differently; the expected
           lineage is the reference interpreter's, read from its own
           environments *)
        let doc = S.Deptdb.synthetic_instance ~depts:8 ~projs:5 ~emps:10 in
        checkb "over 256 nodes" true (Node.size doc >= 256);
        let rec count_elems n =
          match n with
          | Node.Element e ->
            1 + List.fold_left (fun acc c -> acc + count_elems c) 0 e.Node.children
          | Node.Text _ -> 0
        in
        List.iter
          (fun (sc : S.Figures.t) ->
            let traced plan =
              ok (Clip_core.Engine.run_traced_result ~plan sc.mapping doc)
            in
            let out, naive = ok (Tgd_oracle.run_mapping_traced sc.mapping doc) in
            checki (sc.name ^ ": an entry per target element") (count_elems out)
              (List.length naive);
            checkb (sc.name ^ ": some lineage recorded") true
              (List.exists (fun (t : Clip_tgd.Eval.trace_entry) -> t.sources <> []) naive);
            List.iter
              (fun plan ->
                let out', trace = traced plan in
                checkb (sc.name ^ ": same output") true (Node.equal out out');
                checkb (sc.name ^ ": same trace") true (trace = naive))
              [ `Indexed; `Auto ])
          S.Figures.all;
        (* A child rule re-binding its parent's [d]: the trace of each
           [proj] holds the inner [d], the trace of each [emp] (a
           sibling rule) the outer one. A child rule opening with a
           completion generator: each [staff] is instantiated before
           the child binds [e], so it first records the outer [d]
           alone. *)
        let module Tgd = Clip_tgd.Tgd in
        let module Term = Clip_tgd.Term in
        let v x steps = Term.proj (Term.var x) steps in
        let shadowing =
          Tgd.make
            ~foralls:[ Tgd.source_gen "d" (Term.proj (Term.root "source") [ Path.Child "dept" ]) ]
            ~exists:[ Tgd.driven "x" (Term.proj (Term.root "t") [ Path.Child "dept" ]) ]
            ~children:
              [
                Tgd.make
                  ~foralls:[ Tgd.source_gen "d" (v "d" [ Path.Child "Proj" ]) ]
                  ~exists:[ Tgd.driven "p" (v "x" [ Path.Child "proj" ]) ]
                  ~assertions:
                    [ Tgd.St_eq (v "p" [ Path.Attr "pid" ], Term.E (v "d" [ Path.Attr "pid" ])) ]
                  ();
                Tgd.make
                  ~foralls:[ Tgd.source_gen "e" (v "d" [ Path.Child "regEmp" ]) ]
                  ~exists:[ Tgd.driven "y" (v "x" [ Path.Child "emp" ]) ]
                  ();
              ]
            ()
        in
        let leading_completion =
          Tgd.make
            ~foralls:[ Tgd.source_gen "d" (Term.proj (Term.root "source") [ Path.Child "dept" ]) ]
            ~exists:[ Tgd.driven "x" (Term.proj (Term.root "t") [ Path.Child "dept" ]) ]
            ~children:
              [
                Tgd.make
                  ~foralls:[ Tgd.source_gen "e" (v "d" [ Path.Child "regEmp" ]) ]
                  ~exists:
                    [
                      Tgd.completion "c" (v "x" [ Path.Child "staff" ]);
                      Tgd.driven "y" (v "c" [ Path.Child "emp" ]);
                    ]
                  ~assertions:
                    [
                      Tgd.St_eq
                        (v "y" [ Path.Attr "name" ], Term.E (v "e" [ Path.Child "ename"; Path.Value ]));
                    ]
                  ();
              ]
            ()
        in
        List.iter
          (fun (name, tgd) ->
            let traced plan =
              ok (Clip_tgd.Eval.run_traced_result ~plan ~source:doc ~target_root:"t" tgd)
            in
            let out, naive = ok (Tgd_oracle.run_traced ~source:doc ~target_root:"t" tgd) in
            checki (name ^ ": an entry per target element") (count_elems out) (List.length naive);
            List.iter
              (fun plan ->
                let out', trace = traced plan in
                checkb (name ^ ": same output") true (Node.equal out out');
                checkb (name ^ ": same trace") true (trace = naive))
              [ `Indexed; `Auto ])
          [ ("shadowing", shadowing); ("leading completion", leading_completion) ]);
  ]

(* --- Feature combinations ---------------------------------------------------------- *)

let combination_tests =
  [
    Alcotest.test_case "multiple grouping attributes" `Quick (fun () ->
        (* group Projs by (pname, pid): distinct pairs *)
        let m =
          Clip_core.Mapping.make ~source:S.Deptdb.source ~target:S.Deptdb.target_fig7
            ~roots:
              [
                Clip_core.Mapping.node ~id:"g"
                  ~output:(path "target.project")
                  ~group_by:
                    [
                      ("pj", [ Path.Child "pname"; Path.Value ]);
                      ("pj", [ Path.Attr "pid" ]);
                    ]
                  [ Clip_core.Mapping.input ~var:"pj" (path "source.dept.Proj") ];
              ]
            [
              Clip_core.Mapping.value
                [ path "source.dept.Proj.pname.value" ]
                (path "target.project.@name");
            ]
        in
        let a = Clip_core.Engine.run ~backend:`Tgd m S.Deptdb.instance in
        checkb "tgd = oracle" true (Node.equal a (Tgd_oracle.expect m S.Deptdb.instance));
        let b = Clip_core.Engine.run ~backend:`Xquery m S.Deptdb.instance in
        (* distinct (pname, pid) pairs: (Appliances,1) (Robotics,2)
           (Brand promotion,1) (Appliances,32) *)
        checki "4 groups" 4 (Node.count_elements a "project");
        (* The dimension loops of the XQuery template enumerate groups
           in key order rather than first-occurrence order, so compare
           order-insensitively. *)
        checkb "backends agree" true (Node.equal_unordered a b));
    Alcotest.test_case "scalar functions run on all three backends" `Quick (fun () ->
        let m =
          Clip_core.Mapping.make ~source:S.Deptdb.source ~target:S.Deptdb.target_fig6
            ~roots:
              [
                Clip_core.Mapping.node ~id:"e"
                  ~output:(path "target.project-emp")
                  [ Clip_core.Mapping.input ~var:"r" (path "source.dept.regEmp") ];
              ]
            [
              Clip_core.Mapping.value ~fn:(Clip_core.Mapping.Scalar "concat")
                [
                  path "source.dept.regEmp.ename.value";
                  path "source.dept.dname.value";
                ]
                (path "target.project-emp.@ename");
              Clip_core.Mapping.value ~fn:(Clip_core.Mapping.Constant (Atom.String "x"))
                []
                (path "target.project-emp.@pname");
            ]
        in
        let a = Clip_core.Engine.run ~backend:`Tgd m S.Deptdb.instance in
        checkb "tgd = oracle" true (Node.equal a (Tgd_oracle.expect m S.Deptdb.instance));
        let b = Clip_core.Engine.run ~backend:`Xquery m S.Deptdb.instance in
        let c = Clip_core.Engine.run ~backend:`Xquery_text m S.Deptdb.instance in
        checkb "tgd = xq" true (Node.equal a b);
        checkb "tgd = xq-text" true (Node.equal a c);
        let first = List.hd (Node.children_named (Node.as_element a) "project-emp") in
        checkb "concatenated" true
          (Node.attr first "ename" = Some (Atom.String "John SmithICT")));
    Alcotest.test_case "min/max aggregates agree across backends" `Quick (fun () ->
        let m =
          Clip_core.Mapping.make ~source:S.Deptdb.source ~target:S.Deptdb.target_fig9
            ~roots:
              [
                Clip_core.Mapping.node ~id:"d"
                  ~output:(path "target.department")
                  [ Clip_core.Mapping.input ~var:"d" (path "source.dept") ];
              ]
            [
              Clip_core.Mapping.value
                [ path "source.dept.dname.value" ]
                (path "target.department.@name");
              Clip_core.Mapping.value ~fn:(Clip_core.Mapping.Aggregate Clip_tgd.Tgd.Min)
                [ path "source.dept.regEmp.sal.value" ]
                (path "target.department.@numProj");
              Clip_core.Mapping.value ~fn:(Clip_core.Mapping.Aggregate Clip_tgd.Tgd.Max)
                [ path "source.dept.regEmp.sal.value" ]
                (path "target.department.@numEmps");
            ]
        in
        let a = Clip_core.Engine.run ~backend:`Tgd m S.Deptdb.instance in
        checkb "tgd = oracle" true (Node.equal a (Tgd_oracle.expect m S.Deptdb.instance));
        let b = Clip_core.Engine.run ~backend:`Xquery m S.Deptdb.instance in
        checkb "agree" true (Node.equal a b);
        let ict = List.hd (Node.children_named (Node.as_element a) "department") in
        checkb "min" true (Node.attr ict "numProj" = Some (Atom.Int 10000));
        checkb "max" true (Node.attr ict "numEmps" = Some (Atom.Int 12000)));
  ]

let deeper_combination_tests =
  [
    Alcotest.test_case
      "Sec. III-B example b: an intermediate element materialises for a deep \
       value mapping" `Quick (fun () ->
        (* the vm target sits below the driver's output, behind a
           non-repeating intermediate element: the intermediate is
           produced too ("an E element will be produced, too") *)
        let target =
          Clip_schema.Dsl.parse
            {|schema t {
                D [0..*] {
                  @att4: string
                  E [0..1] { @att5: string }
                }
              }|}
        in
        let m =
          Clip_core.Mapping.make ~source:S.Deptdb.source ~target
            ~roots:
              [
                Clip_core.Mapping.node ~id:"d" ~output:(path "t.D")
                  [ Clip_core.Mapping.input ~var:"d" (path "source.dept") ];
              ]
            [
              Clip_core.Mapping.value
                [ path "source.dept.dname.value" ]
                (path "t.D.@att4");
              Clip_core.Mapping.value
                [ path "source.dept.dname.value" ]
                (path "t.D.E.@att5");
            ]
        in
        checkb "valid" true (Clip_core.Validity.is_valid m);
        let a = Clip_core.Engine.run ~backend:`Tgd m S.Deptdb.instance in
        checkb "tgd = oracle" true (Node.equal a (Tgd_oracle.expect m S.Deptdb.instance));
        let b = Clip_core.Engine.run ~backend:`Xquery m S.Deptdb.instance in
        checkb "backends agree" true (Node.equal a b);
        let d = List.hd (Node.children_named (Node.as_element a) "D") in
        let e = List.hd (Node.children_named d "E") in
        checkb "E produced with att5" true
          (Node.attr e "att5" = Some (Atom.String "ICT")));
    Alcotest.test_case "a group node under a context arc groups per parent" `Quick
      (fun () ->
        (* projects grouped by name, but within each department *)
        let target =
          Clip_schema.Dsl.parse
            {|schema t {
                department [1..*] {
                  @name: string
                  project [0..*] { @name: string }
                }
              }|}
        in
        let m =
          Clip_core.Mapping.make ~source:S.Deptdb.source ~target
            ~roots:
              [
                Clip_core.Mapping.node ~id:"d" ~output:(path "t.department")
                  ~children:
                    [
                      Clip_core.Mapping.node ~id:"g" ~output:(path "t.department.project")
                        ~group_by:[ ("pj", [ Path.Child "pname"; Path.Value ]) ]
                        [ Clip_core.Mapping.input ~var:"pj" (path "source.dept.Proj") ];
                    ]
                  [ Clip_core.Mapping.input ~var:"d" (path "source.dept") ];
              ]
            [
              Clip_core.Mapping.value [ path "source.dept.dname.value" ]
                (path "t.department.@name");
              Clip_core.Mapping.value
                [ path "source.dept.Proj.pname.value" ]
                (path "t.department.project.@name");
            ]
        in
        let a = Clip_core.Engine.run ~backend:`Tgd m S.Deptdb.instance in
        checkb "tgd = oracle" true (Node.equal a (Tgd_oracle.expect m S.Deptdb.instance));
        let b = Clip_core.Engine.run ~backend:`Xquery m S.Deptdb.instance in
        checkb "backends agree" true (Node.equal a b);
        (* per-dept distinct names: ICT {Appliances, Robotics},
           Marketing {Brand promotion, Appliances} -> 2 + 2 *)
        checki "4 projects total" 4 (Node.count_elements a "project");
        checki "2 departments" 2 (Node.count_elements a "department"));
    Alcotest.test_case "nested group nodes (a group inside a group)" `Quick
      (fun () ->
        (* projects grouped by name; inside each, workers grouped by
           name (deduplicating homonymous employees) *)
        let m =
          Clip_core.Mapping.make ~source:S.Deptdb.source ~target:S.Deptdb.target_fig7
            ~roots:
              [
                Clip_core.Mapping.node ~id:"gp"
                  ~output:(path "target.project")
                  ~group_by:[ ("pj", [ Path.Child "pname"; Path.Value ]) ]
                  ~children:
                    [
                      Clip_core.Mapping.node ~id:"ge"
                        ~output:(path "target.project.employee")
                        ~group_by:[ ("r", [ Path.Child "ename"; Path.Value ]) ]
                        ~cond:
                          [
                            {
                              Clip_core.Mapping.p_left =
                                Clip_core.Mapping.O_path ("p2", [ Path.Attr "pid" ]);
                              p_op = Clip_tgd.Tgd.Eq;
                              p_right = Clip_core.Mapping.O_path ("r", [ Path.Attr "pid" ]);
                            };
                          ]
                        [
                          Clip_core.Mapping.input ~var:"p2" (path "source.dept.Proj");
                          Clip_core.Mapping.input ~var:"r" (path "source.dept.regEmp");
                        ];
                    ]
                  [ Clip_core.Mapping.input ~var:"pj" (path "source.dept.Proj") ];
              ]
            [
              Clip_core.Mapping.value
                [ path "source.dept.Proj.pname.value" ]
                (path "target.project.@name");
              Clip_core.Mapping.value
                [ path "source.dept.regEmp.ename.value" ]
                (path "target.project.employee.@name");
            ]
        in
        (* an instance where one project has two homonymous workers *)
        let instance =
          Clip_xml.Parser.parse_string
            {|<source>
                <dept><dname>D</dname>
                  <Proj pid="1"><pname>P</pname></Proj>
                  <regEmp pid="1"><ename>Ann</ename><sal>1</sal></regEmp>
                  <regEmp pid="1"><ename>Ann</ename><sal>2</sal></regEmp>
                  <regEmp pid="1"><ename>Bob</ename><sal>3</sal></regEmp>
                </dept>
              </source>|}
        in
        let a = Clip_core.Engine.run ~backend:`Tgd m instance in
        checkb "tgd = oracle" true (Node.equal a (Tgd_oracle.expect m instance));
        let b = Clip_core.Engine.run ~backend:`Xquery m instance in
        checkb "backends agree" true (Node.equal_unordered a b);
        checki "1 project" 1 (Node.count_elements a "project");
        (* the two Anns collapse into one grouped employee *)
        checki "2 employees" 2 (Node.count_elements a "employee"));
    Alcotest.test_case "mapping composition: pipe fig7's output onward" `Quick
      (fun () ->
        (* the target of one mapping is the source of the next *)
        let stage1 = Clip_core.Engine.run S.Figures.fig7.mapping S.Deptdb.instance in
        let summary_target =
          Clip_schema.Dsl.parse
            {|schema summary { row [0..*] { @project: string @headcount: int } }|}
        in
        let m2 =
          Clip_core.Mapping.make ~source:S.Figures.fig7.mapping.target
            ~target:summary_target
            ~roots:
              [
                Clip_core.Mapping.node ~id:"p" ~output:(path "summary.row")
                  [ Clip_core.Mapping.input ~var:"p" (path "target.project") ];
              ]
            [
              Clip_core.Mapping.value [ path "target.project.@name" ]
                (path "summary.row.@project");
              Clip_core.Mapping.value
                ~fn:(Clip_core.Mapping.Aggregate Clip_tgd.Tgd.Count)
                [ path "target.project.employee" ]
                (path "summary.row.@headcount");
            ]
        in
        let out = Clip_core.Engine.run m2 stage1 in
        let rows = Node.children_named (Node.as_element out) "row" in
        checki "3 rows" 3 (List.length rows);
        let appliances = List.hd rows in
        checkb "Appliances headcount 3" true
          (Node.attr appliances "headcount" = Some (Atom.Int 3)));
  ]

let () =
  Alcotest.run "extensions"
    [
      ("xsd", xsd_tests);
      ("xquery-parser", xquery_parser_tests);
      ("matcher", matcher_tests);
      ("lineage", lineage_tests);
      ("render-focus", render_tests);
      ("provenance", provenance_tests);
      ("combinations", combination_tests @ deeper_combination_tests);
    ]
