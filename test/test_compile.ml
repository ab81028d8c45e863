(* Tests for Clip_core.Compile: the shape of the nested tgds produced
   from the paper's figure mappings (Sec. IV-B), implicit generators,
   completion wrappers, grouping Skolems, adoption of uncorrelated
   roots, and failure modes. *)

module Path = Clip_schema.Path
module Mapping = Clip_core.Mapping
module Compile = Clip_core.Compile
module Tgd = Clip_tgd.Tgd
module Term = Clip_tgd.Term
module S = Clip_scenarios

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

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

let tgd_text m = Clip_tgd.Pretty.to_string ~unicode:false (Compile.to_tgd m)

(* --- The paper's printed tgds (Sec. IV-B) -------------------------------- *)

let paper_tgd_tests =
  [
    Alcotest.test_case "fig3: implicit dept generator and completion department"
      `Quick (fun () ->
        let tgd = Compile.to_tgd S.Figures.fig3.mapping in
        (* forall d in source.dept, r in d.regEmp | sal > 11000 *)
        checki "2 source gens" 2 (List.length tgd.foralls);
        let d = List.nth tgd.foralls 0 and r = List.nth tgd.foralls 1 in
        checks "implicit dept" "source.dept" (Term.expr_to_string d.sexpr);
        checkb "r rooted at d" true
          (Term.expr_to_string r.sexpr = d.svar ^ ".regEmp");
        (* exists d' (completion) in target.department, e' in d'.employee *)
        checki "2 target gens" 2 (List.length tgd.exists);
        checkb "department is completion" true
          ((List.nth tgd.exists 0).mode = Tgd.Completion);
        checkb "employee is driven" true ((List.nth tgd.exists 1).mode = Tgd.Driven);
        checki "1 condition" 1 (List.length tgd.cond);
        checki "1 assertion" 1 (List.length tgd.assertions));
    Alcotest.test_case "fig4: nesting with shared variables" `Quick (fun () ->
        let s = tgd_text S.Figures.fig4.mapping in
        checkb "outer" true (contains s "forall d in source.dept -> exists d' in target.department");
        checkb "inner" true (contains s "forall r in d.regEmp | r.sal.value > 11000");
        checkb "inner target" true (contains s "exists e' in d'.employee");
        checkb "value" true (contains s "e'.@name = r.ename.value"));
    Alcotest.test_case "fig5: two submappings under one root" `Quick (fun () ->
        let tgd = Compile.to_tgd S.Figures.fig5.mapping in
        checki "2 children" 2 (List.length tgd.children);
        checki "3 mappings" 3 (Tgd.mapping_count tgd));
    Alcotest.test_case "fig6: context-only outer mapping" `Quick (fun () ->
        let tgd = Compile.to_tgd S.Figures.fig6.mapping in
        checki "no exists at the top" 0 (List.length tgd.exists);
        let inner = List.hd tgd.children in
        checki "join iterates Proj and regEmp" 2 (List.length inner.foralls);
        checki "join condition" 1 (List.length inner.cond);
        let s = tgd_text S.Figures.fig6.mapping in
        checkb "pid join" true (contains s ".@pid = ");
        checkb "flat target" true (contains s "target.project-emp"));
    Alcotest.test_case "fig7: group-by Skolem with member-context submapping" `Quick
      (fun () ->
        let tgd = Compile.to_tgd S.Figures.fig7.mapping in
        checkb "grouped principal" true
          (List.exists
             (fun (g : Tgd.target_gen) ->
               match g.mode with Tgd.Grouped _ -> true | _ -> false)
             tgd.exists);
        let inner = List.hd tgd.children in
        (* p2 ranges over the member binding: a bare-variable generator *)
        checkb "member generator" true
          (List.exists
             (fun (g : Tgd.source_gen) ->
               match g.sexpr with Term.Var _ -> true | _ -> false)
             inner.foralls);
        (* r iterates the member's own dept, not a fresh global dept *)
        checkb "dept-scoped regEmp" true
          (List.exists
             (fun (g : Tgd.source_gen) ->
               Term.expr_to_string g.sexpr = "d.regEmp")
             inner.foralls));
    Alcotest.test_case "fig8: hierarchy inversion re-binds the member's dept" `Quick
      (fun () ->
        let tgd = Compile.to_tgd S.Figures.fig8.mapping in
        let inner = List.hd tgd.children in
        checki "one generator" 1 (List.length inner.foralls);
        checkb "ranges over the bound dept" true
          (match (List.hd inner.foralls).sexpr with Term.Var _ -> true | _ -> false));
    Alcotest.test_case "fig9: aggregate assertions with dept context" `Quick (fun () ->
        let s = tgd_text S.Figures.fig9.mapping in
        checkb "name" true (contains s "d'.@name = d.dname.value");
        checkb "numProj" true (contains s "d'.@numProj = count(d.Proj)");
        checkb "numEmps" true (contains s "d'.@numEmps = count(d.regEmp)");
        checkb "avg" true (contains s "d'.@avg-sal = avg(d.regEmp.sal.value)");
        checkb "prefix" true (contains s "exists count, avg ("));
    Alcotest.test_case "compiled tgds are well-formed" `Quick (fun () ->
        List.iter
          (fun (sc : S.Figures.t) ->
            let tgd = Compile.to_tgd sc.mapping in
            let errors =
              Clip_tgd.Wellformed.check
                ~source_root:sc.mapping.source.root.name
                ~target_root:sc.mapping.target.root.name
                (Tgd.make ~children:[ tgd ] ())
            in
            Alcotest.(check (list string))
              sc.name []
              (List.map Clip_tgd.Wellformed.error_to_string errors))
          S.Figures.all);
  ]

(* --- Adoption ---------------------------------------------------------------- *)

let adoption_tests =
  [
    Alcotest.test_case "uncorrelated root nests under the output-prefix node" `Quick
      (fun () ->
        let tgd = Compile.to_tgd S.Figures.fig4_nocontext.mapping in
        (* the employee root is adopted under the department mapping *)
        checki "dept mapping has 1 child" 1 (List.length tgd.children);
        let child = List.hd tgd.children in
        (* the adopted mapping iterates its own dept, uncorrelated *)
        checki "2 gens" 2 (List.length child.foralls);
        checks "fresh dept iteration" "source.dept"
          (Term.expr_to_string (List.hd child.foralls).sexpr));
    Alcotest.test_case "no adoption without an output-prefix node" `Quick (fun () ->
        let tgd = Compile.to_tgd S.Figures.fig3.mapping in
        checki "single mapping" 1 (Tgd.mapping_count tgd));
  ]

(* --- Failure modes --------------------------------------------------------------- *)

let failure_tests =
  [
    Alcotest.test_case "invalid mappings are rejected with the issues" `Quick
      (fun () ->
        let m =
          Mapping.make ~source:S.Deptdb.source ~target:S.Deptdb.target_fig6
            ~roots:
              [
                Mapping.node ~id:"bad"
                  ~output:(path "target.project-emp")
                  [ Mapping.input (path "source.nope") ];
              ]
            []
        in
        checkb "raises Invalid" true
          (match Compile.to_tgd m with
           | exception Compile.Invalid issues -> issues <> []
           | _ -> false));
    Alcotest.test_case "non-aggregate value mappings need a driver" `Quick (fun () ->
        checkb "raises" true
          (match Compile.to_tgd_unchecked S.Figures.fig1_values with
           | exception Failure _ -> true
           | _ -> false));
    Alcotest.test_case "driverless aggregates scope to the whole document" `Quick
      (fun () ->
        let m =
          Mapping.make ~source:S.Deptdb.source ~target:S.Deptdb.target_fig9
            [
              Mapping.value
                ~fn:(Mapping.Aggregate Tgd.Count)
                [ path "source.dept" ]
                (path "target.department.@numProj");
            ]
        in
        let tgd = Compile.to_tgd_unchecked m in
        checki "one assertion at the top" 1 (List.length tgd.assertions);
        let out =
          ok
            (Clip_tgd.Eval.run_result ~source:S.Deptdb.instance
               ~target_root:"target" tgd)
        in
        checkb "counted both depts" true
          (Clip_xml.Node.equal_unordered out
             (Clip_xml.Parser.parse_string
                {|<target><department numProj="2"/></target>|})));
  ]

(* --- Variable naming --------------------------------------------------------------- *)

let naming_tests =
  [
    Alcotest.test_case "user variables are preserved" `Quick (fun () ->
        let tgd = Compile.to_tgd S.Figures.fig3.mapping in
        checkb "r kept" true
          (List.exists (fun (g : Tgd.source_gen) -> g.svar = "r") tgd.foralls));
    Alcotest.test_case "fresh variables avoid user variables" `Quick (fun () ->
        (* name the regEmp variable "d" so the implicit dept variable
           must pick another name *)
        let m =
          Mapping.make ~source:S.Deptdb.source ~target:S.Deptdb.target_fig3
            ~roots:
              [
                Mapping.node ~id:"emp"
                  ~output:(path "target.department.employee")
                  [ Mapping.input ~var:"d" (path "source.dept.regEmp") ];
              ]
            [
              Mapping.value
                [ path "source.dept.regEmp.ename.value" ]
                (path "target.department.employee.@name");
            ]
        in
        let tgd = Compile.to_tgd m in
        let vars = List.map (fun (g : Tgd.source_gen) -> g.svar) tgd.foralls in
        checki "2 distinct vars" 2 (List.length (List.sort_uniq compare vars)));
  ]

let () =
  Alcotest.run "compile"
    [
      ("paper-tgds", paper_tgd_tests);
      ("adoption", adoption_tests);
      ("failures", failure_tests);
      ("naming", naming_tests);
    ]
