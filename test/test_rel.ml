(* The relational backend: a relational-shape gate over the tgd
   engine. On every relational-shaped mapping it must produce the
   reference interpreter's targets, and the tgd backend's work counters
   and dynamic error diagnostics, under every plan mode; nested sources
   must be rejected statically with CLIP-REL-003 by run, explain and
   the SQL printer alike. *)

module S = Clip_scenarios
module Node = Clip_xml.Node
module Engine = Clip_core.Engine
module Shape = Clip_rel.Shape
module Program = Clip_rel.Program
module Sql = Clip_rel.Sql

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* The value of a run expected to succeed. *)
let ok = function
  | Ok v -> v
  | Error ds -> Alcotest.fail (Clip_diag.render_list ds)

(* Table I scenarios carry only value mappings; route them through the
   Clio generator to obtain runnable mappings (same as the figures
   pipeline). *)
let runnable (sc : S.Table1.scenario) =
  let m = sc.S.Table1.mapping in
  Clip_clio.Generate.to_clip m (Clip_clio.Generate.forest ~extension:true m)

let plans = [ (`Indexed, "indexed"); (`Auto, "auto") ]

(* The reference interpreter's output, printed. *)
let expected mapping source = Clip_xml.Printer.to_string (Tgd_oracle.expect mapping source)

(* The cram scenario as a DSL text, for scaled instances: a proper
   join (company ⋈ grant) with attribute and value-child columns. *)
let grants_dsl =
  {|schema db {
  company [0..*] {
    @cid: int
    cname: string
  }
  grant [0..*] {
    @gid: int
    @recipient: int
    amount: int
  }
  ref grant.@recipient -> company.@cid
}
schema web {
  organization [0..*] {
    @name: string
    funding [0..*] {
      @fid: int
      @amount: int
    }
  }
}
mapping {
  node n2: db.company as $c -> web.organization {
    node n1: db.grant as $g -> web.organization.funding where $c.@cid = $g.@recipient
  }
  value db.company.cname.value -> web.organization.@name
  value db.grant.@gid -> web.organization.funding.@fid
  value db.grant.amount.value -> web.organization.funding.@amount
}|}

let grants_mapping =
  match Clip_core.Dsl.parse_result grants_dsl with
  | Ok m -> m
  | Error _ -> assert false

(* A scaled instance: [n] companies, [3n] grants hitting every company. *)
let grants_instance n =
  let b = Buffer.create 4096 in
  Buffer.add_string b "<db>";
  for i = 1 to n do
    Printf.bprintf b "<company cid=\"%d\"><cname>C%d</cname></company>" i i
  done;
  for j = 1 to 3 * n do
    Printf.bprintf b
      "<grant gid=\"%d\" recipient=\"%d\"><amount>%d</amount></grant>" j
      ((j mod n) + 1) (j * 10)
  done;
  Buffer.add_string b "</db>";
  Clip_xml.Parser.parse_string (Buffer.contents b)

let counted f =
  let c = Clip_obs.Counters.create () in
  let r = f (Clip_run.create ~counters:c ()) in
  (r, c)

let differential name mapping source =
  Alcotest.test_case name `Quick (fun () ->
      let expected = expected mapping source in
      List.iter
        (fun (plan, pname) ->
          List.iter
            (fun (backend, bname) ->
              checks
                (Printf.sprintf "%s/%s identical" bname pname)
                expected
                (Clip_xml.Printer.to_string (Engine.run ~backend ~plan mapping source)))
            [ (`Tgd, "tgd"); (`Rel, "rel") ])
        plans)

let shape_tests =
  [
    Alcotest.test_case "accepts the relational Table I scenario" `Quick
      (fun () ->
        match
          Shape.of_schema S.Table1.translating_fig1.S.Table1.mapping.source
        with
        | Ok shape ->
          checki "2 tables" 2 (List.length shape.Shape.tables);
          Alcotest.(check (list string))
            "table names" [ "company"; "grant" ]
            (Shape.table_names shape)
        | Error reason -> Alcotest.failf "rejected: %s" reason);
    Alcotest.test_case "rejects the nested Table I scenarios" `Quick (fun () ->
        List.iter
          (fun (sc : S.Table1.scenario) ->
            checkb
              (Printf.sprintf "%s rejected" sc.S.Table1.label)
              true
              (match Shape.of_schema sc.S.Table1.mapping.source with
               | Error _ -> true
               | Ok _ -> false))
          [ S.Table1.nested_fig1; S.Table1.nested_fig3; S.Table1.this_paper_fig1 ]);
    Alcotest.test_case "compile rejects nested sources with CLIP-REL-003" `Quick
      (fun () ->
        let m = runnable S.Table1.nested_fig1 in
        match
          Clip_core.Compile.to_tgd_result m
        with
        | Error _ -> Alcotest.fail "scenario should compile to a tgd"
        | Ok tgd ->
          (match
             Program.compile_result ~source:m.source
               ~target_root:m.target.root.name tgd
           with
           | Ok _ -> Alcotest.fail "expected rejection"
           | Error ds ->
             checks "code" "CLIP-REL-003" (List.hd ds).Clip_diag.code));
  ]

let differential_tests =
  [
    differential "translating_fig1: rel == tgd on every plan"
      (runnable S.Table1.translating_fig1)
      S.Table1.translating_fig1.S.Table1.instance;
    differential "grants join, scale 20: rel == tgd on every plan"
      grants_mapping (grants_instance 20);
    Alcotest.test_case "sharded/auto modes agree too" `Quick (fun () ->
        let source = grants_instance 10 in
        let expected = Engine.run ~backend:`Tgd grants_mapping source in
        let text = Clip_xml.Printer.to_string source in
        List.iter
          (fun mode ->
            checkb "identical" true
              (Node.equal expected
                 (ok
                    (Engine.run_stream_result ~backend:`Rel ~mode ~jobs:2
                       grants_mapping (Clip_xml.Stream.of_string text)))))
          [ `Whole; `Sharded ]);
    Alcotest.test_case "grants join: rel output and work counters == tgd"
      `Quick (fun () ->
        let source = grants_instance 20 in
        let run backend =
          counted (fun ctx ->
              ok (Engine.run_result ~ctx ~backend grants_mapping source))
        in
        let out_tgd, c_tgd = run `Tgd in
        let out_rel, c_rel = run `Rel in
        checks "output"
          (Clip_xml.Printer.to_string out_tgd)
          (Clip_xml.Printer.to_string out_rel);
        Alcotest.(check (list (pair string int)))
          "work counters"
          (Clip_obs.Counters.work_assoc c_tgd)
          (Clip_obs.Counters.work_assoc c_rel));
  ]

let error_tests =
  [
    Alcotest.test_case "run_result reports CLIP-REL-003 on nested sources"
      `Quick (fun () ->
        let sc = S.Table1.nested_fig1 in
        let code = function
          | Ok _ -> Alcotest.fail "expected rejection"
          | Error ds -> (List.hd ds).Clip_diag.code
        in
        checks "run" "CLIP-REL-003"
          (code (Engine.run_result ~backend:`Rel (runnable sc) sc.S.Table1.instance));
        checks "explain" "CLIP-REL-003"
          (code
             (Engine.explain_result ~backend:`Rel (runnable sc) sc.S.Table1.instance)));
    Alcotest.test_case "dynamic errors are byte-identical to the tgd backend"
      `Quick (fun () ->
        (* a wrong-rooted document: both backends must fail with the
           same CLIP-TGD-001 message *)
        let wrong = Clip_xml.Parser.parse_string "<notdb><company/></notdb>" in
        let diag backend =
          match Engine.run_result ~backend grants_mapping wrong with
          | Ok _ -> Alcotest.fail "expected a dynamic error"
          | Error ds ->
            let d = List.hd ds in
            (d.Clip_diag.code, d.Clip_diag.message)
        in
        let ct, mt = diag `Tgd in
        let cr, mr = diag `Rel in
        checks "code" ct cr;
        checks "message" mt mr);
    Alcotest.test_case "step budget still meters rel runs (CLIP-LIM-004)"
      `Quick (fun () ->
        let limits = { Clip_diag.Limits.default with max_eval_steps = 10 } in
        match
          Engine.run_result ~limits ~backend:`Rel grants_mapping
            (grants_instance 10)
        with
        | Ok _ -> Alcotest.fail "expected the budget to trip"
        | Error ds ->
          checks "code" "CLIP-LIM-004" (List.hd ds).Clip_diag.code);
    Alcotest.test_case "the universal-solution ablation stays tgd-only" `Quick
      (fun () ->
        match
          Engine.run_result ~backend:`Rel ~minimum_cardinality:false
            grants_mapping (grants_instance 2)
        with
        | Ok _ -> Alcotest.fail "the ablation ran on rel"
        | Error ds ->
          checks "code" Clip_diag.Codes.ablation_backend
            (List.hd ds).Clip_diag.code);
  ]

let sql_tests =
  [
    Alcotest.test_case "emitted SQL covers every rule" `Quick (fun () ->
        let m = grants_mapping in
        let tgd = Clip_core.Compile.to_tgd m in
        let prog =
          ok
            (Program.compile_result ~source:m.source
               ~target_root:m.target.root.name tgd)
        in
        let sql = Sql.of_program prog in
        let contains sub =
          let n = String.length sub and len = String.length sql in
          let rec go i =
            i + n <= len && (String.equal (String.sub sql i n) sub || go (i + 1))
          in
          go 0
        in
        List.iter
          (fun sub -> checkb sub true (contains sub))
          [
            "SELECT c.cname AS name";
            "FROM company AS c";
            "WHERE c.cid = g.recipient";
            "FROM company AS c, grant AS g";
          ]);
    Alcotest.test_case "explain is deterministic and names the backend" `Quick
      (fun () ->
        let source = grants_instance 3 in
        let e1 = ok (Engine.explain_result ~backend:`Rel grants_mapping source) in
        let e2 = ok (Engine.explain_result ~backend:`Rel grants_mapping source) in
        checks "stable" e1 e2;
        checkb "header" true
          (String.length e1 > 12 && String.equal (String.sub e1 0 12) "backend: rel"));
  ]

(* --- The per-run join table ------------------------------------------- *)

(* The grants join keyed on a value child, so a grant may carry no
   recipient, one, or several (a multi-valued build key). *)
let recipients_mapping =
  match
    Clip_core.Dsl.parse_result
      {|schema db {
  company [0..*] {
    @cid: int
    cname: string
  }
  grant [0..*] {
    @gid: int
    recipient: int
  }
}
schema web {
  organization [0..*] {
    @name: string
    funding [0..*] { @fid: int }
  }
}
mapping {
  node n2: db.company as $c -> web.organization {
    node n1: db.grant as $g -> web.organization.funding where $c.@cid = $g.recipient.value
  }
  value db.company.cname.value -> web.organization.@name
  value db.grant.@gid -> web.organization.funding.@fid
}|}
  with
  | Ok m -> m
  | Error _ -> assert false

(* Keys that collide or coarsen: [Int 1], [Float 1.], hex and exponent
   spellings of 1, the two zeros, NaN, a string, and two integers that
   share their nearest float. The CDATA recipient is the string "1". *)
let key_pool =
  [|
    "1"; "1.0"; "0x1"; "1e0"; "0"; "0.0"; "-0.0"; "nan"; "2"; "x";
    "9007199254740993"; "9007199254740992";
  |]

let render_db companies grants =
  let b = Buffer.create 4096 in
  Buffer.add_string b "<db>";
  List.iteri
    (fun i cid ->
      Printf.bprintf b "<company cid=\"%s\"><cname>C%d</cname></company>" cid i)
    companies;
  List.iteri
    (fun j rs ->
      Printf.bprintf b "<grant gid=\"%d\">" j;
      List.iter (Printf.bprintf b "<recipient>%s</recipient>") rs;
      Buffer.add_string b "</grant>")
    grants;
  Buffer.add_string b "</db>";
  Buffer.contents b

(* Above the cost gate (12+ companies x 40+ grants), duplicate company
   keys and dangling recipients included; one case in four has no
   grants at all. *)
let grants_db_gen =
  let open QCheck2.Gen in
  let key = oneofa key_pool in
  let recipient = oneof [ key; return "<![CDATA[1]]>" ] in
  let* companies = list_size (int_range 12 24) key in
  let* grants =
    list_size (frequency [ (1, return 0); (3, int_range 40 80) ]) (list_size (int_range 0 2) recipient)
  in
  return (render_db companies grants)

(* [`Rel] runs the tgd path, so these per-run table cases cover the
   two executors. *)
let backends = [ (`Tgd, "tgd"); (`Xquery, "xquery") ]

let join_differential =
  QCheck2.Test.make ~count:40 ~print:Fun.id
    ~name:"random company/grant joins: auto and indexed == naive, every backend"
    grants_db_gen (fun text ->
      let source = Clip_xml.Parser.parse_string text in
      let out backend plan =
        Clip_xml.Printer.to_string (Engine.run ~backend ~plan recipients_mapping source)
      in
      let expected = expected recipients_mapping source in
      List.for_all
        (fun (backend, _) ->
          List.for_all (fun (plan, _) -> String.equal expected (out backend plan)) plans)
        backends)

let run_table_tests =
  [
    QCheck_alcotest.to_alcotest join_differential;
    Alcotest.test_case "two runs build one table each, same output" `Quick
      (fun () ->
        let source = grants_instance 30 in
        List.iter
          (fun (backend, name) ->
            let run () =
              counted (fun ctx ->
                  ok (Engine.run_result ~ctx ~backend grants_mapping source))
            in
            let o1, c1 = run () in
            let o2, c2 = run () in
            checkb (name ^ ": identical") true (Node.equal o1 o2);
            checki (name ^ ": one build per run") 1 c1.Clip_obs.Counters.hash_join_builds;
            checki (name ^ ": same builds") c1.Clip_obs.Counters.hash_join_builds
              c2.Clip_obs.Counters.hash_join_builds)
          backends);
    Alcotest.test_case "sharded runs on two jobs stay identical" `Quick
      (fun () ->
        let source = grants_instance 30 in
        let expected = expected grants_mapping source in
        let text = Clip_xml.Printer.to_string source in
        List.iter
          (fun (backend, name) ->
            for _ = 1 to 2 do
              checks (name ^ ": streamed, 2 jobs") expected
                (Clip_xml.Printer.to_string
                   (ok
                      (Engine.run_stream_result ~backend ~jobs:2
                         grants_mapping (Clip_xml.Stream.of_string text))))
            done)
          backends);
    Alcotest.test_case "the step budget meters the per-run build (CLIP-LIM-004)"
      `Quick (fun () ->
        (* 200 companies, 600 grants: the first company's probe builds
           the grant table, and a 100-step budget runs out inside it. *)
        let source = grants_instance 200 in
        let limits = { Clip_diag.Limits.default with max_eval_steps = 100 } in
        List.iter
          (fun (backend, name) ->
            let r, c =
              counted (fun ctx -> Engine.run_result ~ctx ~limits ~backend grants_mapping source)
            in
            (match r with
             | Ok _ -> Alcotest.failf "%s: expected the budget to trip" name
             | Error ds -> checks (name ^ ": code") "CLIP-LIM-004" (List.hd ds).Clip_diag.code);
            checki (name ^ ": inside the build") 1 c.Clip_obs.Counters.hash_join_builds;
            checki (name ^ ": before any probe") 0 c.Clip_obs.Counters.hash_join_probes)
          backends);
  ]

let () =
  Alcotest.run "rel"
    [
      ("shape", shape_tests);
      ("differential", differential_tests);
      ("errors", error_tests);
      ("sql", sql_tests);
      ("run-tables", run_table_tests);
    ]
