(* The physical-plan layer: planner decisions (pushdown, hash joins,
   segment joins), key normalisation, the tag index the benchmark
   probes, and the
   differential guarantee that `Indexed and `Auto runs on every backend
   are output-identical to the reference tgd interpreter
   ({!Tgd_oracle}) on every figure scenario. *)

module P = Clip_plan
module Node = Clip_xml.Node
module Atom = Clip_xml.Atom
module Printer = Clip_xml.Printer

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

(* The value of a run expected to succeed. *)
let ok = function
  | Ok v -> v
  | Error ds -> Alcotest.fail (Clip_diag.render_list ds)

(* --- A toy planner environment ---------------------------------------- *)

(* Environments are assoc lists of ints; generators enumerate integer
   lists. Enough to exercise every planner decision without either
   backend. *)
type env = (string * int) list

let lookup env x = List.assoc x env

let gen ?(deps = []) ?est var items : (env, int) P.gen =
  {
    P.var;
    deps;
    est = Lazy.from_val est;
    eval = (fun env f -> List.iter f (items env));
    bind = (fun env v -> (var, v) :: env);
  }

let const ?est var items = gen ?est var (fun _ -> items)

let pred pvars test : env P.pred = { P.pvars; test }

let eq ~left ~lkeys ~right ~rkeys : env P.cond =
  P.Eq
    {
      left = { P.kvars = left; keys = (fun env f -> f (lkeys env)) };
      right = { P.kvars = right; keys = (fun env f -> f (rkeys env)) };
      orig = pred (left @ right) (fun env -> Atom.equal (lkeys env) (rkeys env));
    }

let key1 x env = Atom.Int (lookup env x)

let run_plan p =
  let acc = ref [] in
  let ticks = ref 0 in
  P.execute ~obs:(Clip_obs.Counters.create ()) ~run:(P.Run.create ()) p
    ~tick:(fun () -> incr ticks)
    ~env:[]
    ~emit:(fun env -> acc := env :: !acc);
  (List.rev !acc, !ticks)

(* The naive reference: full cross product, all conditions innermost. *)
let run_naive gens conds =
  let test env = function
    | P.Other p -> p.P.test env
    | P.Eq { orig; _ } -> orig.P.test env
  in
  let acc = ref [] in
  let rec go env = function
    | [] -> if List.for_all (test env) conds then acc := env :: !acc
    | g :: rest ->
      g.P.eval env (fun v -> go (g.P.bind env v) rest)
  in
  go [] gens;
  List.rev !acc

let planner_tests =
  [
    Alcotest.test_case "pushdown: a condition runs at its earliest stage" `Quick
      (fun () ->
        let gens = [ const "x" [ 1; 2; 3 ]; const "y" [ 1; 2; 3 ] ] in
        let conds = [ P.Other (pred [ "x" ] (fun env -> lookup env "x" > 1)) ] in
        let p = P.plan ~bound:[] ~gens ~conds () in
        checks "shape" "scan(x/1) scan(y)" (P.describe p);
        let got, ticks = run_plan p in
        checki "bindings" 6 (List.length got);
        (* x=1 is pruned before y enumerates: 3 (x) + 2*3 (y) ticks *)
        checki "ticks" 9 ticks);
    Alcotest.test_case "an equality between adjacent stages is a hash join" `Quick
      (fun () ->
        let gens = [ const "x" [ 1; 2; 2 ]; const "y" [ 2; 2; 3 ] ] in
        let conds = [ eq ~left:[ "x" ] ~lkeys:(key1 "x") ~right:[ "y" ] ~rkeys:(key1 "y") ] in
        let p = P.plan ~bound:[] ~gens ~conds () in
        checks "shape" "scan(x) probe(y@0)" (P.describe p);
        let got, _ = run_plan p in
        checkb "same bindings as naive" true (got = run_naive gens conds));
    Alcotest.test_case "probe hits come back in build-side order" `Quick (fun () ->
        let gens = [ const "x" [ 7 ]; const "y" [ 5; 7; 6; 7; 7; 1 ] ] in
        let conds = [ eq ~left:[ "x" ] ~lkeys:(key1 "x") ~right:[ "y" ] ~rkeys:(key1 "y") ] in
        let p = P.plan ~bound:[] ~gens ~conds () in
        let got, ticks = run_plan p in
        checkb "order preserved" true (got = run_naive gens conds);
        (* 1 (x) + 3 probe hits; the misses are never enumerated *)
        checki "ticks" 4 ticks);
    Alcotest.test_case "a feeder chain is absorbed into a segment join" `Quick
      (fun () ->
        (* r ranges over d's items, d over a constant — the paper's
           [d2 in source.dept, r in d2.regEmp] shape. The probe must
           cover both stages so the table outlives the x loop. *)
        let gens =
          [
            const "x" [ 1; 2; 3 ];
            const "d" [ 10; 20 ];
            gen ~deps:[ "d" ] "r" (fun env -> [ lookup env "d" + 1; lookup env "d" + 2 ]);
          ]
        in
        let conds =
          [ eq ~left:[ "x" ] ~lkeys:(key1 "x")
              ~right:[ "r" ]
              ~rkeys:(fun env -> Atom.Int (lookup env "r" mod 10)) ]
        in
        let p = P.plan ~bound:[] ~gens ~conds () in
        checks "shape" "scan(x) probe(d.r@0)" (P.describe p);
        let got, _ = run_plan p in
        checkb "same bindings as naive" true (got = run_naive gens conds));
    Alcotest.test_case "no join when the table would rebuild per probe" `Quick
      (fun () ->
        (* y depends on x (the probe side): the table cannot outlive
           any generator, so the equality stays a pushed-down filter. *)
        let gens =
          [ const "x" [ 1; 2 ]; gen ~deps:[ "x" ] "y" (fun env -> [ lookup env "x"; 9 ]) ]
        in
        let conds = [ eq ~left:[ "x" ] ~lkeys:(key1 "x") ~right:[ "y" ] ~rkeys:(key1 "y") ] in
        let p = P.plan ~bound:[] ~gens ~conds () in
        checks "shape" "scan(x) scan(y/1)" (P.describe p);
        let got, _ = run_plan p in
        checkb "same bindings as naive" true (got = run_naive gens conds));
    Alcotest.test_case "shadowed variables disable pushdown" `Quick (fun () ->
        let gens = [ const "x" [ 1; 2 ]; const "x" [ 3; 4 ] ] in
        let conds = [ P.Other (pred [ "x" ] (fun env -> lookup env "x" > 3)) ] in
        let p = P.plan ~bound:[] ~gens ~conds () in
        checks "shape" "scan(x) scan(x/1)" (P.describe p);
        let got, _ = run_plan p in
        checki "bindings" 2 (List.length got));
    Alcotest.test_case "outer-bound conditions run once, before any stage" `Quick
      (fun () ->
        let gens = [ const "x" [ 1; 2; 3 ] ] in
        let conds = [ P.Other (pred [ "b" ] (fun _ -> false)) ] in
        let p = P.plan ~bound:[ "b" ] ~gens ~conds () in
        let got, ticks = run_plan p in
        checki "bindings" 0 (List.length got);
        checki "ticks" 0 ticks);
  ]

(* --- The cost model and the [`Cost] policy ----------------------------- *)

let cost_tests =
  let join_conds =
    [ eq ~left:[ "x" ] ~lkeys:(key1 "x") ~right:[ "y" ] ~rkeys:(key1 "y") ]
  in
  [
    Alcotest.test_case "join_pays: tiny inputs scan, large inputs join" `Quick
      (fun () ->
        checkb "2x2 scans" false (P.join_pays ~outer:(Some 2) ~seg:(Some 2));
        checkb "100x100 joins" true (P.join_pays ~outer:(Some 100) ~seg:(Some 100));
        checkb "unknown outer joins" true (P.join_pays ~outer:None ~seg:(Some 2));
        checkb "unknown seg joins" true (P.join_pays ~outer:(Some 2) ~seg:None));
    Alcotest.test_case "`Cost keeps a tiny join as scans, `Force builds it" `Quick
      (fun () ->
        let gens = [ const ~est:2 "x" [ 1; 2 ]; const ~est:2 "y" [ 2; 3 ] ] in
        checks "forced" "scan(x) probe(y@0)"
          (P.describe (P.plan ~policy:`Force ~bound:[] ~gens ~conds:join_conds ()));
        let costed = P.plan ~policy:`Cost ~bound:[] ~gens ~conds:join_conds () in
        checks "costed" "scan(x) scan(y/1)" (P.describe costed);
        let got, _ = run_plan costed in
        checkb "same bindings as naive" true (got = run_naive gens join_conds));
    Alcotest.test_case "`Cost builds the table when the product is large" `Quick
      (fun () ->
        let xs = List.init 40 Fun.id in
        let gens = [ const ~est:40 "x" xs; const ~est:40 "y" xs ] in
        let costed = P.plan ~policy:`Cost ~bound:[] ~gens ~conds:join_conds () in
        checks "costed" "scan(x) probe(y@0)" (P.describe costed);
        let got, _ = run_plan costed in
        checkb "same bindings as naive" true (got = run_naive gens join_conds));
    Alcotest.test_case "`Cost reads estimates only to price a join" `Quick (fun () ->
        (* A chain with no equality has no join to price: planning and
           running it force neither an estimate nor the run count. *)
        let unread var items =
          { (const var items) with P.est = lazy (Alcotest.fail (var ^ "'s estimate was read")) }
        in
        let gens = [ unread "x" [ 1; 2 ]; unread "y" [ 2; 3 ] ] in
        let conds = [ P.Other (pred [ "x"; "y" ] (fun env -> lookup env "x" < lookup env "y")) ] in
        let p =
          P.plan ~policy:`Cost ~runs:(lazy (Alcotest.fail "runs was read")) ~bound:[] ~gens
            ~conds ()
        in
        checks "no equality" "scan(x) scan(y/1)" (P.describe p);
        ignore (P.inner_runs ~runs:(lazy (Alcotest.fail "runs was read")) p);
        let got, _ = run_plan p in
        checkb "same bindings as naive" true (got = run_naive gens conds);
        (* An equality still reads both estimates and prices its join
           as before. *)
        let reads = ref 0 in
        let counted est var items =
          { (const var items) with P.est = lazy (incr reads; Some est) }
        in
        let xs = List.init 40 Fun.id in
        let plan est =
          P.describe
            (P.plan ~policy:`Cost ~bound:[]
               ~gens:[ counted est "x" xs; counted est "y" xs ]
               ~conds:join_conds ())
        in
        checks "large: join" "scan(x) probe(y@0)" (plan 40);
        checkb "both estimates read" true (!reads = 2);
        checks "tiny: scans" "scan(x) scan(y/1)" (plan 2));
    Alcotest.test_case "`Cost prices unknown estimates as large (joins)" `Quick
      (fun () ->
        let gens = [ const "x" [ 1; 2 ]; const "y" [ 2; 3 ] ] in
        checks "costed" "scan(x) probe(y@0)"
          (P.describe (P.plan ~policy:`Cost ~bound:[] ~gens ~conds:join_conds ())));
    Alcotest.test_case "a key-less equality never becomes a join, any policy" `Quick
      (fun () ->
        (* the [y.a = 5] shape: one side is a constant, so there is no
           equi-join key between generators *)
        let gens = [ const "x" [ 1; 2; 5 ]; const "y" [ 5; 7 ] ] in
        let conds =
          [
            P.Eq
              {
                left = { P.kvars = [ "y" ]; keys = (fun env f -> f (key1 "y" env)) };
                right = { P.kvars = []; keys = (fun _ f -> f (Atom.Int 5)) };
                orig = pred [ "y" ] (fun env -> lookup env "y" = 5);
              };
          ]
        in
        List.iter
          (fun policy ->
            let p = P.plan ~policy ~bound:[] ~gens ~conds () in
            checks "stays a filter" "scan(x) scan(y/1)" (P.describe p);
            let got, _ = run_plan p in
            checkb "same bindings as naive" true (got = run_naive gens conds))
          [ `Force; `Cost ]);
  ]

(* --- Key normalisation ------------------------------------------------- *)

let key_tests =
  [
    Alcotest.test_case "Int 3 and Float 3.0 are one key" `Quick (fun () ->
        checkb "equal" true
          (P.Key.equal (P.Key.of_atom (Atom.Int 3)) (P.Key.of_atom (Atom.Float 3.0)));
        checki "hash agrees" (P.Key.hash_atom (Atom.Int 3)) (P.Key.hash_atom (Atom.Float 3.0)));
    Alcotest.test_case "all NaNs collapse to one key" `Quick (fun () ->
        checkb "equal" true
          (P.Key.equal
             (P.Key.of_atom (Atom.Float Float.nan))
             (P.Key.of_atom (Atom.Float (Float.neg Float.nan))));
        checki "hash agrees"
          (P.Key.hash_atom (Atom.Float Float.nan))
          (P.Key.hash_atom (Atom.Float (Float.neg Float.nan))));
    Alcotest.test_case "0. and -0. are one key (Atom.equal holds on them)" `Quick
      (fun () ->
        checkb "atoms equal" true (Atom.equal (Atom.Float 0.) (Atom.Float (-0.)));
        checkb "keys agree" true
          (P.Key.equal (P.Key.of_atom (Atom.Float 0.)) (P.Key.of_atom (Atom.Float (-0.))));
        checki "hash agrees" (P.Key.hash_atom (Atom.Float 0.)) (P.Key.hash_atom (Atom.Float (-0.)));
        checki "hash agrees with Int 0" (P.Key.hash_atom (Atom.Int 0))
          (P.Key.hash_atom (Atom.Float (-0.))));
    Alcotest.test_case "strings, bools and numbers never collide" `Quick (fun () ->
        let keys =
          [
            P.Key.of_atom (Atom.String "1");
            P.Key.of_atom (Atom.Int 1);
            P.Key.of_atom (Atom.Bool true);
          ]
        in
        List.iteri
          (fun i a ->
            List.iteri (fun j b -> if i <> j then checkb "distinct" false (P.Key.equal a b)) keys)
          keys);
    Alcotest.test_case "composite keys compare per position" `Quick (fun () ->
        checkb "equal" true
          (P.Key.equal
             (P.Key.of_atoms [ Atom.Int 1; Atom.String "a" ])
             (P.Key.of_atoms [ Atom.Float 1.; Atom.String "a" ]));
        checkb "length matters" false
          (P.Key.equal (P.Key.of_atoms [ Atom.Int 1 ]) (P.Key.of_atoms [ Atom.Int 1; Atom.Int 1 ])));
  ]

(* --- The tag index --------------------------------------------------------- *)

let index_tests =
  let wide n tag =
    (* [n] children alternating [tag] and <other>, with text noise *)
    Node.elem "root"
      (List.concat_map
         (fun i ->
           [
             Node.elem (if i mod 2 = 0 then tag else "other") [];
             Node.text (Atom.Int i);
           ])
         (List.init n Fun.id))
  in
  let elem_of = function Node.Element e -> e | Node.Text _ -> assert false in
  [
    Alcotest.test_case "children_by_tag matches a scan, in document order" `Quick
      (fun () ->
        List.iter
          (fun n ->
            let doc = wide n "a" in
            let idx = Clip_xml.Index.build doc in
            let e = elem_of doc in
            let scan =
              List.filter
                (function Node.Element c -> String.equal c.Node.tag "a" | _ -> false)
                e.Node.children
            in
            (* twice: the second probe exercises the memoised path *)
            checkb "first probe" true (Clip_xml.Index.children_by_tag idx e (Clip_xml.Symbol.intern "a") = scan);
            checkb "memoised probe" true (Clip_xml.Index.children_by_tag idx e (Clip_xml.Symbol.intern "a") = scan);
            checkb "absent tag" true (Clip_xml.Index.children_by_tag idx e (Clip_xml.Symbol.intern "zzz") = []))
          (* below and above the small-children fast-path threshold *)
          [ 0; 3; 100 ]);
    Alcotest.test_case "the index answers for constructed elements too" `Quick
      (fun () ->
        let doc = Node.elem "doc" [] in
        let idx = Clip_xml.Index.build doc in
        let foreign = Node.elem "f" [ Node.elem "kid" []; Node.elem "kid" [] ] in
        checki "foreign children" 2
          (List.length (Clip_xml.Index.children_by_tag idx (elem_of foreign) (Clip_xml.Symbol.intern "kid"))));
  ]

(* --- The columnar document the rel store loads ---------------------------- *)

let docidx_tests =
  let module Doc = Clip_xml.Doc in
  let wide n tag =
    Node.elem "root"
      (List.concat_map
         (fun i ->
           [
             Node.elem (if i mod 2 = 0 then tag else "other") [];
             Node.text (Atom.Int i);
           ])
         (List.init n Fun.id))
  in
  (* the boxed nodes in preorder: the id order [Doc.of_node] assigns *)
  let preorder n =
    let rec go acc = function
      | [] -> List.rev acc
      | (Node.Text _ as t) :: rest -> go (t :: acc) rest
      | (Node.Element e as el) :: rest -> go (el :: acc) (e.Node.children @ rest)
    in
    go [] [ n ]
  in
  [
    Alcotest.test_case "to_node returns the original node physically" `Quick
      (fun () ->
        let n = wide 10 "a" in
        let doc = Doc.of_node n in
        let nodes = preorder n in
        checki "one id per node" (List.length nodes) (Doc.length doc);
        List.iteri
          (fun id node ->
            checkb (Printf.sprintf "node %d" id) true (doc.Doc.nodes.(id) == node))
          nodes);
    Alcotest.test_case "rebuild reconstructs the tree structurally" `Quick
      (fun () ->
        let n = wide 7 "a" in
        let doc = Doc.of_node n in
        let n' = Doc.rebuild doc 0 in
        checkb "fresh value" false (n' == n);
        checkb "equal" true (Node.equal n' n));
    Alcotest.test_case "text_value_of agrees with Node.text_value" `Quick
      (fun () ->
        let node =
          Node.elem "r"
            [
              Node.elem "t" [ Node.text_string "hi" ];
              Node.elem "empty" [];
              Node.elem "nested" [ Node.elem "t" [ Node.text_string "deep" ] ];
            ]
        in
        let doc = Doc.of_node node in
        let read id =
          let v = doc.Doc.text_value.(id) in
          if v < 0 then None else Some doc.Doc.atoms.(v)
        in
        List.iteri
          (fun id n ->
            checkb
              (Printf.sprintf "node %d" id)
              true
              (match n with
               | Node.Element e -> read id = Node.text_value e
               | Node.Text a -> read id = Some a))
          (preorder node));
  ]

(* --- Differential: every backend and plan against the oracle ----------- *)

module S = Clip_scenarios
module Engine = Clip_core.Engine

let backend_name = function
  | `Tgd -> "tgd"
  | `Xquery -> "xquery"
  | `Rel -> "rel"

let run_mode sc ~backend ~plan doc =
  match
    Engine.run_result ~limits:Clip_diag.Limits.unlimited ~backend
      ~minimum_cardinality:sc.S.Figures.minimum_cardinality ~plan
      sc.S.Figures.mapping doc
  with
  | Ok d -> d
  | Error ds ->
    Alcotest.failf "%s/%s did not run: %s" sc.S.Figures.name (backend_name backend)
      (Clip_diag.render_list ds)

(* The reference interpreter's target: the expected output of every
   backend and plan. *)
let naive (sc : S.Figures.t) doc =
  Tgd_oracle.expect ~minimum_cardinality:sc.minimum_cardinality sc.mapping doc

(* Over 256 nodes, where the paper instance has under 100. *)
let scaled_instance = lazy (S.Deptdb.synthetic_instance ~depts:8 ~projs:5 ~emps:10)

(* The universal-solution ablation runs on tgd only. *)
let all_backends (sc : S.Figures.t) =
  if sc.minimum_cardinality then [ `Tgd; `Xquery ] else [ `Tgd ]

let differential_tests =
  List.concat_map
    (fun (sc : S.Figures.t) ->
      List.map
        (fun backend ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s: indexed ≡ naive" sc.S.Figures.name (backend_name backend))
            `Quick
            (fun () ->
              List.iter
                (fun (iname, doc) ->
                  let naive = Printer.to_string (naive sc doc) in
                  (* byte-identical, not just unordered-equal: the plan
                     layer promises exact enumeration order *)
                  List.iter
                    (fun (pname, plan) ->
                      checks
                        (Printf.sprintf "%s instance, %s" iname pname)
                        naive
                        (Printer.to_string (run_mode sc ~backend ~plan doc)))
                    [ ("indexed", `Indexed); ("auto", `Auto) ])
                [ ("paper", S.Deptdb.instance); ("scaled", Lazy.force scaled_instance) ]))
        (all_backends sc))
    S.Figures.all

let scaled_differential_tests =
  [
    Alcotest.test_case "scaled synthetic instances agree on the join figures" `Quick
      (fun () ->
        let doc = S.Deptdb.synthetic_instance ~depts:6 ~projs:3 ~emps:5 in
        List.iter
          (fun (sc : S.Figures.t) ->
            List.iter
              (fun backend ->
                List.iter
                  (fun plan ->
                    checkb
                      (Printf.sprintf "%s identical" sc.S.Figures.name)
                      true
                      (Node.equal (naive sc doc) (run_mode sc ~backend ~plan doc)))
                  [ `Indexed; `Auto ])
              [ `Tgd; `Xquery ])
          S.Figures.[ fig5; fig6; fig6_join_global; fig7 ]);
  ]

(* --- Differential: the columnar copy against the tree ------------------- *)

(* [Clip_xml.Doc] is the columnar copy of a document that the rel
   store loads. Rebuilt back into a tree, it must run exactly like the
   document it came from — same bytes under every backend and plan
   mode — even though every rebuilt element carries a fresh allocation
   id. *)
let rebuilt doc = Clip_xml.Doc.rebuild (Clip_xml.Doc.of_node doc) 0

let repr_differential_tests =
  let backends (sc : S.Figures.t) =
    if sc.S.Figures.minimum_cardinality then [ `Tgd; `Xquery ] else [ `Tgd ]
  in
  List.concat_map
    (fun (sc : S.Figures.t) ->
      List.map
        (fun backend ->
          let bname = match backend with `Tgd -> "tgd" | _ -> "xquery" in
          Alcotest.test_case
            (Printf.sprintf "%s/%s: columnar ≡ tree" sc.S.Figures.name bname)
            `Quick
            (fun () ->
              let doc = S.Deptdb.instance in
              let copy = rebuilt doc in
              List.iter
                (fun (pname, plan) ->
                  checks pname
                    (Printer.to_string (run_mode sc ~backend ~plan doc))
                    (Printer.to_string (run_mode sc ~backend ~plan copy)))
                [ ("indexed", `Indexed); ("auto", `Auto) ]))
        (backends sc))
    S.Figures.all

(* Random mapping programs would need a generator for the mapping DSL;
   random *data* under the deptdb schema is cheap and exercises the
   same decision points (empty generators, duplicate keys, missing
   referents), so fuzz the instance and keep the figure mappings. *)
let fuzz_differential =
  QCheck.Test.make ~count:60
    ~name:"indexed ≡ auto ≡ naive on random deptdb instances"
    QCheck.(triple (int_range 1 5) (int_range 0 4) (int_range 0 6))
    (fun (depts, projs, emps) ->
      let doc = S.Deptdb.synthetic_instance ~depts ~projs ~emps in
      List.for_all
        (fun (sc : S.Figures.t) ->
          let naive = Printer.to_string (naive sc doc) in
          List.for_all
            (fun backend ->
              List.for_all
                (fun plan ->
                  String.equal naive (Printer.to_string (run_mode sc ~backend ~plan doc)))
                [ `Indexed; `Auto ])
            (all_backends sc))
        S.Figures.all)

(* --- [`Auto] picks the join where it matters --------------------------- *)

(* The work counters of the reference interpreter's run. *)
let naive_counters (sc : S.Figures.t) doc =
  let c = Clip_obs.Counters.create () in
  ignore
    (ok
       (Tgd_oracle.run_mapping ~limits:Clip_diag.Limits.unlimited ~obs:c
          ~minimum_cardinality:sc.minimum_cardinality sc.mapping doc));
  c

let naive_steps sc doc = (naive_counters sc doc).Clip_obs.Counters.lim_ticks

let steps_of (sc : S.Figures.t) ~plan doc =
  let c = Clip_obs.Counters.create () in
  match
    Engine.run_result ~ctx:(Clip_run.create ~counters:c ())
      ~limits:Clip_diag.Limits.unlimited
      ~minimum_cardinality:sc.S.Figures.minimum_cardinality ~plan
      sc.S.Figures.mapping doc
  with
  | Ok _ -> c.Clip_obs.Counters.lim_ticks
  | Error ds ->
    Alcotest.failf "%s did not run: %s" sc.S.Figures.name (Clip_diag.render_list ds)

let auto_steps_tests =
  [
    Alcotest.test_case "`Auto hash-joins the scaled global join" `Quick (fun () ->
        let doc = S.Deptdb.synthetic_instance ~depts:40 ~projs:5 ~emps:10 in
        let naive = naive_steps S.Figures.fig6_join_global doc in
        let auto = steps_of S.Figures.fig6_join_global ~plan:`Auto doc in
        (* the probe enumerates only matches, so the quadratic naive
           step count collapses; a generous factor keeps this stable *)
        checkb
          (Printf.sprintf "auto steps %d < naive steps %d / 2" auto naive)
          true
          (auto < naive / 2));
    Alcotest.test_case "`Auto never enumerates more than the forced join" `Quick
      (fun () ->
        (* on the paper instances every figure is small — `Auto's cost
           model keeps scans, and its step count stays within the
           oracle's ballpark (streaming adds at most one tick per stage
           item) *)
        let doc = S.Deptdb.instance in
        List.iter
          (fun (sc : S.Figures.t) ->
            let naive = naive_steps sc doc in
            let auto = steps_of sc ~plan:`Auto doc in
            checkb
              (Printf.sprintf "%s: auto %d <= 2 * naive %d" sc.S.Figures.name auto naive)
              true
              (auto <= 2 * naive))
          S.Figures.all);
  ]

(* --- Counters: the observability layer as a metamorphic oracle ---------- *)

module C = Clip_obs.Counters

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* The output and counters of one run. Runs share no state, so these
   are deterministic. *)
let counted_run (sc : S.Figures.t) ~backend ~plan doc =
  let c = C.create () in
  let out =
    ok
      (Engine.run_result ~ctx:(Clip_run.create ~counters:c ()) ~backend
         ~minimum_cardinality:sc.S.Figures.minimum_cardinality ~plan
         sc.S.Figures.mapping doc)
  in
  (out, c)

(* On tgd, both plans scan no more nodes than the reference
   interpreter, which scans every child of every element it steps
   through. The generated XQuery walks the source its own way (fig7's
   and fig8's groupings re-read it), so on xquery the bound is the
   cost-based plan's: the forced hash joins read each joined side once
   per table build, and so scan no more. *)
let counter_invariants (sc : S.Figures.t) ~backend doc =
  let out_i, ci = counted_run sc ~backend ~plan:`Indexed doc in
  let out_a, ca = counted_run sc ~backend ~plan:`Auto doc in
  checks "indexed and auto outputs agree" (Printer.to_string out_i)
    (Printer.to_string out_a);
  let bound, bname, plans =
    match backend with
    | `Tgd ->
      ((naive_counters sc doc).C.nodes_scanned, "naive", [ ("indexed", ci); ("auto", ca) ])
    | _ -> (ca.C.nodes_scanned, "auto", [ ("indexed", ci) ])
  in
  List.iter
    (fun (mode, (c : C.t)) ->
      checkb
        (Printf.sprintf "%s scans %d <= %s scans %d" mode c.C.nodes_scanned bname bound)
        true
        (c.C.nodes_scanned <= bound))
    plans

(* The instance the counting-overhead benchmark runs on (scale 10). *)
let scale10_instance = lazy (S.Deptdb.synthetic_instance ~depts:20 ~projs:5 ~emps:10)

let counter_tests =
  let backends (sc : S.Figures.t) =
    if sc.S.Figures.minimum_cardinality then [ `Tgd; `Xquery ] else [ `Tgd ]
  in
  List.concat_map
    (fun (sc : S.Figures.t) ->
      List.map
        (fun backend ->
          let bname = match backend with `Tgd -> "tgd" | _ -> "xquery" in
          Alcotest.test_case
            (Printf.sprintf "%s/%s: counter invariants" sc.S.Figures.name bname)
            `Quick
            (fun () ->
              List.iter
                (counter_invariants sc ~backend)
                [
                  S.Deptdb.instance;
                  Lazy.force scaled_instance;
                  Lazy.force scale10_instance;
                ]))
        (backends sc))
    S.Figures.all
  @ [
      Alcotest.test_case "scaled join: counter invariants over 256 nodes"
        `Quick
        (fun () ->
          let doc = S.Deptdb.synthetic_instance ~depts:8 ~projs:5 ~emps:10 in
          List.iter
            (fun backend -> counter_invariants S.Figures.fig6 ~backend doc)
            [ `Tgd; `Xquery ]);
      Alcotest.test_case "explain output is deterministic" `Quick (fun () ->
          List.iter
            (fun plan ->
              let once () =
                ok
                  (Engine.explain_result ~backend:`Tgd ~plan
                     S.Figures.fig6.S.Figures.mapping S.Deptdb.instance)
              in
              checks "two renders agree" (once ()) (once ()))
            [ `Indexed; `Auto ]);
    ]

(* Exact work counters of one run per figure × plan on one fixed
   instance of over 256 nodes, recorded from the interpreted evaluator
   the compiled rule bodies replaced: compiling must tick and count at
   the same sites, in the same order. The naive rows are the reference
   interpreter's, the others the engine's. Columns: lim_ticks,
   child_steps, nodes_scanned, hash_join_builds, hash_join_probes. *)
let pinned_counters =
  [
    ("fig3", "naive", (694, 138, 394, 0, 0));
    ("fig3", "indexed", (702, 138, 394, 0, 0));
    ("fig3", "auto", (702, 138, 394, 0, 0));
    ("fig3-universal", "naive", (694, 138, 394, 0, 0));
    ("fig3-universal", "indexed", (702, 138, 394, 0, 0));
    ("fig3-universal", "auto", (702, 138, 394, 0, 0));
    ("fig4", "naive", (702, 138, 394, 0, 0));
    ("fig4", "indexed", (702, 138, 394, 0, 0));
    ("fig4", "auto", (702, 138, 394, 0, 0));
    ("fig4-nocontext", "naive", (5562, 1105, 3160, 0, 0));
    ("fig4-nocontext", "indexed", (5626, 1105, 3160, 0, 0));
    ("fig4-nocontext", "auto", (5626, 1105, 3160, 0, 0));
    ("fig5", "naive", (642, 137, 464, 0, 0));
    ("fig5", "indexed", (642, 137, 464, 0, 0));
    ("fig5", "auto", (642, 137, 464, 0, 0));
    ("fig6", "naive", (3546, 209, 1016, 0, 0));
    ("fig6", "indexed", (1642, 177, 504, 8, 40));
    ("fig6", "auto", (1642, 177, 504, 8, 40));
    ("fig6-cartesian", "naive", (3706, 849, 1976, 0, 0));
    ("fig6-cartesian", "indexed", (3746, 849, 1976, 0, 0));
    ("fig6-cartesian", "auto", (3746, 849, 1976, 0, 0));
    ("fig6-global", "naive", (29538, 6769, 15176, 0, 0));
    ("fig6-global", "indexed", (29906, 6769, 15176, 0, 0));
    ("fig6-global", "auto", (29906, 6769, 15176, 0, 0));
    ("fig6-join-global", "naive", (23778, 529, 5816, 0, 0));
    ("fig6-join-global", "indexed", (1644, 178, 512, 1, 40));
    ("fig6-join-global", "auto", (1644, 178, 512, 1, 40));
    ("fig7", "naive", (3618, 209, 1016, 0, 0));
    ("fig7", "indexed", (2746, 209, 1016, 40, 40));
    ("fig7", "auto", (3666, 209, 1016, 0, 0));
    ("fig8", "naive", (618, 129, 856, 0, 0));
    ("fig8", "indexed", (626, 129, 856, 0, 0));
    ("fig8", "auto", (626, 129, 856, 0, 0));
    ("fig9", "naive", (106, 113, 680, 0, 0));
    ("fig9", "indexed", (106, 113, 680, 0, 0));
    ("fig9", "auto", (106, 113, 680, 0, 0));
  ]

let pinned_counter_tests =
  [
    Alcotest.test_case "work counters per figure × plan equal the pinned values"
      `Quick (fun () ->
        let doc = S.Deptdb.synthetic_instance ~depts:8 ~projs:5 ~emps:10 in
        let counters sc = function
          | "naive" -> naive_counters sc doc
          | pname ->
            snd
              (counted_run sc ~backend:`Tgd
                 ~plan:(if pname = "indexed" then `Indexed else `Auto)
                 doc)
        in
        checki "one pinned row per figure × plan"
          (3 * List.length S.Figures.all)
          (List.length pinned_counters);
        List.iter
          (fun (name, pname, expected) ->
            let sc =
              List.find (fun (sc : S.Figures.t) -> sc.S.Figures.name = name) S.Figures.all
            in
            let c = counters sc pname in
            let got =
              C.
                ( c.lim_ticks,
                  c.child_steps,
                  c.nodes_scanned,
                  c.hash_join_builds,
                  c.hash_join_probes )
            in
            let show (a, b, c, d, e) = Printf.sprintf "(%d, %d, %d, %d, %d)" a b c d e in
            checks (Printf.sprintf "%s/%s" name pname) (show expected) (show got))
          pinned_counters);
    Alcotest.test_case "no state crosses runs: one context twice = a fresh one"
      `Quick (fun () ->
        (* A context carries no cache: the second run through it must do
           exactly the first run's work, and a fresh context the same. A
           run's work is what it adds to the context's record. *)
        let doc = S.Deptdb.synthetic_instance ~depts:8 ~projs:5 ~emps:10 in
        List.iter
          (fun (sc : S.Figures.t) ->
            let run ctx c =
              let before = C.to_assoc c in
              let out =
                ok
                  (Engine.run_result ~ctx ~plan:`Indexed
                     ~minimum_cardinality:sc.S.Figures.minimum_cardinality
                     sc.S.Figures.mapping doc)
              in
              ( Printer.to_string out,
                List.map2 (fun (k, n0) (_, n) -> (k, n - n0)) before (C.to_assoc c) )
            in
            let c = C.create () in
            let shared = Clip_run.create ~counters:c () in
            let first = run shared c in
            let second = run shared c in
            let c' = C.create () in
            let fresh = run (Clip_run.create ~counters:c' ()) c' in
            let show (text, counts) =
              Digest.to_hex (Digest.string text)
              ^ " "
              ^ String.concat " "
                  (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) counts)
            in
            let name = sc.S.Figures.name in
            checks (name ^ ": second run through one context") (show first)
              (show second);
            checks (name ^ ": fresh context") (show first) (show fresh))
          S.Figures.all);
  ]

(* --- Counters on the columnar copy ---------------------------------------- *)

(* The rebuilt copy (see [rebuilt]) must also cost exactly what the
   original does: same scans, probes, joins and budget ticks. *)
let repr_counter_tests =
  [
    Alcotest.test_case "columnar does the tree run's work, per figure" `Quick
      (fun () ->
        let copy = rebuilt S.Deptdb.instance in
        List.iter
          (fun (sc : S.Figures.t) ->
            List.iter
              (fun backend ->
                List.iter
                  (fun plan ->
                    let _, ct = counted_run sc ~backend ~plan S.Deptdb.instance in
                    let _, cc = counted_run sc ~backend ~plan copy in
                    checkb
                      (Printf.sprintf "%s work counters agree" sc.S.Figures.name)
                      true
                      (C.work_assoc ct = C.work_assoc cc))
                  [ `Indexed; `Auto ])
              (if sc.S.Figures.minimum_cardinality then [ `Tgd; `Xquery ]
               else [ `Tgd ]))
          S.Figures.all);
  ]

(* --- Run-scoped tables ---------------------------------------------------- *)

(* The nested-mapping shape: [c] is bound by the parent plan, and the
   chain joins its one generator [g] to it. *)
let nested_join ?(policy = `Force) ?runs ?(deps = []) ?(eval = fun _ -> [ 3; 1; 2; 1; 3 ])
    () =
  P.plan ~policy
    ?runs:(Option.map (fun r -> Lazy.from_val (Some r)) runs)
    ~bound:[ "c" ]
    ~gens:[ gen ~deps ~est:5 "g" eval ]
    ~conds:[ eq ~left:[ "c" ] ~lkeys:(key1 "c") ~right:[ "g" ] ~rkeys:(key1 "g") ]
    ()

(* Execute [p] once per parent value under one [run]; the [g]s each
   execution emits. *)
let per_parent ?(obs = Clip_obs.Counters.create ()) ~run p parents =
  List.map
    (fun c ->
      let acc = ref [] in
      P.execute ~obs ~run p ~tick:ignore ~env:[ ("c", c) ]
        ~emit:(fun env -> acc := lookup env "g" :: !acc);
      List.rev !acc)
    parents

let atom_gen =
  QCheck2.Gen.oneofl
    Atom.
      [
        Int 1; Float 1.0; String "1"; Float 0.; Float (-0.); Float Float.nan; Int 2;
        String "x"; Bool true; Int max_int; Int (max_int - 1); Float (float_of_int max_int);
      ]

(* Multi-valued sides over keys that coarsen ([Int 1] / [Float 1.]),
   collide in kind ([String "1"]), or are special floats: both probe
   scopes must return exactly the naive join, in order. *)
let flat_table_property =
  QCheck2.Test.make ~count:300
    ~name:"flat tables: multi-valued, coarsened and special keys join like naive"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 5) (list_size (int_range 0 3) atom_gen))
        (list_size (int_range 0 12) (list_size (int_range 0 3) atom_gen)))
    (fun (parents, children) ->
      let pa = Array.of_list parents and ca = Array.of_list children in
      let keys a x env f = List.iter f a.(lookup env x) in
      let joins env =
        List.exists
          (fun a -> List.exists (Atom.equal a) ca.(lookup env "g"))
          pa.(lookup env "c")
      in
      let cond =
        P.Eq
          {
            left = { P.kvars = [ "c" ]; keys = keys pa "c" };
            right = { P.kvars = [ "g" ]; keys = keys ca "g" };
            orig = pred [ "c"; "g" ] joins;
          }
      in
      let idx a = List.init (Array.length a) Fun.id in
      let g = const "g" (idx ca) in
      let nested = P.plan ~bound:[ "c" ] ~gens:[ g ] ~conds:[ cond ] () in
      let flat = P.plan ~bound:[] ~gens:[ const "c" (idx pa); g ] ~conds:[ cond ] () in
      let expected =
        List.map
          (fun c -> List.filter (fun g -> joins [ ("g", g); ("c", c) ]) (idx ca))
          (idx pa)
      in
      String.equal (P.describe nested) "probe(g@run)"
      && String.equal (P.describe flat) "scan(c) probe(g@0)"
      && per_parent ~run:(P.Run.create ()) nested (idx pa) = expected
      && fst (run_plan flat) = run_naive [ const "c" (idx pa); g ] [ cond ])

let run_table_tests =
  [
    Alcotest.test_case "a parent-bound equality probes a table built once per run"
      `Quick (fun () ->
        let p = nested_join () in
        checks "shape" "probe(g@run)" (P.describe p);
        let c = C.create () in
        let run = P.Run.create () in
        let got = per_parent ~obs:c ~run p [ 1; 2; 3; 4; 1 ] in
        Alcotest.(check (list (list int)))
          "matches in build order" [ [ 1; 1 ]; [ 2 ]; [ 3; 3 ]; []; [ 1; 1 ] ] got;
        checki "one build for five executions" 1 c.C.hash_join_builds;
        checki "five probes" 5 c.C.hash_join_probes;
        ignore (per_parent ~obs:c ~run:(P.Run.create ()) p [ 1 ]);
        checki "a new run builds its own table" 2 c.C.hash_join_builds);
    Alcotest.test_case "the run-scoped build waits for the first probe" `Quick
      (fun () ->
        (* The segment's generator fails the way a wrong source root
           does: while no probe is reached, nothing may evaluate it. *)
        let p =
          P.plan ~bound:[ "c" ]
            ~gens:[ gen "g" (fun _ -> failwith "wrong root") ]
            ~conds:
              [
                P.Other (pred [ "c" ] (fun env -> lookup env "c" > 0));
                eq ~left:[ "c" ] ~lkeys:(key1 "c") ~right:[ "g" ] ~rkeys:(key1 "g");
              ]
            ()
        in
        checks "shape" "probe(g@run)" (P.describe p);
        let run = P.Run.create () in
        Alcotest.(check (list (list int)))
          "no probe, no build" [ []; [] ] (per_parent ~run p [ 0; -1 ]);
        checkb "the first probe builds" true
          (match per_parent ~run p [ 1 ] with
           | exception Failure _ -> true
           | _ -> false));
    Alcotest.test_case "a constant-only equality stays a filter under an outer scope"
      `Quick (fun () ->
        let conds =
          [
            P.Eq
              {
                left = { P.kvars = [ "g" ]; keys = (fun env f -> f (key1 "g" env)) };
                right = { P.kvars = []; keys = (fun _ f -> f (Atom.Int 1)) };
                orig = pred [ "g" ] (fun env -> lookup env "g" = 1);
              };
          ]
        in
        List.iter
          (fun policy ->
            let p =
              P.plan ~policy ~bound:[ "c" ] ~gens:[ const "g" [ 3; 1; 2; 1 ] ] ~conds ()
            in
            checks "stays a filter" "scan(g/1)" (P.describe p))
          [ `Force; `Cost ]);
    Alcotest.test_case "a segment reading the parent is rescanned per binding"
      `Quick (fun () ->
        let p = nested_join ~deps:[ "c" ] () in
        checks "filter" "scan(g/1)" (P.describe p));
    Alcotest.test_case "`Cost prices the per-run table by the plan's runs" `Quick
      (fun () ->
        checks "2 runs x 5 rows scan" "scan(g/1)"
          (P.describe (nested_join ~policy:`Cost ~runs:2 ()));
        checks "100 runs x 5 rows join" "probe(g@run)"
          (P.describe (nested_join ~policy:`Cost ~runs:100 ()));
        checks "unknown runs join" "probe(g@run)"
          (P.describe (nested_join ~policy:`Cost ())));
    Alcotest.test_case "EXPLAIN names the per-run build and its cost inputs" `Quick
      (fun () ->
        checks "explain"
          "  stage 0: hash probe g (built once per run, est 5) [1 residual filter]\n\
          \  note: eq(c,g): hash join over g, built once per run (outer~100, seg~5: join pays)\n"
          (P.explain (nested_join ~policy:`Cost ~runs:100 ())));
    QCheck_alcotest.to_alcotest flat_table_property;
  ]

(* --- Frame scoping -------------------------------------------------------- *)

(* Planned runs bind variables in slots resolved at plan time. These
   tgds re-bind names, bind a source and a target variable under one
   name, and leave names unbound, on a document of over 256 nodes;
   every plan mode must give the reference interpreter's bytes or
   error text. The work counters of each mode are pinned to
   the values the name-keyed environments gave before slots, so a slot
   that resolves to the wrong binding, or a tick moved or dropped,
   shows as a changed count. *)
module Tgd = Clip_tgd.Tgd
module Term = Clip_tgd.Term
module Path = Clip_schema.Path

let scoping_doc = lazy (S.Deptdb.synthetic_instance ~depts:8 ~projs:5 ~emps:10)
let v x steps = Term.proj (Term.var x) steps
let src steps = Term.proj (Term.root "source") steps
let tgt steps = Term.proj (Term.root "t") steps
let dept_gen x = Tgd.source_gen x (src [ Path.Child "dept" ])

(* The outcome of one run — the engine's under [Some plan], the
   reference interpreter's under [None]: output bytes or error text, and the work
   counters as "lim_ticks child_steps nodes_scanned hash_join_builds
   hash_join_probes". *)
let scoped_run plan tgd =
  let source = Lazy.force scoping_doc in
  let c = C.create () in
  let result =
    match plan with
    | None -> Tgd_oracle.run ~obs:c ~source ~target_root:"t" tgd
    | Some plan ->
      Clip_tgd.Eval.run_result ~plan ~obs:c ~source ~target_root:"t" tgd
  in
  let text =
    match result with
    | Ok out -> Printer.to_string out
    | Error ds -> "error: " ^ String.concat "; " (List.map (fun d -> d.Clip_diag.message) ds)
  in
  let counts =
    C.
      [
        c.lim_ticks;
        c.child_steps;
        c.nodes_scanned;
        c.hash_join_builds;
        c.hash_join_probes;
      ]
  in
  (text, String.concat " " (List.map string_of_int counts))

let st_eq x attr scalar = Tgd.St_eq (v x [ Path.Attr attr ], scalar)
let at x steps = Term.E (v x steps)

(* Each case with the error text every mode must report, if any. *)
let scoping_cases =
  [
    (* The child's [d] ranges over the parent's [d]'s projects; the
       sibling after it must still see the parent's department. *)
    ( "a child rule re-binds a parent's source name",
      Tgd.make
        ~foralls:[ dept_gen "d" ]
        ~exists:[ Tgd.driven "x" (tgt [ Path.Child "dept" ]) ]
        ~assertions:[ st_eq "x" "name" (at "d" [ Path.Child "dname"; Path.Value ]) ]
        ~children:
          [
            Tgd.make
              ~foralls:[ Tgd.source_gen "d" (v "d" [ Path.Child "Proj" ]) ]
              ~cond:[ Tgd.cmp (at "d" [ Path.Attr "pid" ]) Tgd.Gt (Term.Const (Atom.Int 20)) ]
              ~exists:[ Tgd.driven "p" (v "x" [ Path.Child "proj" ]) ]
              ~assertions:[ st_eq "p" "pid" (at "d" [ Path.Attr "pid" ]) ]
              ();
            Tgd.make
              ~foralls:[ Tgd.source_gen "e" (v "d" [ Path.Child "regEmp" ]) ]
              ~cond:
                [
                  Tgd.cmp (at "e" [ Path.Attr "pid" ]) Tgd.Eq
                    (at "d" [ Path.Child "Proj"; Path.Attr "pid" ]);
                ]
              ~exists:[ Tgd.driven "y" (v "x" [ Path.Child "emp" ]) ]
              ~assertions:
                [
                  st_eq "y" "dept" (at "d" [ Path.Child "dname"; Path.Value ]);
                  st_eq "y" "name" (at "e" [ Path.Child "ename"; Path.Value ]);
                ]
              ();
          ]
        (),
      None );
    (* The second [d] ranges over the first [d]'s employees; the
       condition and the assertion read the inner one. *)
    ( "a chain re-binds its own earlier name",
      Tgd.make
        ~foralls:[ dept_gen "d"; Tgd.source_gen "d" (v "d" [ Path.Child "regEmp" ]) ]
        ~cond:
          [ Tgd.cmp (at "d" [ Path.Child "sal"; Path.Value ]) Tgd.Gt (Term.Const (Atom.Int 12000)) ]
        ~exists:[ Tgd.driven "e" (tgt [ Path.Child "emp" ]) ]
        ~assertions:[ st_eq "e" "name" (at "d" [ Path.Child "ename"; Path.Value ]) ]
        (),
      None );
    ( "an exists variable shares a forall name",
      Tgd.make
        ~foralls:[ dept_gen "d" ]
        ~exists:[ Tgd.driven "d" (tgt [ Path.Child "dept" ]) ]
        ~assertions:[ st_eq "d" "name" (at "d" [ Path.Child "dname"; Path.Value ]) ]
        (),
      Some "variable d is a target variable in a source position" );
    ( "an unbound name in a generator",
      Tgd.make
        ~foralls:[ dept_gen "d"; Tgd.source_gen "p" (v "q" [ Path.Child "Proj" ]) ]
        ~exists:[ Tgd.driven "x" (tgt [ Path.Child "proj" ]) ]
        (),
      Some "unbound source variable q" );
    ( "an unbound name in a condition",
      Tgd.make
        ~foralls:[ dept_gen "d"; Tgd.source_gen "p" (v "d" [ Path.Child "Proj" ]) ]
        ~cond:[ Tgd.cmp (at "p" [ Path.Attr "pid" ]) Tgd.Eq (at "z" [ Path.Attr "pid" ]) ]
        ~exists:[ Tgd.driven "x" (tgt [ Path.Child "proj" ]) ]
        (),
      Some "unbound source variable z" );
  ]

let scoping_plans = [ ("indexed", `Indexed); ("auto", `Auto) ]

(* Per case and mode, as the name-keyed environments counted them. *)
let pinned_scoping_counters =
  [
    (("a child rule re-binds a parent's source name", "naive"), "1614 265 3112 0 0");
    (("a child rule re-binds a parent's source name", "indexed"), "1614 265 3112 0 0");
    (("a child rule re-binds a parent's source name", "auto"), "1614 265 3112 0 0");
    (("a chain re-binds its own earlier name", "naive"), "670 132 382 0 0");
    (("a chain re-binds its own earlier name", "indexed"), "678 132 382 0 0");
    (("a chain re-binds its own earlier name", "auto"), "678 132 382 0 0");
    (("an exists variable shares a forall name", "naive"), "7 1 8 0 0");
    (("an exists variable shares a forall name", "indexed"), "7 1 8 0 0");
    (("an exists variable shares a forall name", "auto"), "7 1 8 0 0");
    (("an unbound name in a generator", "naive"), "4 1 8 0 0");
    (("an unbound name in a generator", "indexed"), "5 1 8 0 0");
    (("an unbound name in a generator", "auto"), "5 1 8 0 0");
    (("an unbound name in a condition", "naive"), "25 9 136 0 0");
    (("an unbound name in a condition", "indexed"), "12 2 24 0 0");
    (("an unbound name in a condition", "auto"), "12 2 24 0 0");
  ]

let scoping_tests =
  List.map
    (fun (name, tgd, error) ->
      Alcotest.test_case name `Quick (fun () ->
          let naive, naive_counts = scoped_run None tgd in
          Option.iter
            (fun e -> checkb ("reports: " ^ e) true (contains naive ("error: " ^ e)))
            error;
          checks "naive: pinned counters"
            (List.assoc (name, "naive") pinned_scoping_counters)
            naive_counts;
          List.iter
            (fun (pname, plan) ->
              let text, counts = scoped_run (Some plan) tgd in
              checks (pname ^ ": same bytes or error") naive text;
              checks (pname ^ ": pinned counters")
                (List.assoc (name, pname) pinned_scoping_counters)
                counts)
            scoping_plans))
    scoping_cases

(* --- Kernel edge cases --------------------------------------------------- *)

(* The compiled kernels — child steps pushed as they are met, leaf paths
   read where the walk ends, aggregates folded as their items come,
   conditions and keys over single atoms — against the reference
   interpreter, on departments whose [name] child is missing, single,
   repeated or of mixed text, whose attributes are present or not, and
   whose salaries are absent, numeric or not. Every rule but the last
   case's binds one generator, so both plans do the interpreter's
   exact work: their bytes or diagnostics (code and message) and their
   whole counter records must equal the interpreter's. *)

let kernel_dept = function
  | `One ->
    {|<dept id="1" code="7"><name lang="en">A</name><emp><sal>10</sal></emp><emp><sal>20.5</sal></emp></dept>|}
  | `Nameless -> {|<dept id="2"><emp><sal>30</sal></emp></dept>|}
  | `Twice -> {|<dept id="3"><name>B</name><name lang="fr">C</name></dept>|}
  | `Mixed -> {|<dept id="4"><name>D<b/>E</name><emp/></dept>|}
  | `Idless -> {|<dept><name>F</name></dept>|}
  | `Text -> {|<dept id="6"><name>G</name><emp><sal>x</sal></emp></dept>|}
  | `Empty -> {|<dept id="7"/>|}

let kernel_doc depts =
  ok
    (Clip_xml.Parser.parse_string_result
       ("<source>" ^ String.concat "" (List.map kernel_dept depts) ^ "</source>"))

(* One department rule: [x] is a target [dept] per source [d]. *)
let dept_rule ?(cond = []) ?(exists = []) ?(children = []) assertions =
  Tgd.make
    ~foralls:[ dept_gen "d" ]
    ~cond
    ~exists:(Tgd.driven "x" (tgt [ Path.Child "dept" ]) :: exists)
    ~assertions ~children ()

let d_at steps = at "d" steps
let x_attr name = v "x" [ Path.Attr name ]
let str s = Term.Const (Atom.String s)
let agg name kind steps = Tgd.Agg (x_attr name, kind, v "d" steps)
let sal = [ Path.Child "emp"; Path.Child "sal"; Path.Value ]
let name_value = [ Path.Child "name"; Path.Value ]

(* The outcome of one run: output bytes, or every diagnostic's code and
   message; and the counter record. *)
let kernel_run plan tgd source =
  let c = C.create () in
  let result =
    match plan with
    | None -> Tgd_oracle.run ~obs:c ~source ~target_root:"t" tgd
    | Some plan -> Clip_tgd.Eval.run_result ~plan ~obs:c ~source ~target_root:"t" tgd
  in
  let text =
    match result with
    | Ok out -> Printer.to_string out
    | Error ds ->
      "error: "
      ^ String.concat "; " (List.map (fun d -> d.Clip_diag.code ^ " " ^ d.Clip_diag.message) ds)
  in
  (text, C.to_assoc c)

let show_counts counts =
  String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) counts)

(* (name, departments, tgd, what the run must report — an error's text,
   or fragments of the output). *)
let kernel_cases =
  [
    ( "attribute leaf, present and missing",
      [ `One; `Idless ],
      dept_rule [ st_eq "x" "id" (d_at [ Path.Attr "id" ]) ],
      [ {|<dept id="1"/>|} ] );
    ( "value leaf after a missing or single child",
      [ `One; `Nameless ],
      dept_rule [ st_eq "x" "name" (d_at name_value) ],
      [ {|<dept name="A"/>|} ] );
    ( "value leaf after a repeated child",
      [ `One; `Twice ],
      dept_rule [ st_eq "x" "name" (d_at name_value) ],
      [ "binds multiple values" ] );
    ( "value leaf over mixed text",
      [ `Mixed ],
      dept_rule [ st_eq "x" "name" (d_at name_value) ],
      [ {|name="DE"|} ] );
    ( "attribute leaf after a child, one of two carrying it",
      [ `One; `Nameless; `Twice ],
      dept_rule [ st_eq "x" "lang" (d_at [ Path.Child "name"; Path.Attr "lang" ]) ],
      [ {|lang="fr"|} ] );
    ( "an element and a variable atomize to their string value",
      [ `One; `Mixed ],
      dept_rule
        [ st_eq "x" "name" (d_at [ Path.Child "name" ]); st_eq "x" "all" (at "d" []) ],
      [ {|all="A1020.5"|} ] );
    ( "aggregates over empty, missing and numeric items",
      [ `One; `Nameless; `Mixed; `Empty ],
      dept_rule
        [
          agg "n" Tgd.Count [ Path.Child "emp" ];
          agg "sum" Tgd.Sum sal;
          agg "avg" Tgd.Avg sal;
          agg "min" Tgd.Min sal;
          agg "max" Tgd.Max sal;
        ],
      [
        {|<dept n="2" sum="30.5" avg="15.25" min="10" max="20.5"/>|};
        {|<dept n="1" sum="30" avg="30" min="30" max="30"/>|};
        {|<dept n="1" sum="0"/>|};
        {|<dept n="0" sum="0"/>|};
      ] );
    ( "count does not read its items' values",
      [ `One; `Text ],
      dept_rule [ agg "n" Tgd.Count [ Path.Child "emp"; Path.Child "sal" ] ],
      [ {|n="1"|} ] );
    ( "an aggregate over a non-numeric value",
      [ `One; `Text ],
      dept_rule [ agg "sum" Tgd.Sum sal ],
      [ "aggregate: non-numeric value x" ] );
    ( "a multi-valued condition holds when one atom matches",
      [ `One; `Nameless; `Twice; `Text ],
      dept_rule
        ~cond:
          [
            Tgd.cmp (d_at sal) Tgd.Eq (Term.Const (Atom.Int 30));
          ]
        [ st_eq "x" "id" (d_at [ Path.Attr "id" ]) ],
      [ {|<dept id="2"/>|} ] );
    ( "exists semantics on a repeated child",
      [ `One; `Twice ],
      dept_rule
        ~cond:[ Tgd.cmp (d_at name_value) Tgd.Eq (str "C") ]
        [ st_eq "x" "id" (d_at [ Path.Attr "id" ]) ],
      [ {|<dept id="3"/>|} ] );
    ( "a condition on a missing attribute fails",
      [ `One; `Idless; `Mixed ],
      dept_rule
        ~cond:[ Tgd.cmp (d_at [ Path.Attr "id" ]) Tgd.Gt (Term.Const (Atom.Int 1)) ]
        [ st_eq "x" "name" (d_at name_value) ],
      [ {|name="DE"|} ] );
    ( "a grouping key over single children",
      [ `One; `Mixed; `One ],
      dept_rule
        ~exists:[ Tgd.grouped "g" (tgt [ Path.Child "group" ]) ~keys:[ d_at name_value ] ]
        [ st_eq "g" "name" (d_at name_value) ],
      [ {|<group name="A"/>|} ] );
    ( "a grouping key over a repeated child",
      [ `One; `Twice ],
      dept_rule
        ~exists:[ Tgd.grouped "g" (tgt [ Path.Child "group" ]) ~keys:[ d_at name_value ] ]
        [],
      [ "grouping key evaluates to multiple values" ] );
    ( "a grouping key over a missing child",
      [ `One; `Nameless ],
      dept_rule
        ~exists:[ Tgd.grouped "g" (tgt [ Path.Child "group" ]) ~keys:[ d_at name_value ] ]
        [],
      [ "grouping key evaluates to the empty sequence" ] );
    ( "a function argument over single children",
      [ `One; `Mixed ],
      dept_rule [ st_eq "x" "label" (Term.Fn ("concat", [ d_at name_value; str "!" ])) ],
      [ {|label="DE!"|} ] );
    ( "a function argument over a repeated child",
      [ `Twice ],
      dept_rule [ st_eq "x" "label" (Term.Fn ("concat", [ d_at name_value; str "!" ])) ],
      [ "concat: an argument evaluates to multiple values" ] );
    ( "a function argument over a missing child",
      [ `Nameless ],
      dept_rule [ st_eq "x" "label" (Term.Fn ("upper", [ d_at name_value ])) ],
      [ "upper: an argument evaluates to the empty sequence" ] );
    ( "a generator over values two child steps down",
      [ `One; `Mixed; `Text ],
      dept_rule []
        ~children:
          [
            Tgd.make
              ~foralls:[ Tgd.source_gen "s" (v "d" sal) ]
              ~exists:[ Tgd.driven "y" (v "x" [ Path.Child "sal" ]) ]
              ~assertions:[ st_eq "y" "v" (at "s" []) ]
              ();
          ],
      [ {|<sal v="20.5"/>|} ] );
    ( "a generator over attributes one child step down",
      [ `One; `Twice; `Mixed ],
      dept_rule []
        ~children:
          [
            Tgd.make
              ~foralls:[ Tgd.source_gen "l" (v "d" [ Path.Child "name"; Path.Attr "lang" ]) ]
              ~exists:[ Tgd.driven "y" (v "x" [ Path.Child "lang" ]) ]
              ~assertions:[ st_eq "y" "v" (at "l" []) ]
              ();
          ],
      [ {|<lang v="fr"/>|} ] );
  ]

(* Two generators joined on multi-valued sides: a hash join under
   [`Indexed], so only the bytes are the interpreter's. *)
let kernel_join =
  Tgd.make
    ~foralls:[ dept_gen "d"; dept_gen "e" ]
    ~cond:[ Tgd.cmp (d_at sal) Tgd.Eq (at "e" sal) ]
    ~exists:[ Tgd.driven "p" (tgt [ Path.Child "pair" ]) ]
    ~assertions:[ st_eq "p" "d" (d_at [ Path.Attr "id" ]); st_eq "p" "e" (at "e" [ Path.Attr "id" ]) ]
    ()

let kernel_tests =
  List.map
    (fun (name, depts, tgd, expect) ->
      Alcotest.test_case name `Quick (fun () ->
          let source = kernel_doc depts in
          let text, counts = kernel_run None tgd source in
          List.iter (fun e -> checkb ("reports: " ^ e) true (contains text e)) expect;
          let auto_text, auto_counts = kernel_run (Some `Auto) tgd source in
          checks "auto: same bytes or diagnostics" text auto_text;
          checks "auto: same counters" (show_counts counts) (show_counts auto_counts);
          let idx_text, idx_counts = kernel_run (Some `Indexed) tgd source in
          checks "indexed: same bytes or diagnostics" text idx_text;
          checks "indexed: same counters" (show_counts counts) (show_counts idx_counts)))
    kernel_cases
  @ [
      Alcotest.test_case "a join on multi-valued sides" `Quick (fun () ->
          let source = kernel_doc [ `One; `Nameless; `Text; `Mixed; `One ] in
          let text, _ = kernel_run None kernel_join source in
          checkb "pairs the repeated department with itself" true
            (contains text {|<pair d="1" e="1"/>|});
          List.iter
            (fun (pname, plan) ->
              checks (pname ^ ": same bytes") text (fst (kernel_run (Some plan) kernel_join source)))
            scoping_plans);
    ]

let () =
  Alcotest.run "plan"
    [
      ("planner", planner_tests);
      ("cost", cost_tests);
      ("keys", key_tests);
      ("index", index_tests);
      ("docidx", docidx_tests);
      ("differential", differential_tests);
      ("scaled-differential", scaled_differential_tests);
      ("repr-differential", repr_differential_tests);
      ("auto-steps", auto_steps_tests);
      ("counters", counter_tests @ pinned_counter_tests);
      ("repr-counters", repr_counter_tests);
      ("fuzz-differential", [ QCheck_alcotest.to_alcotest fuzz_differential ]);
      ("run-tables", run_table_tests);
      ("frame-scoping", scoping_tests);
      ("kernels", kernel_tests);
    ]
