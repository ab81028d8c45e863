(* The physical-plan layer: planner decisions (pushdown, hash joins,
   segment joins), key normalisation, the lazy tag index, and the
   differential guarantee that `Indexed runs are output-identical to
   the `Naive oracles on every figure scenario. *)

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

let gen ?(deps = []) ?est var eval : (env, int) P.gen =
  { P.var; deps; est; eval; bind = (fun env v -> (var, v) :: env) }

let const ?est var items = gen ?est var (fun _ -> items)

let pred pvars test : env P.pred = { P.pvars; test }

let eq ~left ~lkeys ~right ~rkeys : env P.cond =
  P.Eq
    {
      left = { P.kvars = left; keys = (fun env -> [ lkeys env ]) };
      right = { P.kvars = right; keys = (fun env -> [ rkeys env ]) };
      orig =
        pred (left @ right) (fun env ->
            P.Key.equal (lkeys env) (rkeys env));
    }

let key1 x env = P.Key.of_atom (Atom.Int (lookup env x))

let run_plan p =
  let acc = ref [] in
  let ticks = ref 0 in
  P.execute ~run:(P.Run.create ()) p
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
      List.iter (fun v -> go (g.P.bind env v) rest) (g.P.eval env)
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
              ~rkeys:(fun env -> P.Key.of_atom (Atom.Int (lookup env "r" mod 10))) ]
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
                left = { P.kvars = [ "y" ]; keys = (fun env -> [ key1 "y" env ]) };
                right = { P.kvars = []; keys = (fun _ -> [ P.Key.of_atom (Atom.Int 5) ]) };
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
    Alcotest.test_case "revisit_prone: probes and independent rescans only" `Quick
      (fun () ->
        let straight =
          P.plan ~bound:[]
            ~gens:
              [ const "x" [ 1 ]; gen ~deps:[ "x" ] "y" (fun env -> [ lookup env "x" ]) ]
            ~conds:[] ()
        in
        checkb "straight-line chain" false (P.revisit_prone straight);
        let rescan =
          P.plan ~bound:[] ~gens:[ const "x" [ 1; 2 ]; const "y" [ 3 ] ] ~conds:[] ()
        in
        checkb "independent rescan" true (P.revisit_prone rescan);
        let joined =
          P.plan ~bound:[]
            ~gens:[ const "x" [ 1 ]; const "y" [ 1 ] ]
            ~conds:join_conds ()
        in
        checkb "probe" true (P.revisit_prone joined));
  ]

(* --- Key normalisation ------------------------------------------------- *)

let key_tests =
  [
    Alcotest.test_case "Int 3 and Float 3.0 are one key" `Quick (fun () ->
        checkb "equal" true
          (P.Key.equal (P.Key.of_atom (Atom.Int 3)) (P.Key.of_atom (Atom.Float 3.0)));
        checki "hash agrees" 0
          (compare
             (P.Key.hash (P.Key.of_atom (Atom.Int 3)))
             (P.Key.hash (P.Key.of_atom (Atom.Float 3.0)))));
    Alcotest.test_case "all NaNs collapse to one key" `Quick (fun () ->
        checkb "equal" true
          (P.Key.equal
             (P.Key.of_atom (Atom.Float Float.nan))
             (P.Key.of_atom (Atom.Float (Float.neg Float.nan)))));
    Alcotest.test_case "0. and -0. are one key (Atom.equal holds on them)" `Quick
      (fun () ->
        checkb "atoms equal" true (Atom.equal (Atom.Float 0.) (Atom.Float (-0.)));
        checkb "keys agree" true
          (P.Key.equal (P.Key.of_atom (Atom.Float 0.)) (P.Key.of_atom (Atom.Float (-0.)))));
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

(* --- The lazy tag index ------------------------------------------------ *)

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
    Alcotest.test_case "descendants_by_tag is preorder and memoised" `Quick (fun () ->
        let doc =
          Node.elem "r"
            [
              Node.elem "a" [ Node.elem "x" []; Node.elem "a" [ Node.elem "x" [] ] ];
              Node.elem "x" [];
            ]
        in
        let idx = Clip_xml.Index.build doc in
        let e = elem_of doc in
        checki "count" 3 (List.length (Clip_xml.Index.descendants_by_tag idx e (Clip_xml.Symbol.intern "x")));
        checkb "memoised" true
          (Clip_xml.Index.descendants_by_tag idx e (Clip_xml.Symbol.intern "x")
          == Clip_xml.Index.descendants_by_tag idx e (Clip_xml.Symbol.intern "x")));
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

(* --- Differential: `Indexed against the `Naive oracles ----------------- *)

module S = Clip_scenarios
module Engine = Clip_core.Engine

let run_mode sc ~backend ~plan doc =
  match
    Engine.run_result ~limits:Clip_diag.Limits.unlimited ~backend
      ~minimum_cardinality:sc.S.Figures.minimum_cardinality ~plan
      sc.S.Figures.mapping doc
  with
  | Ok d -> d
  | Error ds ->
    Alcotest.failf "%s/%s did not run: %s" sc.S.Figures.name
      (match backend with `Tgd -> "tgd" | _ -> "xquery")
      (Clip_diag.render_list ds)

(* Large enough that [`Auto] plans (128 nodes) and turns the tag index
   on (256 nodes): the paper instance stays below both thresholds. *)
let scaled_instance = lazy (S.Deptdb.synthetic_instance ~depts:8 ~projs:5 ~emps:10)

let differential_tests =
  let backends sc = if sc.S.Figures.minimum_cardinality then [ `Tgd; `Xquery ] else [ `Tgd ] in
  List.concat_map
    (fun (sc : S.Figures.t) ->
      List.map
        (fun backend ->
          let bname = match backend with `Tgd -> "tgd" | _ -> "xquery" in
          Alcotest.test_case
            (Printf.sprintf "%s/%s: indexed ≡ naive" sc.S.Figures.name bname)
            `Quick
            (fun () ->
              List.iter
                (fun (iname, doc) ->
                  let naive = Printer.to_string (run_mode sc ~backend ~plan:`Naive doc) in
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
        (backends sc))
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
                let naive = run_mode sc ~backend ~plan:`Naive doc in
                List.iter
                  (fun plan ->
                    checkb
                      (Printf.sprintf "%s identical" sc.S.Figures.name)
                      true
                      (Node.equal naive (run_mode sc ~backend ~plan doc)))
                  [ `Indexed; `Auto ])
              [ `Tgd; `Xquery ])
          S.Figures.[ fig5; fig6; fig6_join_global; fig7 ]);
  ]

(* --- Differential: the columnar copy against the tree ------------------- *)

(* [Clip_xml.Doc] is the columnar copy of a document that the rel
   store loads. Rebuilt back into a tree, it must run exactly like the
   document it came from — same bytes under every backend and plan
   mode — even though every rebuilt element carries a fresh allocation
   id for the tag index and the session caches to key on. *)
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
                [ ("naive", `Naive); ("indexed", `Indexed); ("auto", `Auto) ]))
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
          List.for_all
            (fun backend ->
              let naive = run_mode sc ~backend ~plan:`Naive doc in
              List.for_all
                (fun plan -> Node.equal naive (run_mode sc ~backend ~plan doc))
                [ `Indexed; `Auto ])
            [ `Tgd; `Xquery ])
        S.Figures.[ fig6; fig6_join_global; fig7 ])

(* --- [`Auto] picks the join where it matters --------------------------- *)

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
        let naive = steps_of S.Figures.fig6_join_global ~plan:`Naive doc in
        let auto = steps_of S.Figures.fig6_join_global ~plan:`Auto doc in
        (* the probe enumerates only matches, so the quadratic naive
           step count collapses; a generous factor keeps this stable *)
        checkb
          (Printf.sprintf "auto steps %d < naive steps %d / 2" auto naive)
          true
          (auto < naive / 2));
    Alcotest.test_case "`Auto never enumerates more than the forced join" `Quick
      (fun () ->
        (* on the paper instances every figure is small — `Auto scans,
           and its step count stays within the naive oracle's ballpark
           (streaming adds at most one tick per stage item) *)
        let doc = S.Deptdb.instance in
        List.iter
          (fun (sc : S.Figures.t) ->
            let naive = steps_of sc ~plan:`Naive doc in
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

let counter_invariants (sc : S.Figures.t) ~backend doc =
  let _, cn = counted_run sc ~backend ~plan:`Naive doc in
  let _, ci = counted_run sc ~backend ~plan:`Indexed doc in
  let _, ca = counted_run sc ~backend ~plan:`Auto doc in
  checkb
    (Printf.sprintf "indexed scans %d <= naive scans %d" ci.C.nodes_scanned
       cn.C.nodes_scanned)
    true
    (ci.C.nodes_scanned <= cn.C.nodes_scanned);
  checki "naive never probes the index" 0 cn.C.index_probes;
  checki "naive never hits the index" 0 cn.C.index_hits;
  List.iter
    (fun (mode, (c : C.t)) ->
      checkb
        (Printf.sprintf "%s: hits %d <= probes %d" mode c.C.index_hits
           c.C.index_probes)
        true
        (c.C.index_hits <= c.C.index_probes))
    [ ("naive", cn); ("indexed", ci); ("auto", ca) ];
  (* The EXPLAIN claim for the same arguments must match the measured
     counters: a claimed direct interpreter does exactly the naive
     oracle's work, and a claimed plan without the tag index never
     probes it. *)
  let txt =
    ok (Engine.explain_result ~backend ~plan:`Auto sc.S.Figures.mapping doc)
  in
  if contains txt "direct interpreter" then
    checkb "auto claims direct: work counters equal naive's" true
      (C.work_assoc ca = C.work_assoc cn)
  else begin
    checkb "auto (planned) scans no more than naive" true
      (ca.C.nodes_scanned <= cn.C.nodes_scanned);
    if contains txt "tag index off" then
      checki "tag index off: no probes" 0 ca.C.index_probes
  end

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
                [ S.Deptdb.instance; Lazy.force scaled_instance ]))
        (backends sc))
    S.Figures.all
  @ [
      Alcotest.test_case "scaled join: auto leaves the direct interpreter"
        `Quick
        (fun () ->
          (* above the planning threshold the claim flips, and the
             invariants must keep holding on the planner path *)
          let doc = S.Deptdb.synthetic_instance ~depts:8 ~projs:5 ~emps:10 in
          let txt =
            ok
              (Engine.explain_result ~backend:`Tgd ~plan:`Auto
                 S.Figures.fig6.S.Figures.mapping doc)
          in
          checkb "no direct-interpreter claim" false
            (contains txt "direct interpreter");
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
            [ `Naive; `Indexed; `Auto ]);
    ]

(* Exact work counters of one run per figure × plan on one fixed instance above
   the planning threshold, recorded from the interpreted evaluator the
   compiled rule bodies replaced: compiling must tick and count at the
   same sites, in the same order. Columns: lim_ticks, child_steps,
   nodes_scanned, index_probes, index_hits, hash_join_builds,
   hash_join_probes. *)
let pinned_counters =
  [
    ("fig3", "naive", (694, 138, 394, 0, 0, 0, 0));
    ("fig3", "indexed", (702, 138, 217, 138, 0, 0, 0));
    ("fig3", "auto", (702, 138, 394, 0, 0, 0, 0));
    ("fig3-universal", "naive", (694, 138, 394, 0, 0, 0, 0));
    ("fig3-universal", "indexed", (702, 138, 217, 138, 0, 0, 0));
    ("fig3-universal", "auto", (702, 138, 394, 0, 0, 0, 0));
    ("fig4", "naive", (702, 138, 394, 0, 0, 0, 0));
    ("fig4", "indexed", (702, 138, 217, 138, 0, 0, 0));
    ("fig4", "auto", (702, 138, 394, 0, 0, 0, 0));
    ("fig4-nocontext", "naive", (5562, 1105, 3160, 0, 0, 0, 0));
    ("fig4-nocontext", "indexed", (5626, 1105, 1744, 1105, 64, 0, 0));
    ("fig4-nocontext", "auto", (5626, 1105, 1744, 1105, 64, 0, 0));
    ("fig5", "naive", (642, 137, 464, 0, 0, 0, 0));
    ("fig5", "indexed", (642, 137, 248, 137, 8, 0, 0));
    ("fig5", "auto", (642, 137, 464, 0, 0, 0, 0));
    ("fig6", "naive", (3546, 209, 1016, 0, 0, 0, 0));
    ("fig6", "indexed", (1642, 177, 288, 177, 8, 8, 40));
    ("fig6", "auto", (1642, 177, 288, 177, 8, 8, 40));
    ("fig6-cartesian", "naive", (3706, 849, 1976, 0, 0, 0, 0));
    ("fig6-cartesian", "indexed", (3746, 849, 1248, 849, 40, 0, 0));
    ("fig6-cartesian", "auto", (3746, 849, 1248, 849, 40, 0, 0));
    ("fig6-global", "naive", (29538, 6769, 15176, 0, 0, 0, 0));
    ("fig6-global", "indexed", (29906, 6769, 9968, 6769, 360, 0, 0));
    ("fig6-global", "auto", (29906, 6769, 9968, 6769, 360, 0, 0));
    ("fig6-join-global", "naive", (23778, 529, 5816, 0, 0, 0, 0));
    ("fig6-join-global", "indexed", (1644, 178, 296, 178, 9, 1, 40));
    ("fig6-join-global", "auto", (1644, 178, 296, 178, 9, 1, 40));
    ("fig7", "naive", (3618, 209, 1016, 0, 0, 0, 0));
    ("fig7", "indexed", (2746, 209, 608, 209, 40, 40, 40));
    ("fig7", "auto", (3666, 209, 608, 209, 40, 0, 0));
    ("fig8", "naive", (618, 129, 856, 0, 0, 0, 0));
    ("fig8", "indexed", (626, 129, 168, 129, 40, 0, 0));
    ("fig8", "auto", (626, 129, 168, 129, 40, 0, 0));
    ("fig9", "naive", (106, 113, 680, 0, 0, 0, 0));
    ("fig9", "indexed", (106, 113, 296, 113, 24, 0, 0));
    ("fig9", "auto", (106, 113, 680, 0, 0, 0, 0));
  ]

let pinned_counter_tests =
  [
    Alcotest.test_case "work counters per figure × plan equal the pinned values"
      `Quick (fun () ->
        let doc = S.Deptdb.synthetic_instance ~depts:8 ~projs:5 ~emps:10 in
        let plans = [ ("naive", `Naive); ("indexed", `Indexed); ("auto", `Auto) ] in
        checki "one pinned row per figure × plan"
          (3 * List.length S.Figures.all)
          (List.length pinned_counters);
        List.iter
          (fun (name, pname, expected) ->
            let sc =
              List.find (fun (sc : S.Figures.t) -> sc.S.Figures.name = name) S.Figures.all
            in
            let _, c = counted_run sc ~backend:`Tgd ~plan:(List.assoc pname plans) doc in
            let got =
              C.
                ( c.lim_ticks,
                  c.child_steps,
                  c.nodes_scanned,
                  c.index_probes,
                  c.index_hits,
                  c.hash_join_builds,
                  c.hash_join_probes )
            in
            let show (a, b, c, d, e, f, g) =
              Printf.sprintf "(%d, %d, %d, %d, %d, %d, %d)" a b c d e f g
            in
            checks (Printf.sprintf "%s/%s" name pname) (show expected) (show got))
          pinned_counters);
    Alcotest.test_case "no state crosses runs: one context twice = a fresh one"
      `Quick (fun () ->
        (* A context carries no cache: the second run through it must do
           exactly the first run's work, and a fresh context the same. *)
        let doc = S.Deptdb.synthetic_instance ~depts:8 ~projs:5 ~emps:10 in
        List.iter
          (fun (sc : S.Figures.t) ->
            let run ctx c =
              C.reset c;
              let out =
                ok
                  (Engine.run_result ~ctx ~plan:`Indexed
                     ~minimum_cardinality:sc.S.Figures.minimum_cardinality
                     sc.S.Figures.mapping doc)
              in
              (Printer.to_string out, C.to_assoc c)
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
                  [ `Naive; `Indexed; `Auto ])
              (if sc.S.Figures.minimum_cardinality then [ `Tgd; `Xquery ]
               else [ `Tgd ]))
          S.Figures.all);
  ]

(* --- Run-scoped tables ---------------------------------------------------- *)

(* The nested-mapping shape: [c] is bound by the parent plan, and the
   chain joins its one generator [g] to it. *)
let nested_join ?(policy = `Force) ?runs ?(deps = []) ?(eval = fun _ -> [ 3; 1; 2; 1; 3 ])
    () =
  P.plan ~policy ?runs ~bound:[ "c" ]
    ~gens:[ gen ~deps ~est:5 "g" eval ]
    ~conds:[ eq ~left:[ "c" ] ~lkeys:(key1 "c") ~right:[ "g" ] ~rkeys:(key1 "g") ]
    ()

(* Execute [p] once per parent value under one [run]; the [g]s each
   execution emits. *)
let per_parent ?obs ~run p parents =
  List.map
    (fun c ->
      let acc = ref [] in
      P.execute ?obs ~run p ~tick:ignore ~env:[ ("c", c) ]
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
      let keys a x env = List.map P.Key.of_atom a.(lookup env x) in
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
                left = { P.kvars = [ "g" ]; keys = (fun env -> [ key1 "g" env ]) };
                right = { P.kvars = []; keys = (fun _ -> [ P.Key.of_atom (Atom.Int 1) ]) };
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
   name, and leave names unbound, on a document above the planning
   threshold; every plan mode must give the same bytes or error text.
   The work counters of each mode are pinned to the values the
   name-keyed environments gave before slots, so a slot that resolves
   to the wrong binding, or a tick moved or dropped, shows as a
   changed count. *)
module Tgd = Clip_tgd.Tgd
module Term = Clip_tgd.Term
module Path = Clip_schema.Path

let scoping_doc = lazy (S.Deptdb.synthetic_instance ~depts:8 ~projs:5 ~emps:10)
let v x steps = Term.proj (Term.var x) steps
let src steps = Term.proj (Term.root "source") steps
let tgt steps = Term.proj (Term.root "t") steps
let dept_gen x = Tgd.source_gen x (src [ Path.Child "dept" ])

(* The outcome of one run: output bytes or error text, and the work
   counters as "lim_ticks child_steps nodes_scanned index_probes
   index_hits hash_join_builds hash_join_probes". *)
let scoped_run ~plan tgd =
  let source = Lazy.force scoping_doc in
  let c = C.create () in
  let text =
    match Clip_tgd.Eval.run_result ~plan ~obs:c ~source ~target_root:"t" tgd with
    | Ok out -> Printer.to_string out
    | Error ds -> "error: " ^ String.concat "; " (List.map (fun d -> d.Clip_diag.message) ds)
  in
  let counts =
    C.
      [
        c.lim_ticks;
        c.child_steps;
        c.nodes_scanned;
        c.index_probes;
        c.index_hits;
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

let scoping_plans = [ ("naive", `Naive); ("indexed", `Indexed); ("auto", `Auto) ]

(* Per case and mode, as the name-keyed environments counted them. *)
let pinned_scoping_counters =
  [
    (("a child rule re-binds a parent's source name", "naive"), "1614 265 3112 0 0 0 0");
    (("a child rule re-binds a parent's source name", "indexed"), "1614 265 696 265 176 0 0");
    (("a child rule re-binds a parent's source name", "auto"), "1614 265 3112 0 0 0 0");
    (("a chain re-binds its own earlier name", "naive"), "670 132 382 0 0 0 0");
    (("a chain re-binds its own earlier name", "indexed"), "678 132 211 132 0 0 0");
    (("a chain re-binds its own earlier name", "auto"), "678 132 382 0 0 0 0");
    (("an exists variable shares a forall name", "naive"), "7 1 8 0 0 0 0");
    (("an exists variable shares a forall name", "indexed"), "7 1 8 1 0 0 0");
    (("an exists variable shares a forall name", "auto"), "7 1 8 0 0 0 0");
    (("an unbound name in a generator", "naive"), "4 1 8 0 0 0 0");
    (("an unbound name in a generator", "indexed"), "5 1 8 1 0 0 0");
    (("an unbound name in a generator", "auto"), "5 1 8 1 0 0 0");
    (("an unbound name in a condition", "naive"), "25 9 136 0 0 0 0");
    (("an unbound name in a condition", "indexed"), "12 2 13 2 0 0 0");
    (("an unbound name in a condition", "auto"), "12 2 24 0 0 0 0");
  ]

let scoping_tests =
  List.map
    (fun (name, tgd, error) ->
      Alcotest.test_case name `Quick (fun () ->
          checkb "above the planning threshold" true
            (Node.size (Lazy.force scoping_doc) >= 128);
          let naive, _ = scoped_run ~plan:`Naive tgd in
          Option.iter
            (fun e -> checkb ("reports: " ^ e) true (contains naive ("error: " ^ e)))
            error;
          List.iter
            (fun (pname, plan) ->
              let text, counts = scoped_run ~plan tgd in
              checks (pname ^ ": same bytes or error") naive text;
              checks (pname ^ ": pinned counters")
                (List.assoc (name, pname) pinned_scoping_counters)
                counts)
            scoping_plans))
    scoping_cases

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
    ]
