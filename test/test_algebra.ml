(* Differential-oracle harness for the mapping algebra: composition is
   held to staged execution on every figure of the paper — compose-then-
   run must produce a [Node.equal]-identical instance to run-then-run,
   across every backend and plan mode; chains
   outside the composable fragment must degrade to staged execution
   byte-identically. Metamorphic laws pin the algebra itself. *)

module S = Clip_scenarios
module Node = Clip_xml.Node
module Printer = Clip_xml.Printer
module Schema = Clip_schema.Schema
module Path = Clip_schema.Path
module Mapping = Clip_core.Mapping
module Engine = Clip_core.Engine
module A = Clip_algebra

let checkb = Alcotest.(check bool)

(* The identity mapping over a schema: one driven builder per repeating
   element, nested as in the schema, and an identity value mapping for
   every leaf below a repeating element. Leaves above every repetition
   have no driver and are omitted — harmless for the oracle, which
   compares compose-then-run against run-then-run of the {e same}
   mapping. *)
let identity (s : Schema.t) : Mapping.t =
  let n = ref 0 in
  let rec walk path (e : Schema.element) =
    let kids =
      List.concat_map
        (fun (c : Schema.element) -> walk (Path.child path c.Schema.name) c)
        e.Schema.children
    in
    if Schema.is_repeating s path then begin
      incr n;
      [
        Mapping.node
          ~id:(Printf.sprintf "id%d" !n)
          ~output:path ~children:kids
          [ Mapping.input ~var:(Printf.sprintf "x%d" !n) path ];
      ]
    end
    else kids
  in
  let roots = walk (Schema.root_path s) s.Schema.root in
  let values =
    List.filter_map
      (fun q ->
        if Schema.repeating_ancestors s q <> [] then
          Some (Mapping.value [ q ] q)
        else None)
      (Schema.leaf_paths s)
  in
  Mapping.make ~source:s ~target:s ~roots values

let backends = [ `Tgd; `Xquery; `Xquery_text ]
let plans = [ `Naive; `Indexed; `Auto ]

let backend_name = function
  | `Tgd -> "tgd"
  | `Xquery -> "xquery"
  | `Xquery_text -> "xquery-text"
  | `Rel -> "rel"

let plan_name = function `Naive -> "naive" | `Indexed -> "indexed" | `Auto -> "auto"

let combos ~mc =
  List.concat_map
    (fun b ->
      List.map (fun p -> (b, p)) plans)
    (if mc then backends else [ `Tgd ])

let run_mapping ~backend ~plan ~mc m doc =
  match
    Engine.run_result ~backend ~minimum_cardinality:mc ~plan m doc
  with
  | Ok out -> out
  | Error ds ->
    Alcotest.failf "run failed: %s"
      (String.concat "; " (List.map Clip_diag.to_string ds))

let run_staged ~backend ~plan ~mc ms doc =
  match
    Engine.run_staged_result ~backend ~minimum_cardinality:mc ~plan ms doc
  with
  | Ok out -> out
  | Error ds ->
    Alcotest.failf "staged run failed: %s"
      (String.concat "; " (List.map Clip_diag.to_string ds))

let diag_codes ds = List.map (fun d -> d.Clip_diag.code) ds

let is_alg_code c = String.length c >= 8 && String.sub c 0 8 = "CLIP-ALG"

(* --- compose-then-run vs run-then-run on every figure ----------------- *)

(* [identity_S ; fig] lies inside the composable fragment for every
   figure: the identity populates every intermediate leaf with a plain
   copy, so every read substitutes. *)
let differential_tests =
  List.map
    (fun (sc : S.Figures.t) ->
      Alcotest.test_case (sc.name ^ ": id;m == staged, all combos") `Quick
        (fun () ->
          let id_s = identity sc.mapping.Mapping.source in
          let composed =
            match A.compose_result id_s sc.mapping with
            | Ok m -> m
            | Error ds ->
              Alcotest.failf "compose (id; %s) rejected: %s" sc.name
                (String.concat "; " (diag_codes ds))
          in
          let mc = sc.minimum_cardinality in
          List.iter
            (fun (backend, plan) ->
              let fused =
                run_mapping ~backend ~plan ~mc composed
                  S.Deptdb.instance
              in
              let staged =
                run_staged ~backend ~plan ~mc
                  [ id_s; sc.mapping ]
                  S.Deptdb.instance
              in
              if not (Node.equal fused staged) then
                Alcotest.failf "%s/%s/%s: fused and staged disagree"
                  sc.name (backend_name backend) (plan_name plan))
            (combos ~mc)))
    S.Figures.all

(* --- rejection degrades to staged, byte-identically ------------------- *)

let fallback_tests =
  let staged_count = ref 0 in
  let per_figure =
    List.map
      (fun (sc : S.Figures.t) ->
        Alcotest.test_case (sc.name ^ ": m;id falls back byte-identically")
          `Quick (fun () ->
            let id_t = identity sc.mapping.Mapping.target in
            let chain = [ sc.mapping; id_t ] in
            let mc = sc.minimum_cardinality in
            (match A.Pipeline.plan chain with
             | A.Pipeline.Staged ds ->
               incr staged_count;
               checkb "stable CLIP-ALG code" true
                 (ds <> [] && List.for_all is_alg_code (diag_codes ds));
               checkb "note names the code" true
                 (let note = A.Pipeline.decision_note (A.Pipeline.Staged ds) in
                  String.length note > 15
                  && String.sub note 0 15 = "fusion: staged ")
             | A.Pipeline.Fused _ -> ());
            let via_pipeline =
              match
                A.Pipeline.run_result ~minimum_cardinality:mc chain
                  S.Deptdb.instance
              with
              | Ok out -> out
              | Error ds ->
                Alcotest.failf "pipeline failed: %s"
                  (String.concat "; " (diag_codes ds))
            in
            let manual =
              run_staged ~backend:`Tgd ~plan:`Auto ~mc chain
                S.Deptdb.instance
            in
            checkb "byte-identical to manual staging" true
              (String.equal
                 (Printer.to_string via_pipeline)
                 (Printer.to_string manual))))
      S.Figures.all
  in
  per_figure
  @ [
      Alcotest.test_case "at least one figure chain is outside the fragment"
        `Quick (fun () -> checkb "some staged" true (!staged_count > 0));
    ]

(* --- targeted rejections ---------------------------------------------- *)

let rejection_tests =
  [
    Alcotest.test_case "schema mismatch is CLIP-ALG-001" `Quick (fun () ->
        match A.compose_result S.Figures.fig4.mapping S.Figures.fig4.mapping with
        | Ok _ -> Alcotest.fail "composed across mismatched schemas"
        | Error ds ->
          checkb "ALG-001" true
            (List.mem Clip_diag.Codes.algebra_schema_mismatch (diag_codes ds)));
    Alcotest.test_case "unfolding a grouping producer is CLIP-ALG-002" `Quick
      (fun () ->
        (* fig7's project builder groups by name; iterating its output
           in a second stage cannot be unfolded *)
        let id_t = identity S.Figures.fig7.mapping.Mapping.target in
        match A.compose_result S.Figures.fig7.mapping id_t with
        | Ok _ -> Alcotest.fail "composed through a grouping producer"
        | Error ds ->
          checkb "ALG-002" true
            (List.mem Clip_diag.Codes.algebra_grouping (diag_codes ds)));
    Alcotest.test_case "reading an unpopulated leaf is CLIP-ALG-004" `Quick
      (fun () ->
        (* fig6 populates only @pname/@ename of its flat target; an
           identity second stage also reads nothing else — so build one
           that reads a leaf fig6 never writes. *)
        let t = S.Deptdb.target_fig6 in
        let pe = Path.child (Schema.root_path t) "project-emp" in
        let m2 =
          Mapping.make ~source:t ~target:t
            ~roots:
              [
                Mapping.node ~id:"n" ~output:pe
                  ~cond:
                    [
                      {
                        Mapping.p_left = Mapping.O_path ("x", []);
                        p_op = Clip_tgd.Tgd.Eq;
                        p_right = Mapping.O_const (Clip_xml.Atom.String "?");
                      };
                    ]
                  [ Mapping.input ~var:"x" pe ];
              ]
            [ Mapping.value [ Path.attr pe "pname" ] (Path.attr pe "pname") ]
        in
        (* condition compares the element itself, which no value mapping
           populates as a leaf — but first make sure m2 alone is valid *)
        match A.compose_result S.Figures.fig6.mapping m2 with
        | Ok _ -> Alcotest.fail "composed an unsubstitutable read"
        | Error ds ->
          checkb "some CLIP-ALG code" true
            (ds <> [] && List.exists is_alg_code (diag_codes ds)));
  ]

(* --- random chains: pipeline == staged, and compose is total ---------- *)

let figure_pool = Array.of_list S.Figures.all

let chain_of (sc : S.Figures.t) shape =
  let id_s () = identity sc.mapping.Mapping.source in
  let id_t () = identity sc.mapping.Mapping.target in
  match shape mod 4 with
  | 0 -> [ id_s (); sc.mapping ]
  | 1 -> [ id_s (); id_s (); sc.mapping ]
  | 2 -> [ sc.mapping; id_t () ]
  | _ -> [ id_s (); sc.mapping; id_t () ]

let gen_case =
  QCheck2.Gen.(
    triple (int_bound (Array.length figure_pool - 1)) (int_bound 3) (int_bound 2))

let prop_chain_differential =
  QCheck2.Test.make ~count:200
    ~name:"algebra: random chains — pipeline == staged on every combo"
    gen_case
    (fun (fi, shape, pi) ->
      let sc = figure_pool.(fi) in
      let mc = sc.minimum_cardinality in
      let backend = if mc then List.nth backends (fi mod 3) else `Tgd in
      let plan = List.nth plans pi in
      let chain = chain_of sc shape in
      (* totality: compose_chain_result never raises *)
      (match A.compose_chain_result chain with Ok _ | Error _ -> ());
      let a =
        A.Pipeline.run_result ~backend ~minimum_cardinality:mc ~plan chain
          S.Deptdb.instance
      in
      let b =
        Engine.run_staged_result ~backend ~minimum_cardinality:mc ~plan chain
          S.Deptdb.instance
      in
      match a, b with
      | Ok a, Ok b -> Node.equal a b
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)

(* --- metamorphic laws -------------------------------------------------- *)

let equiv_ok a b =
  match A.equiv_result a b with
  | Ok r -> r
  | Error ds -> Alcotest.failf "equiv failed: %s" (String.concat "; " (diag_codes ds))

let law_tests =
  let per_figure =
    List.concat_map
      (fun (sc : S.Figures.t) ->
        [
          Alcotest.test_case (sc.name ^ ": equiv is reflexive") `Quick
            (fun () -> checkb "m == m" true (equiv_ok sc.mapping sc.mapping));
          Alcotest.test_case (sc.name ^ ": id is a left identity up to equiv")
            `Quick (fun () ->
              let id_s = identity sc.mapping.Mapping.source in
              let c = A.compose id_s sc.mapping in
              checkb "id;m == m" true (equiv_ok c sc.mapping));
          Alcotest.test_case (sc.name ^ ": composition is associative") `Quick
            (fun () ->
              let id_s = identity sc.mapping.Mapping.source in
              let left = A.compose (A.compose id_s id_s) sc.mapping in
              let right = A.compose id_s (A.compose id_s sc.mapping) in
              checkb "(id;id);m == id;(id;m)" true (equiv_ok left right));
        ])
      S.Figures.all
  in
  per_figure
  @ [
      Alcotest.test_case "dropping a join condition strictly widens" `Quick
        (fun () ->
          let j = S.Figures.fig6.mapping in
          let c = S.Figures.fig6_cartesian.mapping in
          checkb "cartesian contains join" true (A.contains c j);
          checkb "join does not contain cartesian" false (A.contains j c);
          checkb "not equivalent" false (equiv_ok j c));
      Alcotest.test_case "equiv is symmetric on related pairs" `Quick
        (fun () ->
          let a = S.Figures.fig6.mapping and b = S.Figures.fig6_cartesian.mapping in
          checkb "equiv a b == equiv b a" true (equiv_ok a b = equiv_ok b a));
      Alcotest.test_case "mutual containment is equivalence" `Quick (fun () ->
          let m = S.Figures.fig4.mapping in
          let id_s = identity m.Mapping.source in
          let c = A.compose id_s m in
          checkb "contains both ways" true (A.contains c m && A.contains m c);
          checkb "hence equiv" true (equiv_ok c m));
    ]

(* --- a Clio-generated mapping composes too ---------------------------- *)

let clio_tests =
  [
    Alcotest.test_case "clio-generated fig1 mapping: id;m == staged" `Quick
      (fun () ->
        let m =
          Clip_clio.Generate.to_clip S.Figures.fig1_values
            (Clip_clio.Generate.forest ~extension:true S.Figures.fig1_values)
        in
        let id_s = identity m.Mapping.source in
        let composed =
          match A.compose_result id_s m with
          | Ok c -> c
          | Error ds ->
            Alcotest.failf "compose rejected: %s"
              (String.concat "; " (diag_codes ds))
        in
        let fused =
          run_mapping ~backend:`Tgd ~plan:`Auto ~mc:true composed
            S.Deptdb.instance
        in
        let staged =
          run_staged ~backend:`Tgd ~plan:`Auto ~mc:true
            [ id_s; m ] S.Deptdb.instance
        in
        checkb "identical" true (Node.equal fused staged));
  ]

let () =
  Alcotest.run "algebra"
    [
      ("differential", differential_tests);
      ("staged-fallback", fallback_tests);
      ("rejections", rejection_tests);
      ("laws", law_tests);
      ("clio", clio_tests);
      ("random-chains", [ QCheck_alcotest.to_alcotest prop_chain_differential ]);
    ]
