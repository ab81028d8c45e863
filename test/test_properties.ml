(* Cross-cutting property tests: backend agreement, semantic
   invariants of the figure mappings computed independently over random
   instances, and conformance modulo minimum-cardinality. *)

module S = Clip_scenarios
module Node = Clip_xml.Node
module Atom = Clip_xml.Atom
module Engine = Clip_core.Engine

(* Random instances of the running source schema. *)
let gen_instance =
  QCheck2.Gen.(
    map3
      (fun depts projs emps -> S.Deptdb.synthetic_instance ~depts ~projs ~emps)
      (1 -- 4) (0 -- 4) (0 -- 5))

(* Independent recomputations over a source instance. *)
let depts doc = Node.children_named (Node.as_element doc) "dept"

let sal e =
  match Node.children_named e "sal" with
  | s :: _ -> Node.text_value s
  | [] -> None

let ename e =
  match Node.children_named e "ename" with
  | s :: _ -> Node.text_value s
  | [] -> None

let pname p =
  match Node.children_named p "pname" with
  | s :: _ -> Node.text_value s
  | [] -> None

(* --- Backend agreement ---------------------------------------------------- *)

let agreement_props =
  List.filter_map
    (fun (sc : S.Figures.t) ->
      if not sc.minimum_cardinality then None
      else
        Some
          (QCheck2.Test.make ~count:25
             ~name:(sc.name ^ ": tgd and xquery backends agree")
             gen_instance
             (fun doc ->
               let a = Engine.run ~backend:`Tgd sc.mapping doc in
               let b = Engine.run ~backend:`Xquery sc.mapping doc in
               Node.equal a b)))
    S.Figures.all

(* --- Semantic invariants ---------------------------------------------------- *)

let fig3_count =
  QCheck2.Test.make ~count:40
    ~name:"fig3: one employee per regEmp with sal > 11000, one department"
    gen_instance
    (fun doc ->
      let expected =
        List.fold_left
          (fun n d ->
            n
            + List.length
                (List.filter
                   (fun r ->
                     match sal r with
                     | Some a -> Atom.compare a (Atom.Int 11000) > 0
                     | None -> false)
                   (Node.children_named d "regEmp")))
          0 (depts doc)
      in
      let out = Engine.run S.Figures.fig3.mapping doc in
      Node.count_elements out "employee" = expected
      && Node.count_elements out "department" = 1)

let fig4_shape =
  QCheck2.Test.make ~count:40
    ~name:"fig4: one department per dept, employees stay in their dept" gen_instance
    (fun doc ->
      let out = Engine.run S.Figures.fig4.mapping doc in
      let out_depts = Node.children_named (Node.as_element out) "department" in
      List.length out_depts = List.length (depts doc)
      && List.for_all2
           (fun d od ->
             let expected =
               List.filter
                 (fun r ->
                   match sal r with
                   | Some a -> Atom.compare a (Atom.Int 11000) > 0
                   | None -> false)
                 (Node.children_named d "regEmp")
             in
             List.length (Node.children_named od "employee") = List.length expected)
           (depts doc) out_depts)

let fig6_join_size =
  QCheck2.Test.make ~count:40 ~name:"fig6: output size equals the per-dept join size"
    gen_instance
    (fun doc ->
      let expected =
        List.fold_left
          (fun n d ->
            let projs = Node.children_named d "Proj" in
            let emps = Node.children_named d "regEmp" in
            n
            + List.fold_left
                (fun n p ->
                  let pid = Node.attr p "pid" in
                  n
                  + List.length
                      (List.filter (fun r -> Node.attr r "pid" = pid) emps))
                0 projs)
          0 (depts doc)
      in
      let out = Engine.run S.Figures.fig6.mapping doc in
      Node.count_elements out "project-emp" = expected)

let fig7_group_cardinality =
  QCheck2.Test.make ~count:40
    ~name:"fig7: one project per distinct pname (the grouping invariant)"
    gen_instance
    (fun doc ->
      let distinct =
        List.sort_uniq compare
          (List.concat_map
             (fun d -> List.filter_map pname (Node.children_named d "Proj"))
             (depts doc))
      in
      let out = Engine.run S.Figures.fig7.mapping doc in
      Node.count_elements out "project" = List.length distinct)

let fig8_inversion =
  QCheck2.Test.make ~count:40
    ~name:"fig8: each project lists the depts owning a Proj of that name"
    gen_instance
    (fun doc ->
      let out = Engine.run S.Figures.fig8.mapping doc in
      let projects = Node.children_named (Node.as_element out) "project" in
      List.for_all
        (fun proj ->
          match Node.attr proj "name" with
          | None -> false
          | Some name ->
            let expected =
              List.concat_map
                (fun d ->
                  let owns =
                    List.exists
                      (fun p -> pname p = Some name)
                      (Node.children_named d "Proj")
                  in
                  if owns then
                    List.filter_map Node.text_value (Node.children_named d "dname")
                  else [])
                (depts doc)
            in
            let got =
              List.filter_map
                (fun dep -> Node.attr dep "name")
                (Node.children_named proj "department")
            in
            got = expected)
        projects)

(* fig9's counts and averages, recomputed. The mean is the same left
   fold over the salaries in document order, so [avg-sal] must equal it
   to the last bit. *)
let fig9_holds doc =
  let out = Engine.run S.Figures.fig9.mapping doc in
  let out_depts = Node.children_named (Node.as_element out) "department" in
  List.length out_depts = List.length (depts doc)
  && List.for_all2
       (fun d od ->
         let projs = List.length (Node.children_named d "Proj") in
         let emps = Node.children_named d "regEmp" in
         let ok_counts =
           Node.attr od "numProj" = Some (Atom.Int projs)
           && Node.attr od "numEmps" = Some (Atom.Int (List.length emps))
         in
         let sals = List.filter_map (fun r -> Option.bind (sal r) Atom.to_float) emps in
         let ok_avg =
           match sals, Node.attr od "avg-sal" with
           | [], None -> true
           | [], Some _ -> false
           | _, None -> false
           | _, Some got ->
             let avg = List.fold_left ( +. ) 0. sals /. float_of_int (List.length sals) in
             (match Atom.to_float got with
              | Some f -> Float.equal f avg
              | None -> false)
         in
         ok_counts && ok_avg)
       (depts doc) out_depts

let fig9_aggregates =
  QCheck2.Test.make ~count:40 ~name:"fig9: counts and averages recomputed" gen_instance
    fig9_holds

(* A mean of 10/3 = 3.3333333333333335 needs all 17 significant digits. *)
let fig9_full_precision =
  Alcotest.test_case "fig9: avg-sal keeps all 17 significant digits" `Quick (fun () ->
      let doc =
        Clip_xml.Parser.parse_string
          {|<source><dept><dname>D</dname>
              <regEmp pid="1"><ename>a</ename><sal>10</sal></regEmp>
              <regEmp pid="1"><ename>b</ename><sal>0</sal></regEmp>
              <regEmp pid="1"><ename>c</ename><sal>0</sal></regEmp>
            </dept></source>|}
      in
      let out = Engine.run S.Figures.fig9.mapping doc in
      let got =
        match Node.children_named (Node.as_element out) "department" with
        | [ d ] -> Node.attr d "avg-sal"
        | _ -> None
      in
      Alcotest.(check (option (float 0.))) "avg-sal" (Some 3.3333333333333335)
        (Option.bind got Atom.to_float);
      Alcotest.(check bool) "recomputed" true (fig9_holds doc))

(* fig5 containment: every output department mirrors its source dept. *)
let fig5_containment =
  QCheck2.Test.make ~count:40
    ~name:"fig5: projects and employees stay inside their own department"
    gen_instance
    (fun doc ->
      let out = Engine.run S.Figures.fig5.mapping doc in
      let out_depts = Node.children_named (Node.as_element out) "department" in
      List.length out_depts = List.length (depts doc)
      && List.for_all2
           (fun d od ->
             let projs = List.filter_map pname (Node.children_named d "Proj") in
             let names = List.filter_map ename (Node.children_named d "regEmp") in
             List.filter_map (fun p -> Node.attr p "name") (Node.children_named od "project")
             = projs
             && List.filter_map (fun e -> Node.attr e "name") (Node.children_named od "employee")
               = names)
           (depts doc) out_depts)

(* --- The columnar document the rel store loads ------------------------------ *)

module Doc = Clip_xml.Doc

(* [of_node] must be total and lossless on anything the schema
   generators can produce: its node table holds the original boxed
   node physically (which is what keeps the rel store's rows
   identity-equal to the tree backend's bindings), and [rebuild] — the
   genuinely reconstructing inverse — agrees structurally. *)
let doc_roundtrip =
  QCheck2.Test.make ~count:60
    ~name:"columnar round-trip: to_node is physical, rebuild is structural"
    gen_instance
    (fun doc ->
      let d = Doc.of_node doc in
      d.Doc.nodes.(0) == doc && Node.equal (Doc.rebuild d 0) doc)

(* Nothing a mapping reads is lost in the columnar copy: every figure
   maps the document rebuilt from it exactly as it maps the original. *)
let repr_agreement =
  List.map
    (fun (sc : S.Figures.t) ->
      QCheck2.Test.make ~count:15
        ~name:(sc.name ^ ": columnar representation agrees with the tree")
        gen_instance
        (fun doc ->
          Node.equal
            (Engine.run sc.mapping doc)
            (Engine.run sc.mapping (Doc.rebuild (Doc.of_node doc) 0))))
    S.Figures.all

(* --- Conformance modulo minimum cardinality -------------------------------- *)

let conformance =
  List.map
    (fun (sc : S.Figures.t) ->
      QCheck2.Test.make ~count:25
        ~name:(sc.name ^ ": only cardinality-minimum violations possible")
        gen_instance
        (fun doc ->
          let out =
            Engine.run ~minimum_cardinality:sc.minimum_cardinality sc.mapping doc
          in
          List.for_all
            (fun (v : Clip_schema.Validate.violation) ->
              (* An empty result may miss a [1..*] element; nothing else
                 is tolerated. *)
              let has_card =
                let s = v.reason in
                let needle = "cardinality" in
                let n = String.length needle and m = String.length s in
                let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
                go 0
              in
              has_card)
            (Clip_schema.Validate.check sc.mapping.target out)))
    S.Figures.all

(* --- Clio generation invariants ----------------------------------------------- *)

let clio_extension_never_worse =
  QCheck2.Test.make ~count:25
    ~name:"clio: extension emits at most as many roots as the baseline"
    (QCheck2.Gen.pure ())
    (fun () ->
      List.for_all
        (fun (sc : S.Table1.scenario) ->
          List.length (Clip_clio.Generate.forest ~extension:true sc.mapping)
          <= List.length (Clip_clio.Generate.forest sc.mapping))
        S.Table1.all)

let compiled_alpha_reflexive =
  QCheck2.Test.make ~count:5 ~name:"compiled tgds are alpha-equal to themselves"
    (QCheck2.Gen.pure ())
    (fun () ->
      List.for_all
        (fun (sc : S.Figures.t) ->
          let tgd = Clip_core.Compile.to_tgd sc.mapping in
          Clip_tgd.Tgd.alpha_equal tgd tgd)
        S.Figures.all)

(* --- Whole-pipeline property over random schemas ------------------------------

   Generate a random nested source schema, mirror it into a target
   schema with renamed tags, couple every leaf, let Clio-with-extension
   generate the Clip mapping, and run it over random instances. *)

module Sch = Clip_schema.Schema
module Card = Clip_schema.Cardinality
module AT = Clip_schema.Atomic_type
module Path = Clip_schema.Path

type spec = {
  sname : string;
  sleaves : (string * AT.t) list;
  srepeating : bool;
  schildren : spec list;
}

let gen_spec =
  QCheck2.Gen.(
    let counter = ref 0 in
    let fresh_name prefix =
      incr counter;
      Printf.sprintf "%s%d" prefix !counter
    in
    let gen_ty = oneofl [ AT.T_string; AT.T_int ] in
    let gen_leaves =
      list_size (1 -- 3) (map (fun ty -> (fresh_name "leaf", ty)) gen_ty)
    in
    sized_size (0 -- 2) @@ fix (fun self depth ->
        let child =
          if depth <= 0 then pure []
          else list_size (0 -- 2) (self (depth - 1))
        in
        map3
          (fun leaves children repeating ->
            { sname = fresh_name "el"; sleaves = leaves; srepeating = repeating;
              schildren = children })
          gen_leaves child bool))

let rec source_of_spec sp =
  Sch.element
    ~card:(if sp.srepeating then Card.star else Card.required)
    ~attrs:[]
    sp.sname
    (List.map (fun (n, ty) -> Sch.element ~value:ty n []) sp.sleaves
     @ List.map source_of_spec sp.schildren)

(* The mirrored target renames every element and turns leaves into
   attributes. *)
let rec target_of_spec sp =
  Sch.element
    ~card:(if sp.srepeating then Card.star else Card.required)
    ~attrs:(List.map (fun (n, ty) -> Sch.attribute ~required:false ("m-" ^ n) ty) sp.sleaves)
    ("m-" ^ sp.sname)
    (List.map target_of_spec sp.schildren)

let rec couplings sp ~spath ~tpath =
  List.map
    (fun (n, _) ->
      Clip_core.Mapping.value
        [ Path.value (Path.child spath n) ]
        (Path.attr tpath ("m-" ^ n)))
    sp.sleaves
  @ List.concat_map
      (fun c ->
        couplings c ~spath:(Path.child spath c.sname)
          ~tpath:(Path.child tpath ("m-" ^ c.sname)))
      sp.schildren

let mapping_of_spec roots =
  (* A leaf whose whole chain is non-repeating has no possible driver
     builder (Sec. III rule (i) would reject its value mapping), so the
     top-level sets always repeat — as in every scenario of the paper. *)
  let roots = List.map (fun sp -> { sp with srepeating = true }) roots in
  let source = Sch.make (Sch.element "src" (List.map source_of_spec roots)) in
  let target = Sch.make (Sch.element "tgt" (List.map target_of_spec roots)) in
  let values =
    List.concat_map
      (fun sp ->
        couplings sp
          ~spath:(Path.child (Path.root "src") sp.sname)
          ~tpath:(Path.child (Path.root "tgt") ("m-" ^ sp.sname)))
      roots
  in
  Clip_core.Mapping.make ~source ~target values

let gen_pipeline_case =
  QCheck2.Gen.(
    map2
      (fun roots seed -> (mapping_of_spec roots, seed))
      (list_size (1 -- 3) gen_spec)
      (0 -- 10_000))

let pipeline_prop =
  QCheck2.Test.make ~count:60
    ~name:"random schemas: generate -> to_clip -> run on random instances"
    gen_pipeline_case
    (fun (m, seed) ->
      let forest = Clip_clio.Generate.forest ~extension:true m in
      let clip = Clip_clio.Generate.to_clip m forest in
      (* 1. the generated Clip mapping is valid *)
      Clip_core.Validity.is_valid clip
      &&
      let doc =
        Clip_schema.Generate.instance
          ~state:(Random.State.make [| seed |])
          ~fanout:3 m.source
      in
      (* 2. both backends agree on random instances *)
      let a = Engine.run ~backend:`Tgd clip doc in
      let b = Engine.run ~backend:`Xquery clip doc in
      Node.equal a b
      &&
      (* 3. the output validates modulo minimum-cardinality gaps *)
      List.for_all
        (fun (v : Clip_schema.Validate.violation) ->
          let needle = "cardinality" in
          let s = v.reason in
          let n = String.length needle and len = String.length s in
          let rec go i = i + n <= len && (String.sub s i n = needle || go (i + 1)) in
          go 0)
        (Clip_schema.Validate.check m.target a)
      &&
      (* 4. the generated tgd is equivalent to the Clip mapping *)
      match
        Clip_tgd.Eval.run_result ~source:doc ~target_root:"tgt"
          (Clip_clio.Generate.to_tgd m forest)
      with
      | Ok via_tgd -> Node.equal_unordered via_tgd a
      | Error _ -> false)

let pipeline_dsl_prop =
  QCheck2.Test.make ~count:40
    ~name:"random schemas: the generated mapping round-trips through the DSL"
    gen_pipeline_case
    (fun (m, _) ->
      let clip = Clip_clio.Generate.to_clip m (Clip_clio.Generate.forest ~extension:true m) in
      let text = Clip_core.Dsl.to_string clip in
      let clip' = Clip_core.Dsl.parse text in
      Clip_tgd.Tgd.alpha_equal
        (Clip_core.Compile.to_tgd clip)
        (Clip_core.Compile.to_tgd clip'))

(* --- Relational encoding and the relational backend ----------------------- *)

module Rel = Clip_schema.Relational

(* Random relational databases: 1-4 tables of 1-4 columns (the first
   column of each table is always an int, so a single-column foreign
   key between the first two tables is always well-typed). *)
let gen_rel_db =
  QCheck2.Gen.(
    map2
      (fun tables_shape with_fk ->
        let tables =
          List.mapi
            (fun i cols ->
              Rel.table
                (Printf.sprintf "t%d" i)
                (List.mapi
                   (fun j is_int ->
                     Rel.column
                       (Printf.sprintf "c%d_%d" i j)
                       (if j = 0 || is_int then Clip_schema.Atomic_type.T_int
                        else Clip_schema.Atomic_type.T_string))
                   cols))
            tables_shape
        in
        let foreign_keys =
          if with_fk && List.length tables >= 2 then
            [
              {
                Rel.fk_table = "t1";
                fk_columns = [ "c1_0" ];
                pk_table = "t0";
                pk_columns = [ "c0_0" ];
              };
            ]
          else []
        in
        Rel.database ~foreign_keys "db" tables)
      (list_size (1 -- 4) (list_size (1 -- 4) bool))
      bool)

let rel_encoding_total =
  QCheck2.Test.make ~count:200
    ~name:"random databases: the canonical encoding is total and well-formed"
    gen_rel_db
    (fun db ->
      match Rel.to_schema_result db with
      | Error _ -> false
      | Ok s ->
        List.length s.Clip_schema.Schema.refs = List.length db.Rel.foreign_keys)

let rel_shape_roundtrip =
  QCheck2.Test.make ~count:200
    ~name:"random databases: encode -> shape-detect round-trips"
    gen_rel_db
    (fun db ->
      match Clip_rel.Shape.of_schema (Rel.to_schema db) with
      | Error _ -> false
      | Ok shape ->
        List.length shape.Clip_rel.Shape.tables = List.length db.Rel.tables
        && List.for_all2
             (fun (st : Clip_rel.Shape.table) (t : Rel.table) ->
               String.equal st.Clip_rel.Shape.t_name t.Rel.table_name
               && st.Clip_rel.Shape.t_attrs
                  = List.map (fun (c : Rel.column) -> c.Rel.col_name)
                      t.Rel.columns
               && st.Clip_rel.Shape.t_vals = [])
             shape.Clip_rel.Shape.tables db.Rel.tables)

(* The identity mapping over a schema: one driven builder per table,
   an identity value mapping per column (the same generator as the
   algebra differential harness). *)
let identity_mapping (s : Clip_schema.Schema.t) : Clip_core.Mapping.t =
  let module Sch = Clip_schema.Schema in
  let module Path = Clip_schema.Path in
  let module Mapping = Clip_core.Mapping in
  let n = ref 0 in
  let rec walk path (e : Sch.element) =
    let kids =
      List.concat_map
        (fun (c : Sch.element) -> walk (Path.child path c.Sch.name) c)
        e.Sch.children
    in
    if Sch.is_repeating s path then begin
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
  let roots = walk (Sch.root_path s) s.Sch.root in
  let values =
    List.filter_map
      (fun q ->
        if Sch.repeating_ancestors s q <> [] then Some (Mapping.value [ q ] q)
        else None)
      (Sch.leaf_paths s)
  in
  Mapping.make ~source:s ~target:s ~roots values

(* Random canonical instances of a random database: the relational
   backend must agree byte-for-byte with the tgd backend on the
   identity mapping over the encoded schema. *)
let rel_backend_identity =
  QCheck2.Test.make ~count:60
    ~name:"random databases: rel backend == tgd backend on canonical instances"
    QCheck2.Gen.(pair gen_rel_db (0 -- 10_000))
    (fun (db, seed) ->
      let st = Random.State.make [| seed |] in
      let rows =
        List.map
          (fun (t : Rel.table) ->
            ( t.Rel.table_name,
              List.init (Random.State.int st 5) (fun _ ->
                  List.map
                    (fun (c : Rel.column) ->
                      match c.Rel.col_type with
                      | Clip_schema.Atomic_type.T_int ->
                        Atom.Int (Random.State.int st 9)
                      | _ -> Atom.String "x")
                    t.Rel.columns) ))
          db.Rel.tables
      in
      let m = identity_mapping (Rel.to_schema db) in
      let doc = Rel.instance db rows in
      Node.equal
        (Engine.run ~backend:`Tgd m doc)
        (Engine.run ~backend:`Rel m doc))

let to_alcotest = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "properties"
    [
      ("backend-agreement", to_alcotest agreement_props);
      ( "semantic-invariants",
        to_alcotest
          [
            fig3_count;
            fig4_shape;
            fig6_join_size;
            fig7_group_cardinality;
            fig8_inversion;
            fig9_aggregates;
            fig5_containment;
          ]
        @ [ fig9_full_precision ] );
      ("columnar", to_alcotest (doc_roundtrip :: repr_agreement));
      ("conformance", to_alcotest conformance);
      ("clio", to_alcotest [ clio_extension_never_worse; compiled_alpha_reflexive ]);
      ("pipeline", to_alcotest [ pipeline_prop; pipeline_dsl_prop ]);
      ( "rel",
        to_alcotest
          [ rel_encoding_total; rel_shape_roundtrip; rel_backend_identity ] );
    ]
