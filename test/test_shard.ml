(* Tests for single-document sharding (Clip_shard + the engine's
   sharded modes): the static cut decisions on every paper figure, and
   the central contract — sharded and streaming evaluation are
   byte-identical to the sequential whole-document oracle on every
   figure, backend and plan mode, with exactly merged counters. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

let decision_of (sc : Clip_scenarios.Figures.t) =
  let m = sc.mapping in
  Clip_shard.plan ~source:m.source ~target:m.target
    ~minimum_cardinality:sc.minimum_cardinality
    (Clip_core.Compile.to_tgd m)

let note_of sc = Clip_shard.decision_note (decision_of sc)

let figure name =
  List.find
    (fun (sc : Clip_scenarios.Figures.t) -> sc.name = name)
    Clip_scenarios.Figures.all

(* --- Static decisions ---------------------------------------------------

   One pin per figure: which mappings shard, where the cut lands, and
   the exact fallback reason EXPLAIN reports for the rest. A change in
   the analysis that silently widens (unsound) or narrows (lost
   parallelism) the shardable set fails here first. *)

let sharded_note =
  "sharding: cut at source.dept (unit <dept>, shards carry the container \
   spine only)"

let fallback reason = "sharding: whole-document fallback - " ^ reason

let decision_tests =
  let pins =
    [
      ("fig3", sharded_note);
      ("fig4", sharded_note);
      ("fig5", sharded_note);
      ("fig6", sharded_note);
      ("fig6-cartesian", sharded_note);
      ("fig9", sharded_note);
      ( "fig3-universal",
        fallback
          "the universal-solution ablation creates one element per mapped \
           value, which only the whole-document evaluation orders correctly" );
      ("fig4-nocontext", fallback "source.dept reads the repeated region outside the shard loop");
      ("fig6-global", fallback "source.dept reads the repeated region outside the shard loop");
      ("fig6-join-global", fallback "source.dept reads the repeated region outside the shard loop");
      ("fig7", fallback "group-by under a shard-shared parent: its groups span shards");
      ("fig8", fallback "group-by under a shard-shared parent: its groups span shards");
    ]
  in
  [
    Alcotest.test_case "every figure's decision note" `Quick (fun () ->
        List.iter
          (fun (sc : Clip_scenarios.Figures.t) ->
            match List.assoc_opt sc.name pins with
            | Some note -> checks sc.name note (note_of sc)
            | None -> Alcotest.fail ("unpinned figure " ^ sc.name))
          Clip_scenarios.Figures.all);
    Alcotest.test_case "fig3 cut structure" `Quick (fun () ->
        match decision_of (figure "fig3") with
        | Clip_shard.Whole r -> Alcotest.fail ("unexpected fallback: " ^ r)
        | Clip_shard.Sharded cut ->
          checks "cut path" "source.dept"
            (Clip_schema.Path.to_string cut.cut_path);
          checks "unit" "dept" cut.unit_tag;
          checkb "containers" true (cut.containers = [ "source" ]);
          checkb "no prologue" false cut.needs_prologue;
          (* fig3's <department> is completion-created once per shard
             and must be unified at merge; fig4-style driven children
             concatenate instead. *)
          checkb "unify" true (cut.unify = [ "department" ]));
    Alcotest.test_case "fig4 concatenates, nothing unified" `Quick (fun () ->
        match decision_of (figure "fig4") with
        | Clip_shard.Whole r -> Alcotest.fail ("unexpected fallback: " ^ r)
        | Clip_shard.Sharded cut -> checkb "unify" true (cut.unify = []));
  ]

(* --- Tree cutting -------------------------------------------------------- *)

let cut_of name =
  match decision_of (figure name) with
  | Clip_shard.Sharded cut -> cut
  | Clip_shard.Whole r -> Alcotest.fail ("expected a cut: " ^ r)

let cutting_tests =
  [
    Alcotest.test_case "budget controls shard count" `Quick (fun () ->
        let cut = cut_of "fig4" in
        let doc =
          Clip_scenarios.Deptdb.synthetic_instance ~depts:8 ~projs:2 ~emps:3
        in
        checki "units" 8 (Clip_shard.count_units cut doc);
        let tiny = Clip_shard.shards_of_node cut ~budget_bytes:1 doc in
        checki "one unit per shard" 8 (List.length tiny);
        let huge =
          Clip_shard.shards_of_node cut ~budget_bytes:max_int doc
        in
        checki "everything in one shard" 1 (List.length huge));
    Alcotest.test_case "fewer than two units: the document itself" `Quick
      (fun () ->
        let cut = cut_of "fig4" in
        let doc =
          Clip_scenarios.Deptdb.synthetic_instance ~depts:1 ~projs:1 ~emps:1
        in
        match Clip_shard.shards_of_node cut ~budget_bytes:1 doc with
        | [ d ] -> checkb "same document" true (d == doc)
        | l -> Alcotest.fail (Printf.sprintf "%d shards" (List.length l)));
    Alcotest.test_case "merge conflict is a CLIP-TGD-001" `Quick (fun () ->
        let out text =
          Clip_xml.Node.elem "target"
            [ Clip_xml.Node.leaf "department" (Clip_xml.Atom.String text) ]
        in
        (match Clip_shard.merge ~unify:[ "department" ] [ out "a"; out "b" ] with
         | Ok _ -> Alcotest.fail "conflicting text must not merge"
         | Error ds ->
           checkb "code" true
             (List.exists
                (fun (d : Clip_diag.t) -> d.code = Clip_diag.Codes.tgd_eval)
                ds));
        match Clip_shard.merge ~unify:[ "department" ] [ out "a"; out "a" ] with
        | Ok merged ->
          checks "unified" "<target><department>a</department></target>"
            (Clip_xml.Printer.to_string merged)
        | Error _ -> Alcotest.fail "agreeing shards must merge");
  ]

(* --- Differential: sharded == whole, everywhere -------------------------- *)

let backends = [ (`Tgd, "tgd"); (`Xquery, "xquery"); (`Xquery_text, "xquery-text") ]
let plans = [ (`Auto, "auto"); (`Indexed, "indexed"); (`Naive, "naive") ]

let run_string ?ctx ?mode ?shard_bytes ?jobs ~backend ~plan
    (sc : Clip_scenarios.Figures.t) doc =
  match
    Clip_core.Engine.run_result ?ctx ~backend
      ~minimum_cardinality:sc.minimum_cardinality ~plan ?mode ?shard_bytes
      ?jobs sc.mapping doc
  with
  | Ok out -> Clip_xml.Printer.to_string out
  | Error ds ->
    Alcotest.fail
      (sc.name ^ ": " ^ String.concat "; " (List.map Clip_diag.to_string ds))

let differential_tests =
  [
    Alcotest.test_case
      "every figure x backend x plan: sharded output is byte-identical"
      `Quick (fun () ->
        let doc =
          Clip_scenarios.Deptdb.synthetic_instance ~depts:7 ~projs:3 ~emps:4
        in
        List.iter
          (fun (sc : Clip_scenarios.Figures.t) ->
            let backends =
              (* The universal-solution ablation only exists on the tgd
                 backend. *)
              if sc.minimum_cardinality then backends else [ (`Tgd, "tgd") ]
            in
            List.iter
              (fun (backend, bname) ->
                List.iter
                  (fun (plan, pname) ->
                    let label =
                      Printf.sprintf "%s/%s/%s" sc.name bname pname
                    in
                    let whole = run_string ~backend ~plan sc doc in
                    let sharded =
                      run_string ~mode:`Sharded ~shard_bytes:256 ~jobs:3
                        ~backend ~plan sc doc
                    in
                    checks label whole sharded)
                  plans)
              backends)
          Clip_scenarios.Figures.all);
    Alcotest.test_case "paper instance, per-unit shards" `Quick (fun () ->
        let doc = Clip_scenarios.Deptdb.instance in
        List.iter
          (fun name ->
            let sc = figure name in
            let whole = run_string ~backend:`Tgd ~plan:`Auto sc doc in
            let sharded =
              run_string ~mode:`Sharded ~shard_bytes:1 ~jobs:2 ~backend:`Tgd
                ~plan:`Auto sc doc
            in
            checks name whole sharded)
          [ "fig3"; "fig4"; "fig5"; "fig6"; "fig9" ]);
    Alcotest.test_case "no-safe-cut mappings fall back byte-identically"
      `Quick (fun () ->
        let doc =
          Clip_scenarios.Deptdb.synthetic_instance ~depts:5 ~projs:2 ~emps:3
        in
        List.iter
          (fun name ->
            let sc = figure name in
            let whole = run_string ~backend:`Tgd ~plan:`Auto sc doc in
            let sharded =
              run_string ~mode:`Sharded ~shard_bytes:64 ~jobs:3 ~backend:`Tgd
                ~plan:`Auto sc doc
            in
            checks name whole sharded)
          [ "fig7"; "fig8"; "fig6-join-global"; "fig3-universal" ]);
    Alcotest.test_case "auto mode: small documents stay whole" `Quick
      (fun () ->
        let sc = figure "fig4" in
        let doc =
          Clip_scenarios.Deptdb.synthetic_instance ~depts:3 ~projs:1 ~emps:1
        in
        (* Under the default 1 MiB budget this document is one shard's
           worth, so `Auto must not cut it ... *)
        let whole = run_string ~backend:`Tgd ~plan:`Auto sc doc in
        checks "auto = whole" whole
          (run_string ~mode:`Auto ~backend:`Tgd ~plan:`Auto sc doc);
        (* ... and with a budget it overflows, `Auto shards — output
           unchanged. *)
        checks "auto sharded" whole
          (run_string ~mode:`Auto ~shard_bytes:64 ~jobs:2 ~backend:`Tgd
             ~plan:`Auto sc doc));
  ]

(* --- Streaming ----------------------------------------------------------- *)

let feed_in_chunks ?(chunk = 41) bytes =
  let pos = ref 0 in
  Clip_xml.Stream.of_chunks (fun () ->
      if !pos >= String.length bytes then None
      else begin
        let n = min chunk (String.length bytes - !pos) in
        let c = String.sub bytes !pos n in
        pos := !pos + n;
        Some c
      end)

let stream_tests =
  [
    Alcotest.test_case "streamed run is byte-identical on every figure"
      `Quick (fun () ->
        let doc =
          Clip_scenarios.Deptdb.synthetic_instance ~depts:7 ~projs:2 ~emps:3
        in
        let bytes = Clip_xml.Printer.to_string doc in
        List.iter
          (fun (sc : Clip_scenarios.Figures.t) ->
            let backend = `Tgd in
            let whole = run_string ~backend ~plan:`Auto sc doc in
            match
              Clip_core.Engine.run_stream_result ~backend
                ~minimum_cardinality:sc.minimum_cardinality ~mode:`Sharded
                ~shard_bytes:256 ~jobs:3 sc.mapping (feed_in_chunks bytes)
            with
            | Ok out -> checks sc.name whole (Clip_xml.Printer.to_string out)
            | Error ds ->
              Alcotest.fail
                (sc.name ^ ": "
                ^ String.concat "; " (List.map Clip_diag.to_string ds)))
          Clip_scenarios.Figures.all);
    Alcotest.test_case "stream parse errors match the tree parser" `Quick
      (fun () ->
        let sc = figure "fig4" in
        let bad = "<source><dept><dname>A</dname></dept><oops</source>" in
        let whole =
          match Clip_xml.Parser.parse_string_result bad with
          | Ok _ -> Alcotest.fail "expected a parse error"
          | Error ds -> List.map Clip_diag.render ds
        in
        match
          Clip_core.Engine.run_stream_result ~mode:`Sharded ~shard_bytes:64
            sc.mapping (feed_in_chunks bad)
        with
        | Ok _ -> Alcotest.fail "expected a parse error"
        | Error ds ->
          checks "diagnostics" (String.concat "\n" whole)
            (String.concat "\n" (List.map Clip_diag.render ds)));
    Alcotest.test_case "root mismatch falls back to whole-document" `Quick
      (fun () ->
        (* The mapping expects <source>; feed a document rooted
           elsewhere — the cutter materialises it and the run proceeds
           unsharded, reporting whatever the whole run would. *)
        let sc = figure "fig4" in
        let bytes = "<elsewhere><x>1</x></elsewhere>" in
        let whole =
          Clip_core.Engine.run_result sc.mapping
            (Result.get_ok (Clip_xml.Parser.parse_string_result bytes))
        in
        let streamed =
          Clip_core.Engine.run_stream_result ~mode:`Sharded ~shard_bytes:64
            sc.mapping (feed_in_chunks bytes)
        in
        match (whole, streamed) with
        | Ok a, Ok b ->
          checks "output" (Clip_xml.Printer.to_string a)
            (Clip_xml.Printer.to_string b)
        | Error a, Error b ->
          checks "diagnostics"
            (String.concat "\n" (List.map Clip_diag.render a))
            (String.concat "\n" (List.map Clip_diag.render b))
        | _ -> Alcotest.fail "whole and streamed disagree on success");
  ]

(* --- Counters ------------------------------------------------------------ *)

(* Work counters are deterministic per shard, so the parallel sharded
   run must sum to exactly the sequential sharded run's totals — the
   task-to-domain partition must not show. *)
let counter_assoc ~jobs ~mode (sc : Clip_scenarios.Figures.t) doc =
  let counters = Clip_obs.Counters.create () in
  let ctx = Clip_run.create ~counters () in
  (match
     Clip_core.Engine.run_result ~ctx ~mode ~shard_bytes:256 ~jobs sc.mapping
       doc
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail (sc.name ^ ": run failed"));
  Clip_obs.Counters.work_assoc counters

let counter_tests =
  [
    Alcotest.test_case "sharded-parallel counters equal sharded-sequential"
      `Quick (fun () ->
        let doc =
          Clip_scenarios.Deptdb.synthetic_instance ~depts:9 ~projs:3 ~emps:4
        in
        List.iter
          (fun name ->
            let sc = figure name in
            let seq = counter_assoc ~jobs:1 ~mode:`Sharded sc doc in
            let par = counter_assoc ~jobs:4 ~mode:`Sharded sc doc in
            checkb (name ^ " nonempty") true (seq <> []);
            List.iter
              (fun (k, v) ->
                checki
                  (Printf.sprintf "%s %s" name k)
                  v
                  (match List.assoc_opt k par with Some v -> v | None -> 0))
              seq;
            checki (name ^ " same keys") (List.length seq) (List.length par))
          [ "fig3"; "fig4"; "fig6"; "fig9" ]);
    Alcotest.test_case "streaming counters equal tree-sharded counters"
      `Quick (fun () ->
        let sc = figure "fig4" in
        let doc =
          Clip_scenarios.Deptdb.synthetic_instance ~depts:9 ~projs:3 ~emps:4
        in
        let tree = counter_assoc ~jobs:1 ~mode:`Sharded sc doc in
        let counters = Clip_obs.Counters.create () in
        let ctx = Clip_run.create ~counters () in
        let bytes = Clip_xml.Printer.to_string doc in
        (match
           Clip_core.Engine.run_stream_result ~ctx ~mode:`Sharded
             ~shard_bytes:256 ~jobs:4 sc.mapping (feed_in_chunks bytes)
         with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "stream run failed");
        let streamed = Clip_obs.Counters.work_assoc counters in
        List.iter
          (fun (k, v) ->
            checki k v
              (match List.assoc_opt k streamed with Some v -> v | None -> 0))
          tree);
  ]

let () =
  Alcotest.run "shard"
    [
      ("decisions", decision_tests);
      ("cutting", cutting_tests);
      ("differential", differential_tests);
      ("streaming", stream_tests);
      ("counters", counter_tests);
    ]
