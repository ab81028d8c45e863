(* The executable paper: rewrites the generated blocks of EXPERIMENTS.md
   from the tool's own outputs and copies everything else verbatim.

     dune exec test/paper/paper.exe -- EXPERIMENTS.md > EXPERIMENTS.md.gen

   A block is the text between a line "<!-- BEGIN generated: NAME -->"
   and the next "<!-- END generated -->" line; each block of [blocks]
   must appear exactly once. The root dune file runs this on every
   [dune runtest] and diffs the result against the checked-in file, so
   a changed figure output, tgd, query or Table I count fails the tests
   until [dune promote] accepts it. Every verdict is computed here,
   none is typed, and nothing printed depends on timing or hash order:
   two runs print the same bytes. A verdict that disagrees with the
   paper makes the run exit 1 after printing, so no such file can be
   promoted. *)

module S = Clip_scenarios
module Node = Clip_xml.Node
module Engine = Clip_core.Engine

let tree = Clip_xml.Printer.to_tree_string

(* Verdicts that disagree with the paper, counted as they are printed. *)
let mismatches = ref 0

let verdict ok =
  if ok then "match"
  else begin
    incr mismatches;
    "**MISMATCH**"
  end

(* A fenced code block around [text], which gets a final newline. *)
let fence text =
  if String.ends_with ~suffix:"\n" text then "```\n" ^ text ^ "```\n"
  else "```\n" ^ text ^ "\n```\n"

let run (sc : S.Figures.t) =
  Engine.run ~minimum_cardinality:sc.minimum_cardinality sc.mapping
    S.Deptdb.instance

(* Run a Clio-generated tgd on the tgd engine. *)
let run_tgd tgd =
  match
    Clip_tgd.Eval.run_result ~source:S.Deptdb.instance ~target_root:"target" tgd
  with
  | Ok out -> out
  | Error ds -> Clip_diag.fail_all ds

(* --- Table I ---------------------------------------------------------- *)

let table1 () =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "| Example (source) | Value mappings | Paper: extra meaningful mappings \
     | Measured | Verdict |\n|---|---|---|---|---|\n";
  let reports =
    List.map
      (fun (sc : S.Table1.scenario) ->
        let r = Clip_clio.Enumerate.flexibility ~instance:sc.instance sc.mapping in
        let measured = Clip_clio.Enumerate.extra_count r in
        Printf.bprintf b "| %s | %d | %d | **%d** | %s |\n" sc.label
          sc.value_mappings sc.paper_extra measured
          (verdict (measured = sc.paper_extra));
        (sc, r))
      S.Table1.all
  in
  List.iter
    (fun ((sc : S.Table1.scenario), r) ->
      Printf.bprintf b "\nVariants of %s:\n\n%s" sc.label
        (fence (Clip_clio.Enumerate.report_to_string r)))
    reports;
  Buffer.contents b

(* --- Figures 3-9 and the prose variants ------------------------------- *)

let paper_verdict (sc : S.Figures.t) out =
  match sc.expected with
  | None -> "none printed"
  | Some e when sc.ordered -> verdict (Node.equal out e) ^ " (exact order)"
  | Some e -> verdict (Node.equal_unordered out e) ^ " (order-insensitive)"

(* The generated-XQuery backend implements minimum cardinality only. *)
let backends_verdict (sc : S.Figures.t) out =
  if not sc.minimum_cardinality then "n/a"
  else if Node.equal out (Engine.run ~backend:`Xquery sc.mapping S.Deptdb.instance)
  then "agree"
  else begin
    incr mismatches;
    "**DIFFER**"
  end

let figures () =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "| Scenario | What the paper calls it | Paper's printed instance \
     | tgd = xquery | Target nodes |\n|---|---|---|---|---|\n";
  List.iter
    (fun (sc : S.Figures.t) ->
      let out = run sc in
      Printf.bprintf b "| %s | %s | %s | %s | %d |\n" sc.name sc.title
        (paper_verdict sc out) (backends_verdict sc out) (Node.size out))
    S.Figures.all;
  Buffer.contents b

(* --- Counts the paper states in prose --------------------------------- *)

let ablations () =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "| Paper's claim | Scenario | Counted | Paper | Measured | Verdict |\n\
     |---|---|---|---|---|---|\n";
  let row claim scenario counted paper measured =
    Printf.bprintf b "| %s | %s | %s | %d | %d | %s |\n" claim scenario counted
      paper measured (verdict (paper = measured))
  in
  let count (sc : S.Figures.t) tag claim paper =
    row claim sc.name ("`" ^ tag ^ "`") paper (Node.count_elements (run sc) tag)
  in
  count S.Figures.fig3 "department" "minimum cardinality: one department" 1;
  count S.Figures.fig3_universal "department"
    "universal solution: one department per mapped employee" 3;
  count S.Figures.fig4 "employee" "the context arc puts each employee in its department" 3;
  count S.Figures.fig4_nocontext "employee"
    "without the arc, all employees repeat within all departments (2 × 3)" 6;
  count S.Figures.fig6 "project-emp" "the join in a CPT: 7 pairs" 7;
  count S.Figures.fig6_cartesian "project-emp"
    "without the join, a per-department Cartesian product (2·4 + 2·3)" 14;
  count S.Figures.fig6_global "project-emp"
    "without the top node, an overall Cartesian product (4 × 7)" 28;
  row "Clio encloses each node in a different department (Fig. 1)"
    "Clio on fig1's value mappings" "`department`" 11
    (Node.count_elements
       (run_tgd (Clip_clio.Generate.generate S.Figures.fig1_values))
       "department");
  let roots extension =
    List.length (Clip_clio.Generate.forest ~extension S.Generic.mapping)
  in
  row "baseline Clio: AB→FG and AD→FG share no nesting (Fig. 10)" "generic"
    "nested-mapping roots" 2 (roots false);
  row "the extension activates A→F and nests both" "generic"
    "nested-mapping roots" 1 (roots true);
  Buffer.contents b

(* --- Fig. 1 and Sec. V: Clio's baseline and the extension's repair ---- *)

let fig1 () =
  let instance extension =
    run_tgd (Clip_clio.Generate.generate ~extension S.Figures.fig1_values)
  in
  let baseline = instance false and repaired = instance true in
  Printf.sprintf
    "Clio's mapping for the two value mappings of Fig. 1 (Sec. V), on the \
     Sec. I-A instance. Against the paper's printed defective instance: %s \
     (order-insensitive).\n\n\
     %s\n\
     The Sec. V-B extension's mapping. Against the Sec. I desired output: %s \
     (order-insensitive).\n\n\
     %s"
    (verdict (Node.equal_unordered baseline S.Figures.fig1_clio_output))
    (fence (tree baseline))
    (verdict
       (Node.equal_unordered repaired (Option.get S.Figures.fig5.expected)))
    (fence (tree repaired))

(* --- Fig. 2: the textual rendering of a Clip mapping ------------------ *)

let fig2 () =
  "The Fig. 7 mapping in the textual DSL (`Clip_core.Dsl.to_string`):\n\n"
  ^ fence (Clip_core.Dsl.to_string S.Figures.fig7.mapping)

(* --- Fig. 10 and Sec. V-A: tableaux, forests and tgds ----------------- *)

let fig10 () =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "| Tableaux | Paper | Measured | Verdict |\n|---|---|---|---|\n";
  List.iter
    (fun (what, schema, paper) ->
      let measured =
        List.map Clip_clio.Tableau.to_string (Clip_clio.Tableau.compute schema)
      in
      let show l = String.concat ", " (List.map (fun t -> "`" ^ t ^ "`") l) in
      Printf.bprintf b "| %s | %s | %s | %s |\n" what (show paper) (show measured)
        (verdict (measured = paper)))
    [
      ( "Sec. V-A, the running source schema",
        S.Deptdb.source,
        [ "{dept}"; "{dept-Proj}"; "{dept-Proj-regEmp, @pid=@pid}" ] );
      ( "Fig. 10 source",
        S.Generic.source,
        [ "{A}"; "{A-B}"; "{A-B-C}"; "{A-D}"; "{A-D-E}" ] );
      ("Fig. 10 target", S.Generic.target, [ "{F}"; "{F-G}" ]);
    ];
  (* The extension's forests come with the nested tgd they emit. *)
  let forest ?extra_source_tableaux ~extension title =
    let f =
      Clip_clio.Generate.forest ~extension ?extra_source_tableaux S.Generic.mapping
    in
    Printf.bprintf b "\n%s\n\n%s" title
      (fence
         (Clip_clio.Generate.forest_to_string f
         ^
         if extension then
           Clip_tgd.Pretty.to_string ~unicode:false
             (Clip_clio.Generate.to_tgd S.Generic.mapping f)
         else ""))
  in
  forest ~extension:false
    "Baseline activation (paper: AB→FG and AD→FG, no common nesting):";
  forest ~extension:true "The extension (paper: A→F nests both):";
  forest ~extension:true
    ~extra_source_tableaux:[ Clip_clio.Tableau.make S.Generic.abd_gens ]
    "The extension with the user-added A(B×D) tableau:";
  Buffer.contents b

(* --- Sec. IV tgds, Sec. VI queries and outputs, figure by figure ------ *)

let texts () =
  let b = Buffer.create 16384 in
  List.iter
    (fun (sc : S.Figures.t) ->
      Printf.bprintf b "### %s — %s\n\n" sc.name sc.title;
      if sc.minimum_cardinality then
        Printf.bprintf b "Sec. IV tgd:\n\n%s\nSec. VI XQuery:\n\n%s\n"
          (fence (Engine.tgd_text ~unicode:false sc.mapping))
          (fence (Engine.xquery_text sc.mapping))
      else
        Buffer.add_string b
          "The mapping, tgd and query of the scenario above, run without \
           the minimum-cardinality principle.\n\n";
      let out = run sc in
      Printf.bprintf b
        "Output on the Sec. I-A instance; against the paper's printed \
         instance: %s.\n\n%s\n"
        (paper_verdict sc out) (fence (tree out)))
    S.Figures.all;
  Buffer.contents b

(* Generated in this order whatever the file's order: Clio numbers the
   build nodes it generates from one global counter, so the variant
   labels of Table I depend on what ran before. *)
let blocks =
  [
    ("table1", table1);
    ("figures", figures);
    ("ablations", ablations);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig10", fig10);
    ("texts", texts);
  ]

let begin_prefix = "<!-- BEGIN generated: "
let end_marker = "<!-- END generated -->"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("paper: " ^ msg);
      exit 1)
    fmt

let block_name line =
  let n = String.length begin_prefix in
  if String.starts_with ~prefix:begin_prefix line
     && String.ends_with ~suffix:" -->" line
  then Some (String.sub line n (String.length line - n - 4))
  else None

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ -> die "usage: paper.exe EXPERIMENTS.md"
  in
  let generated = List.map (fun (name, f) -> (name, f ())) blocks in
  let seen = ref [] in
  (* Drop the old body of a block up to and including its end marker;
     a marker lost on either side leaves some block missing below. *)
  let rec skip name = function
    | [] -> die "%s: block %S has no end marker" path name
    | line :: rest when line = end_marker -> rest
    | _ :: rest -> skip name rest
  in
  let rec copy = function
    | [] -> []
    | line :: rest ->
      (match block_name line with
       | None -> line :: copy rest
       | Some name ->
         let body =
           match List.assoc_opt name generated with
           | Some body -> body
           | None -> die "%s: unknown block %S" path name
         in
         if List.mem name !seen then die "%s: block %S appears twice" path name;
         seen := name :: !seen;
         (line ^ "\n\n" ^ body ^ "\n" ^ end_marker) :: copy (skip name rest))
  in
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
  in
  let out = String.concat "\n" (copy lines) in
  List.iter
    (fun (name, _) ->
      if not (List.mem name !seen) then die "%s: block %S is missing" path name)
    blocks;
  print_string out;
  if !mismatches > 0 then
    die "%s: %d verdict(s) disagree with the paper" path !mismatches
