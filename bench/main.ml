(* The benchmark / reproduction harness.

   Every table and figure of the paper's evaluation has a target here:

     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe table1     # one experiment
     dune exec bench/main.exe perf       # Bechamel micro-benchmarks only

   Reproduction experiments print the paper's rows next to the measured
   ones; [perf] runs one Bechamel [Test.make] per experiment (mapping
   compilation, both execution backends, XQuery generation, Clio
   generation, and the supporting substrates). *)

module S = Clip_scenarios
module Node = Clip_xml.Node
module Engine = Clip_core.Engine

let rule title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subrule title = Printf.printf "\n--- %s\n" title

(* The value of a run that must succeed; its diagnostics otherwise. *)
let ok = function Ok v -> v | Error ds -> Clip_diag.fail_all ds

(* --- Figures 3-9 (and the prose variants): expected vs measured ---------- *)

let figure_experiment (sc : S.Figures.t) () =
  rule (Printf.sprintf "%s — %s" sc.name sc.title);
  let out =
    Engine.run ~minimum_cardinality:sc.minimum_cardinality sc.mapping
      S.Deptdb.instance
  in
  print_endline (Clip_xml.Printer.to_tree_string out);
  (match sc.expected with
   | Some expected ->
     let ok =
       if sc.ordered then Node.equal out expected
       else Node.equal_unordered out expected
     in
     Printf.printf "\npaper-vs-measured: %s%s\n"
       (if ok then "MATCH" else "MISMATCH")
       (if sc.ordered then " (exact sibling order)" else " (order-insensitive)")
   | None ->
     Printf.printf "\npaper prints no instance; measured %d target nodes\n"
       (Node.size out));
  if sc.minimum_cardinality then begin
    let out' = Engine.run ~backend:`Xquery sc.mapping S.Deptdb.instance in
    Printf.printf "generated-XQuery backend agrees: %b\n" (Node.equal out out')
  end

(* --- Figure 1: the motivating example and Clio's defect ------------------- *)

let fig1_experiment () =
  rule "fig1 — the motivating example (Sec. I): Clio's defective output";
  let baseline = Clip_clio.Generate.generate S.Figures.fig1_values in
  let out =
    ok
      (Clip_tgd.Eval.run_result ~source:S.Deptdb.instance
         ~target_root:"target" baseline)
  in
  print_endline (Clip_xml.Printer.to_tree_string out);
  Printf.printf
    "\nencloses each node in its own department (11 departments): %b\n"
    (Node.count_elements out "department" = 11);
  Printf.printf "matches the paper's printed defective instance: %b\n"
    (Node.equal_unordered out S.Figures.fig1_clio_output);
  subrule "the Sec. V-B extension repairs it";
  let repaired = Clip_clio.Generate.generate ~extension:true S.Figures.fig1_values in
  let out =
    ok
      (Clip_tgd.Eval.run_result ~source:S.Deptdb.instance
         ~target_root:"target" repaired)
  in
  print_endline (Clip_xml.Printer.to_tree_string out);
  Printf.printf "\nmatches the Sec. I desired output: %b\n"
    (Node.equal_unordered out (Option.get S.Figures.fig5.expected))

(* --- Figure 2: the Clip syntax in a nutshell ------------------------------- *)

let fig2_experiment () =
  rule "fig2 — the Clip syntax in a nutshell (the DSL rendering)";
  print_endline
    {|The visual syntax of Fig. 2 maps 1:1 onto the textual DSL:

  value mappings (thin arrows, optional <<aggregate>> labels)
      value <source leaf path> -> <target leaf path>
      value fn(<leaf>, <leaf>) -> <target leaf>          # scalar function
      value <<count>> <source element> -> <target leaf>  # aggregate
      value "constant" -> <target leaf>

  builders (thick arrows) meeting in build nodes, with variables,
  filtering conditions and at most one outgoing builder
      node <id>: <source element> as $x, ... -> <target element>
        where $x.<path> <op> <operand>, ...

  group nodes ("group-by" + grouping attributes)
      group <id>: <source element> as $x by $x.<path>, ... -> <target element>

  context arcs (CPTs) as lexical nesting
      node outer: ... -> ... {
        node inner: ... -> ...
      }|};
  print_endline "";
  print_endline "Rendered on the Fig. 7 mapping:";
  print_endline "";
  print_string (Clip_core.Dsl.to_string S.Figures.fig7.mapping)

(* --- Figure 10: tableaux, skeletons, and the extension -------------------- *)

let fig10_experiment () =
  rule "fig10 — the generic mapping, its tableaux and the extension";
  subrule "source tableaux (paper: A, AB, ABC, AD, ADE)";
  List.iter
    (fun t -> print_endline ("  " ^ Clip_clio.Tableau.to_string t))
    (Clip_clio.Tableau.compute S.Generic.source);
  subrule "target tableaux (paper: F, FG)";
  List.iter
    (fun t -> print_endline ("  " ^ Clip_clio.Tableau.to_string t))
    (Clip_clio.Tableau.compute S.Generic.target);
  subrule "baseline activation (paper: AB->FG and AD->FG, no common nesting)";
  print_string
    (Clip_clio.Generate.forest_to_string (Clip_clio.Generate.forest S.Generic.mapping));
  subrule "extension (paper: A->F nests both)";
  let forest = Clip_clio.Generate.forest ~extension:true S.Generic.mapping in
  print_string (Clip_clio.Generate.forest_to_string forest);
  print_endline
    (Clip_tgd.Pretty.to_string ~unicode:false
       (Clip_clio.Generate.to_tgd S.Generic.mapping forest));
  subrule "second example: the user-added A(BxD) tableau";
  let abd = Clip_clio.Tableau.make S.Generic.abd_gens in
  let forest =
    Clip_clio.Generate.forest ~extension:true ~extra_source_tableaux:[ abd ]
      S.Generic.mapping
  in
  print_string (Clip_clio.Generate.forest_to_string forest);
  print_endline
    (Clip_tgd.Pretty.to_string ~unicode:false
       (Clip_clio.Generate.to_tgd S.Generic.mapping forest))

(* --- Table I: flexibility ----------------------------------------------------- *)

let table1_experiment () =
  rule "Table I — flexibility of Clip";
  Printf.printf "%-24s | %-14s | %-11s | %-14s | %s\n" "Example (source)"
    "Value mappings" "Paper extra" "Measured extra" "verdict";
  print_endline (String.make 84 '-');
  let reports =
    List.map
      (fun (sc : S.Table1.scenario) ->
        let r = Clip_clio.Enumerate.flexibility ~instance:sc.instance sc.mapping in
        let measured = Clip_clio.Enumerate.extra_count r in
        Printf.printf "%-24s | %-14d | %-11d | %-14d | %s\n" sc.label
          sc.value_mappings sc.paper_extra measured
          (if measured = sc.paper_extra then "MATCH" else "DIFFERS");
        (sc, r))
      S.Table1.all
  in
  List.iter
    (fun ((sc : S.Table1.scenario), r) ->
      subrule (Printf.sprintf "variant details: %s" sc.label);
      print_string (Clip_clio.Enumerate.report_to_string r))
    reports

(* --- Sec. IV: the tgds -------------------------------------------------------- *)

let tgds_experiment () =
  rule "Sec. IV — the compiled nested tgds of every figure mapping";
  List.iter
    (fun (sc : S.Figures.t) ->
      subrule sc.name;
      print_endline (Engine.tgd_text ~unicode:false sc.mapping))
    S.Figures.all

(* --- Sec. VI: the generated XQuery --------------------------------------------- *)

let xquery_experiment () =
  rule "Sec. VI — generated XQuery (simple, join, grouping template, aggregates)";
  List.iter
    (fun name ->
      let sc = List.find (fun (sc : S.Figures.t) -> sc.name = name) S.Figures.all in
      subrule (sc.name ^ " — " ^ sc.title);
      print_string (Engine.xquery_text sc.mapping))
    [ "fig3"; "fig6"; "fig7"; "fig9" ]

(* --- Ablations ------------------------------------------------------------------ *)

let ablation_experiment () =
  rule "Ablations — the design choices DESIGN.md calls out";
  subrule "minimum cardinality (fig3): departments produced";
  Printf.printf "  with the principle   : %d department(s)\n"
    (Node.count_elements (Engine.run S.Figures.fig3.mapping S.Deptdb.instance)
       "department");
  Printf.printf "  universal solution   : %d department(s)\n"
    (Node.count_elements
       (Engine.run ~minimum_cardinality:false S.Figures.fig3.mapping S.Deptdb.instance)
       "department");
  subrule "context arcs (fig4): employee placement";
  Printf.printf "  with the arc         : %d employee(s) total\n"
    (Node.count_elements (Engine.run S.Figures.fig4.mapping S.Deptdb.instance) "employee");
  Printf.printf "  without the arc      : %d employee(s) total (repeated everywhere)\n"
    (Node.count_elements
       (Engine.run S.Figures.fig4_nocontext.mapping S.Deptdb.instance)
       "employee");
  subrule "join vs Cartesian (fig6): pairs produced";
  List.iter
    (fun ((label : string), (sc : S.Figures.t)) ->
      Printf.printf "  %-20s : %d pair(s)\n" label
        (Node.count_elements (Engine.run sc.mapping S.Deptdb.instance) "project-emp"))
    [
      ("join in a CPT", S.Figures.fig6);
      ("per-dept Cartesian", S.Figures.fig6_cartesian);
      ("global Cartesian", S.Figures.fig6_global);
    ];
  subrule "skeleton walk-up (fig10): nested mapping roots";
  Printf.printf "  baseline             : %d root(s)\n"
    (List.length (Clip_clio.Generate.forest S.Generic.mapping));
  Printf.printf "  with the extension   : %d root(s)\n"
    (List.length (Clip_clio.Generate.forest ~extension:true S.Generic.mapping))

(* --- Scaling series (ours) -------------------------------------------------------- *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  (x, t1 -. t0)

let scaling_experiment () =
  rule "Scaling — execution time vs instance size (fig5 mapping, both backends)";
  Printf.printf "%-8s | %-10s | %-12s | %-14s | %s\n" "depts" "src nodes"
    "tgd backend" "xquery backend" "output nodes";
  print_endline (String.make 70 '-');
  List.iter
    (fun depts ->
      let doc = S.Deptdb.synthetic_instance ~depts ~projs:5 ~emps:10 in
      let out, t_tgd = time_once (fun () -> Engine.run S.Figures.fig5.mapping doc) in
      let _, t_xq =
        time_once (fun () -> Engine.run ~backend:`Xquery S.Figures.fig5.mapping doc)
      in
      Printf.printf "%-8d | %-10d | %9.3f ms | %11.3f ms | %d\n" depts
        (Node.size doc) (t_tgd *. 1000.) (t_xq *. 1000.) (Node.size out))
    [ 10; 50; 100; 500; 1000 ];
  rule "Scaling — grouping (fig7 mapping)";
  Printf.printf "%-8s | %-10s | %-12s\n" "depts" "src nodes" "tgd backend";
  print_endline (String.make 36 '-');
  List.iter
    (fun depts ->
      let doc = S.Deptdb.synthetic_instance ~depts ~projs:5 ~emps:10 in
      let _, t = time_once (fun () -> Engine.run S.Figures.fig7.mapping doc) in
      Printf.printf "%-8d | %-10d | %9.3f ms\n" depts (Node.size doc) (t *. 1000.))
    [ 10; 50; 100; 500 ]

(* --- Plan layer: naive vs indexed (ours) -------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The current git commit, so BENCH_plan.json is traceable to the tree
   that produced it. Read straight from [.git] — the harness must not
   depend on a [git] binary being present. *)
let git_commit () =
  let read_file path =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
  in
  match read_file ".git/HEAD" with
  | exception _ -> "unknown"
  | head ->
    let head = String.trim head in
    (match String.length head >= 5 && String.sub head 0 5 = "ref: " with
     | false -> head (* detached HEAD *)
     | true ->
       let r = String.sub head 5 (String.length head - 5) in
       (match String.trim (read_file (".git/" ^ r)) with
        | sha -> sha
        | exception _ ->
          (* loose ref absent: scan packed-refs *)
          (match
             let ic = open_in ".git/packed-refs" in
             Fun.protect
               ~finally:(fun () -> close_in ic)
               (fun () ->
                 let found = ref "unknown" in
                 (try
                    while true do
                      let line = input_line ic in
                      match String.index_opt line ' ' with
                      | Some i when String.sub line (i + 1) (String.length line - i - 1) = r ->
                        found := String.sub line 0 i
                      | _ -> ()
                    done
                  with End_of_file -> ());
                 !found)
           with
           | sha -> sha
           | exception _ -> "unknown")))

let median_of ts =
  let sorted = List.sort compare ts in
  List.nth sorted (List.length ts / 2)

let min_of ts = List.fold_left Float.min Float.infinity ts

(* Per-rep speedup of [den] over [num], summarised by its median. The
   two time lists are aligned rep-by-rep (candidates of one rep run
   back-to-back), so machine-load drift hits both sides of each ratio
   and cancels — far more robust than a ratio of medians. *)
let paired_speedup num den =
  median_of (List.map2 (fun n d -> n /. Float.max d 1e-9) num den)

(* Per-call ms for each of [fs], per timed repetition (aligned lists,
   one per candidate, oldest rep first). Precautions against
   systematic error: each rep batches enough calls to last ~2 ms, so
   microsecond-scale scenarios are not measured at clock resolution;
   each rep times every candidate before the next rep starts, so slow
   drift (heap growth, frequency scaling) spreads over all candidates;
   and the in-rep order rotates, so no candidate always runs last. *)
let interleaved_reps n fs =
  let calibrated =
    List.map
      (fun f ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        let once = Unix.gettimeofday () -. t0 in
        (f, max 1 (min 512 (int_of_float (0.002 /. Float.max once 1e-9)))))
      fs
  in
  let items = List.mapi (fun i (f, inner) -> (i, f, inner)) calibrated in
  let times = Array.make (List.length fs) [] in
  for r = 0 to n - 1 do
    let k = r mod List.length items in
    let rotated =
      List.filteri (fun j _ -> j >= k) items
      @ List.filteri (fun j _ -> j < k) items
    in
    List.iter
      (fun (i, f, inner) ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to inner do
          ignore (f ())
        done;
        let per_call =
          (Unix.gettimeofday () -. t0) *. 1000. /. float_of_int inner
        in
        times.(i) <- per_call :: times.(i))
      rotated
  done;
  Array.to_list (Array.map List.rev times)


(* One measured row: a scenario run on one backend in all three plan
   modes, [reps] times each; times are medians with the min kept. *)
type plan_row = {
  r_figure : string;
  r_backend : string;
  r_scale : int; (* 0 = the paper instance *)
  r_src_nodes : int;
  r_identical : bool; (* Node.equal across all three modes *)
  r_agree : bool; (* Node.equal_unordered *)
  r_naive_ms : float;
  r_indexed_ms : float;
  r_auto_ms : float;
  r_naive_min_ms : float;
  r_indexed_min_ms : float;
  r_auto_min_ms : float;
  r_naive_steps : int;
  r_indexed_steps : int;
  r_auto_steps : int;
  r_speedup : float; (* naive vs forced-index, paired median *)
  r_auto_speedup : float; (* naive vs auto, paired median *)
  r_auto_speedup_min : float; (* naive vs auto, ratio of minima *)
  r_auto_vs_best : float; (* per-rep best forced mode vs auto, paired *)
}

let speedup r = r.r_speedup
let auto_speedup r = r.r_auto_speedup

(* The regression guard takes the better of the paired-median and
   min-based estimates, so a single noisy outlier rep cannot fail
   CI. *)
let auto_speedup_min r = r.r_auto_speedup_min

(* The backend evaluator alone, over a tgd compiled (and, on xquery, a
   query translated) once, here: what a timed loop runs when the
   per-call compile would swamp what it measures. Statistics, physical
   plans and the tag index are still built on every call. *)
let evaluator ~limits ~(backend : [ `Tgd | `Xquery ]) (sc : S.Figures.t) doc =
  let m = sc.mapping in
  let target_root = m.target.root.name in
  let tgd = ok (Clip_core.Compile.to_tgd_result m) in
  match backend with
  | `Tgd ->
    fun ~obs ~plan ->
      ok
        (Clip_tgd.Eval.run_result ~limits
           ~minimum_cardinality:sc.minimum_cardinality ~plan ?obs ~source:doc
           ~target_root tgd)
  | `Xquery ->
    let q = ok (Clip_core.To_xquery.translate_result ~target_root tgd) in
    fun ~obs ~plan ->
      ok (Clip_xquery.Eval.run_document_result ~limits ~plan ?obs ~input:doc q)

let backend_name = function `Tgd -> "tgd" | `Xquery -> "xquery"

let plan_experiment ?(smoke = false) ?(check = false) () =
  rule
    (Printf.sprintf "Plan layer — naive vs indexed vs auto execution%s"
       (if smoke then " (smoke)" else ""));
  let reps = if smoke then 3 else 9 in
  let limits = Clip_diag.Limits.unlimited in
  let run_mode ?ctx (sc : S.Figures.t) ~backend ~plan doc =
    match
      Engine.run_result ?ctx ~limits ~backend
        ~minimum_cardinality:sc.minimum_cardinality ~plan sc.mapping doc
    with
    | Ok out -> out
    | Error ds ->
      List.iter (fun d -> prerr_endline (Clip_diag.to_string d)) ds;
      Printf.eprintf "plan bench: %s failed\n" sc.name;
      exit 1
  in
  (* Outputs and step counts come from whole engine runs under a
     counting context; the timed loop below runs the evaluator only. *)
  let counters = Clip_obs.Counters.create () in
  let counting = Clip_run.create ~counters () in
  let counted sc ~backend ~plan doc =
    Clip_obs.Counters.reset counters;
    let out = run_mode ~ctx:counting sc ~backend ~plan doc in
    (out, counters.lim_ticks)
  in
  let measure (sc : S.Figures.t) ~backend ~scale doc =
    let bname = backend_name backend in
    let engine_backend = (backend :> Engine.backend) in
    let out_n, steps_n = counted sc ~backend:engine_backend ~plan:`Naive doc in
    let out_i, steps_i = counted sc ~backend:engine_backend ~plan:`Indexed doc in
    let out_a, steps_a = counted sc ~backend:engine_backend ~plan:`Auto doc in
    let eval = evaluator ~limits ~backend sc doc in
    let timed plan () = eval ~obs:None ~plan in
    (* Cheap rows still gate on per-row ratios; microsecond-scale
       documents get extra medians (they cost almost nothing, and the
       smoke rep count alone is too fragile there). *)
    let reps = if Node.size doc < 1000 then max reps 7 else reps in
    let tn, ti, ta =
      match interleaved_reps reps [ timed `Naive; timed `Indexed; timed `Auto ] with
      | [ n; i; a ] -> (n, i, a)
      | _ -> assert false
    in
    {
      r_figure = sc.name;
      r_backend = bname;
      r_scale = scale;
      r_src_nodes = Node.size doc;
      r_identical = Node.equal out_n out_i && Node.equal out_n out_a;
      r_agree =
        Node.equal_unordered out_n out_i && Node.equal_unordered out_n out_a;
      r_naive_ms = median_of tn;
      r_indexed_ms = median_of ti;
      r_auto_ms = median_of ta;
      r_naive_min_ms = min_of tn;
      r_indexed_min_ms = min_of ti;
      r_auto_min_ms = min_of ta;
      r_naive_steps = steps_n;
      r_indexed_steps = steps_i;
      r_auto_steps = steps_a;
      r_speedup = paired_speedup tn ti;
      r_auto_speedup = paired_speedup tn ta;
      r_auto_speedup_min = min_of tn /. Float.max (min_of ta) 1e-9;
      (* Pick the better forced mode first (by median), then compare
         against that mode only. A per-rep min of the two forced modes
         would bias the baseline low — the minimum of two noisy
         measurements systematically underestimates. Interference on
         this machine only ever adds time, so alongside the paired
         median we take each side's min rep (its least-contaminated
         measurement) and keep the better of the two estimates. *)
      r_auto_vs_best =
        (let best = if median_of tn <= median_of ti then tn else ti in
         Float.max (paired_speedup best ta)
           (min_of best /. Float.max (min_of ta) 1e-9));
    }
  in
  subrule "figure scenarios on the paper instance (output agreement)";
  let figure_rows =
    List.concat_map
      (fun (sc : S.Figures.t) ->
        let backends =
          if sc.minimum_cardinality then [ `Tgd; `Xquery ] else [ `Tgd ]
        in
        List.map
          (fun backend -> measure sc ~backend ~scale:0 S.Deptdb.instance)
          backends)
      S.Figures.all
  in
  Printf.printf "%-18s | %-7s | %-9s | %-11s | %-13s | %-10s | %s\n" "figure"
    "backend" "identical" "naive steps" "indexed steps" "auto steps"
    "auto speedup";
  print_endline (String.make 100 '-');
  List.iter
    (fun r ->
      Printf.printf "%-18s | %-7s | %-9b | %-11d | %-13d | %-10d | %6.2fx\n"
        r.r_figure r.r_backend r.r_identical r.r_naive_steps r.r_indexed_steps
        r.r_auto_steps
        (Float.max (auto_speedup r) (auto_speedup_min r)))
    figure_rows;
  subrule "scaled synthetic deptdb (medians of wall-clock, step counts)";
  let scales = if smoke then [ 1; 10 ] else [ 1; 10; 100 ] in
  let scaling_rows =
    List.concat_map
      (fun ((sc : S.Figures.t), backends) ->
        List.concat_map
          (fun scale ->
            let doc =
              S.Deptdb.synthetic_instance ~depts:(2 * scale) ~projs:5 ~emps:10
            in
            List.map (fun backend -> measure sc ~backend ~scale doc) backends)
          scales)
      [
        (S.Figures.fig5, [ `Tgd ]);
        (S.Figures.fig6, [ `Tgd; `Xquery ]);
        (S.Figures.fig6_join_global, [ `Tgd; `Xquery ]);
        (S.Figures.fig7, [ `Tgd ]);
      ]
  in
  Printf.printf
    "%-8s | %-7s | %-6s | %-10s | %-10s | %-10s | %-9s | %-9s | %-9s | %s\n"
    "figure" "backend" "scale" "naive ms" "indexed ms" "auto ms" "idx spdup"
    "auto spdup" "vs best" "auto steps";
  print_endline (String.make 112 '-');
  List.iter
    (fun r ->
      Printf.printf
        "%-8s | %-7s | %-6d | %10.3f | %10.3f | %10.3f | %8.1fx | %8.1fx | \
         %8.2fx | %d\n"
        r.r_figure r.r_backend r.r_scale r.r_naive_ms r.r_indexed_ms r.r_auto_ms
        (speedup r) (auto_speedup r) r.r_auto_vs_best r.r_auto_steps)
    scaling_rows;
  let all_agree =
    List.for_all (fun r -> r.r_agree) (figure_rows @ scaling_rows)
  in
  let best =
    List.fold_left
      (fun acc r -> if auto_speedup r > auto_speedup acc then r else acc)
      (List.hd scaling_rows) scaling_rows
  in
  let commit = git_commit () in
  Printf.printf "\nall outputs agree (order-insensitive): %b\n" all_agree;
  Printf.printf "best auto speedup: %.1fx (%s/%s at scale %dx)\n"
    (auto_speedup best) best.r_figure best.r_backend best.r_scale;
  let row_json r =
    Printf.sprintf
      "{\"figure\": %s, \"backend\": %s, \"scale\": %d, \"src_nodes\": %d, \
       \"identical\": %b, \"agree\": %b, \"naive_ms\": %.3f, \"indexed_ms\": \
       %.3f, \"auto_ms\": %.3f, \"naive_min_ms\": %.3f, \"indexed_min_ms\": \
       %.3f, \"auto_min_ms\": %.3f, \"speedup\": %.2f, \"auto_speedup\": %.2f, \
       \"auto_speedup_min\": %.2f, \"auto_vs_best\": %.2f, \"naive_steps\": \
       %d, \"indexed_steps\": %d, \"auto_steps\": %d}"
      (json_string r.r_figure) (json_string r.r_backend) r.r_scale r.r_src_nodes
      r.r_identical r.r_agree r.r_naive_ms r.r_indexed_ms r.r_auto_ms
      r.r_naive_min_ms r.r_indexed_min_ms r.r_auto_min_ms (speedup r)
      (auto_speedup r) (auto_speedup_min r) r.r_auto_vs_best r.r_naive_steps
      r.r_indexed_steps r.r_auto_steps
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf (Printf.sprintf "  \"commit\": %s,\n" (json_string commit));
  Buffer.add_string buf (Printf.sprintf "  \"reps\": %d,\n" reps);
  Buffer.add_string buf (Printf.sprintf "  \"all_agree\": %b,\n" all_agree);
  Buffer.add_string buf "  \"figures\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map (fun r -> "    " ^ row_json r) figure_rows));
  Buffer.add_string buf "\n  ],\n  \"scaling\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map (fun r -> "    " ^ row_json r) scaling_rows));
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_plan.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_plan.json (%d rows, commit %s)\n"
    (List.length figure_rows + List.length scaling_rows)
    commit;
  if check then begin
    (* The CI regression guard: every output must agree across modes,
       and [`Auto] must stay within 0.8x of naive on every paper-scale
       figure row (the better of median- and min-based speedups, so
       one preempted run cannot flake the build). *)
    let slow =
      List.filter
        (fun r -> Float.max (auto_speedup r) (auto_speedup_min r) < 0.8)
        figure_rows
    in
    if not all_agree then begin
      prerr_endline "plan bench check FAILED: outputs disagree across plan modes";
      exit 1
    end;
    if slow <> [] then begin
      List.iter
        (fun r ->
          Printf.eprintf
            "plan bench check FAILED: %s/%s auto %.2fx (min-based %.2fx) < 0.8x of naive\n"
            r.r_figure r.r_backend (auto_speedup r) (auto_speedup_min r))
        slow;
      exit 1
    end;
    print_endline "plan bench check passed"
  end

(* --- Observability: counters, invariants, disabled-path overhead (ours) ------------- *)

(* One scenario's counters under every plan mode, plus the invariant
   verdicts CI gates on. Counters come from one engine run each. *)
type obs_row = {
  o_figure : string;
  o_backend : string;
  o_scale : int;
  o_naive : Clip_obs.Counters.t;
  o_indexed : Clip_obs.Counters.t;
  o_auto : Clip_obs.Counters.t;
  o_auto_direct : bool; (* the Auto EXPLAIN claims the direct interpreter *)
  o_violations : string list;
}

type overhead_row = {
  v_name : string;
  v_disabled_ms : float;
  v_enabled_ms : float;
  v_disabled_min_ms : float;
  v_enabled_min_ms : float;
  v_enabled_ratio : float;
      (* enabled/disabled: better of paired median and minima.
         Informational — the enabled path does real extra work (the
         guarded increment arguments), so it is not the gated number. *)
  v_hooks : int; (* instrumentation hook executions in one run (upper bound) *)
  v_bound_pct : float; (* gated: hooks * per-hook disabled cost / run time *)
}

let obs_experiment ?(smoke = false) ?(check = false) ?(metrics_json = false) () =
  rule
    (Printf.sprintf
       "Observability — counters, invariants, disabled-path overhead%s"
       (if smoke then " (smoke)" else ""));
  let limits = Clip_diag.Limits.unlimited in
  let run_counted (sc : S.Figures.t) ~backend ~plan doc =
    let c = Clip_obs.Counters.create () in
    match
      Engine.run_result ~ctx:(Clip_run.create ~counters:c ()) ~limits ~backend
        ~minimum_cardinality:sc.minimum_cardinality ~plan sc.mapping doc
    with
    | Ok out -> (out, c)
    | Error ds ->
      List.iter (fun d -> prerr_endline (Clip_diag.to_string d)) ds;
      Printf.eprintf "obs bench: %s failed\n" sc.name;
      exit 1
  in
  let measure_row (sc : S.Figures.t) ~backend ~scale doc =
    let bname = backend_name backend in
    let backend = (backend :> Engine.backend) in
    let out_n, cn = run_counted sc ~backend ~plan:`Naive doc in
    let out_i, ci = run_counted sc ~backend ~plan:`Indexed doc in
    let out_a, ca = run_counted sc ~backend ~plan:`Auto doc in
    let auto_direct =
      (* The EXPLAIN claim for the same (mapping, backend, document):
         below the planning threshold [`Auto] runs the direct
         interpreter, and its work counters must say so too. *)
      let txt = ok (Engine.explain_result ~backend ~plan:`Auto sc.mapping doc) in
      let needle = "direct interpreter" in
      let n = String.length needle and l = String.length txt in
      let rec has i =
        i + n <= l && (String.sub txt i n = needle || has (i + 1))
      in
      has 0
    in
    let violations = ref [] in
    let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
    if not (Node.equal_unordered out_n out_i && Node.equal_unordered out_n out_a)
    then bad "outputs disagree across plan modes";
    if ci.Clip_obs.Counters.nodes_scanned > cn.Clip_obs.Counters.nodes_scanned
    then
      bad "indexed scans %d nodes > naive's %d"
        ci.Clip_obs.Counters.nodes_scanned cn.Clip_obs.Counters.nodes_scanned;
    if cn.Clip_obs.Counters.index_probes <> 0
       || cn.Clip_obs.Counters.index_hits <> 0
    then
      bad "naive mode touched the index (%d probes, %d hits)"
        cn.Clip_obs.Counters.index_probes cn.Clip_obs.Counters.index_hits;
    List.iter
      (fun (mode, (c : Clip_obs.Counters.t)) ->
        if c.index_hits > c.index_probes then
          bad "%s: index hits %d > probes %d" mode c.index_hits c.index_probes)
      [ ("naive", cn); ("indexed", ci); ("auto", ca) ];
    if auto_direct then begin
      if Clip_obs.Counters.work_assoc ca <> Clip_obs.Counters.work_assoc cn then
        bad "auto claims the direct interpreter but its work counters differ \
             from naive's"
    end
    else if ca.Clip_obs.Counters.nodes_scanned > cn.Clip_obs.Counters.nodes_scanned
    then
      bad "auto (planned) scans %d nodes > naive's %d"
        ca.Clip_obs.Counters.nodes_scanned cn.Clip_obs.Counters.nodes_scanned;
    {
      o_figure = sc.name;
      o_backend = bname;
      o_scale = scale;
      o_naive = cn;
      o_indexed = ci;
      o_auto = ca;
      o_auto_direct = auto_direct;
      o_violations = List.rev !violations;
    }
  in
  subrule "counters per figure and backend (paper instance and scaled)";
  let rows =
    List.concat_map
      (fun (sc : S.Figures.t) ->
        let backends =
          if sc.minimum_cardinality then [ `Tgd; `Xquery ] else [ `Tgd ]
        in
        List.map
          (fun backend -> measure_row sc ~backend ~scale:0 S.Deptdb.instance)
          backends)
      S.Figures.all
    @
    let scale = if smoke then 4 else 10 in
    let doc = S.Deptdb.synthetic_instance ~depts:(2 * scale) ~projs:5 ~emps:10 in
    List.concat_map
      (fun ((sc : S.Figures.t), backends) ->
        List.map (fun backend -> measure_row sc ~backend ~scale doc) backends)
      [
        (S.Figures.fig5, [ `Tgd ]);
        (S.Figures.fig6, [ `Tgd; `Xquery ]);
        (S.Figures.fig7, [ `Tgd ]);
      ]
  in
  Printf.printf "%-18s | %-7s | %-5s | %-17s | %-13s | %-11s | %-6s | %s\n"
    "figure" "backend" "scale" "scans n/i/a" "probes i/a" "hits i/a" "direct"
    "violations";
  print_endline (String.make 104 '-');
  List.iter
    (fun r ->
      Printf.printf "%-18s | %-7s | %-5d | %5d/%5d/%5d | %6d/%6d | %5d/%5d | %-6b | %d\n"
        r.o_figure r.o_backend r.o_scale r.o_naive.Clip_obs.Counters.nodes_scanned
        r.o_indexed.Clip_obs.Counters.nodes_scanned
        r.o_auto.Clip_obs.Counters.nodes_scanned
        r.o_indexed.Clip_obs.Counters.index_probes
        r.o_auto.Clip_obs.Counters.index_probes
        r.o_indexed.Clip_obs.Counters.index_hits
        r.o_auto.Clip_obs.Counters.index_hits r.o_auto_direct
        (List.length r.o_violations))
    rows;
  let all_violations =
    List.concat_map
      (fun r ->
        List.map
          (fun v -> Printf.sprintf "%s/%s: %s" r.o_figure r.o_backend v)
          r.o_violations)
      rows
  in
  List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) all_violations;
  Printf.printf "\ncounter invariants hold on all %d rows: %b\n" (List.length rows)
    (all_violations = []);
  subrule "trace spans (one cold fig6 run, xquery backend)";
  let tracer = Clip_obs.Trace.create ~now:Unix.gettimeofday () in
  ignore
    (Engine.run_result
       ~ctx:(Clip_run.create ~tracer ())
       ~backend:`Xquery S.Figures.fig6.mapping S.Deptdb.instance);
  print_string (Clip_obs.Trace.render tracer);
  subrule "disabled-path overhead (per-hook cost x hook count, bounded)";
  (* The true no-instrumentation build no longer exists in this tree,
     and a wall-clock A/B of sub-millisecond runs cannot resolve a
     sub-percent effect, so the gate is computed, not raced: measure
     the per-call cost of one disabled hook (a ref load plus a branch)
     in a tight loop, count how many hooks one run executes (from the
     counters themselves, rounded up), and bound the disabled-path
     overhead by their product over the run's fastest observed time.
     Every term is conservative: the hook loop pays full call overhead,
     [nodes_scanned] counts nodes where the code makes one call, and
     the fastest run minimises the denominator. The enabled/disabled
     wall-clock ratio is still reported for context, but the enabled
     path does real extra work (guarded increment arguments), so it is
     not the gated number. *)
  let hook_ns =
    let n = 2_000_000 in
    let once f =
      let t0 = Unix.gettimeofday () in
      f ();
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n
    in
    let hook_loop () =
      let sink = Sys.opaque_identity Clip_obs.none in
      for _ = 1 to n do
        Clip_obs.child_step sink
      done
    in
    let base_loop () =
      for _ = 1 to n do
        ignore (Sys.opaque_identity 0)
      done
    in
    let reps = 7 in
    let best f =
      let m = ref Float.infinity in
      for _ = 1 to reps do
        m := Float.min !m (once f)
      done;
      !m
    in
    Float.max 0. (best hook_loop -. best base_loop)
  in
  Printf.printf "per-hook disabled cost: %.2f ns\n" hook_ns;
  let reps = if smoke then 9 else 15 in
  let oh_scale = if smoke then 4 else 10 in
  let oh_doc =
    S.Deptdb.synthetic_instance ~depts:(2 * oh_scale) ~projs:5 ~emps:10
  in
  let overhead_rows =
    List.map
      (fun ((name : string), (sc : S.Figures.t), backend) ->
        (* The evaluator alone, as in the plan bench: the hooks fire
           during evaluation, so that is the time they are set
           against. *)
        let eval =
          evaluator ~limits:Clip_diag.Limits.default ~backend sc oh_doc
        in
        let run ?obs () = eval ~obs ~plan:`Auto in
        let hooks =
          let c = Clip_obs.Counters.create () in
          ignore (run ~obs:c ());
          (* Upper bound on hook executions: every counter unit as one
             call (actually fewer — [scanned] adds a whole batch per
             call), plus one [enabled] guard per child step and index
             probe. *)
          List.fold_left
            (fun acc (_, v) -> acc + v)
            0
            (Clip_obs.Counters.to_assoc c)
          + c.Clip_obs.Counters.child_steps
          + c.Clip_obs.Counters.index_probes
        in
        let c = Clip_obs.Counters.create () in
        let enabled_f () = run ~obs:c () in
        let td, te =
          match interleaved_reps reps [ (fun () -> run ()); enabled_f ] with
          | [ d; e ] -> (d, e)
          | _ -> assert false
        in
        let disabled_min = min_of td in
        {
          v_name = name;
          v_disabled_ms = median_of td;
          v_enabled_ms = median_of te;
          v_disabled_min_ms = disabled_min;
          v_enabled_min_ms = min_of te;
          v_enabled_ratio =
            Float.min (paired_speedup te td)
              (min_of te /. Float.max disabled_min 1e-9);
          v_hooks = hooks;
          v_bound_pct =
            float_of_int hooks *. hook_ns
            /. Float.max (disabled_min *. 1e6) 1e-9
            *. 100.;
        })
      [
        ("fig5/tgd", S.Figures.fig5, `Tgd);
        ("fig6/xquery", S.Figures.fig6, `Xquery);
        ("fig7/tgd", S.Figures.fig7, `Tgd);
      ]
  in
  Printf.printf "%-14s | %-11s | %-11s | %-13s | %-6s | %s\n" "scenario"
    "disabled ms" "enabled ms" "enabled ratio" "hooks" "disabled bound";
  print_endline (String.make 80 '-');
  List.iter
    (fun v ->
      Printf.printf "%-14s | %11.3f | %11.3f | %+11.1f%% | %-6d | %5.2f%%\n"
        v.v_name v.v_disabled_ms v.v_enabled_ms
        ((v.v_enabled_ratio -. 1.) *. 100.)
        v.v_hooks v.v_bound_pct)
    overhead_rows;
  let threshold_pct = 5.0 in
  let slow = List.filter (fun v -> v.v_bound_pct > threshold_pct) overhead_rows in
  Printf.printf "\nall scenarios within the %.0f%% disabled-overhead budget: %b\n"
    threshold_pct (slow = []);
  if metrics_json then begin
    let counters_json c = Clip_obs.Counters.to_json c in
    let row_json r =
      Printf.sprintf
        "{\"figure\": %s, \"backend\": %s, \"scale\": %d, \"auto_direct\": %b, \
         \"violations\": [%s], \"naive\": %s, \"indexed\": %s, \"auto\": %s}"
        (json_string r.o_figure) (json_string r.o_backend) r.o_scale
        r.o_auto_direct
        (String.concat ", " (List.map json_string r.o_violations))
        (counters_json r.o_naive) (counters_json r.o_indexed)
        (counters_json r.o_auto)
    in
    let overhead_json v =
      Printf.sprintf
        "{\"scenario\": %s, \"disabled_ms\": %.4f, \"enabled_ms\": %.4f, \
         \"disabled_min_ms\": %.4f, \"enabled_min_ms\": %.4f, \
         \"enabled_ratio\": %.4f, \"hooks\": %d, \"hook_ns\": %.2f, \
         \"disabled_bound_pct\": %.4f}"
        (json_string v.v_name) v.v_disabled_ms v.v_enabled_ms
        v.v_disabled_min_ms v.v_enabled_min_ms v.v_enabled_ratio v.v_hooks
        hook_ns v.v_bound_pct
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
    Buffer.add_string buf
      (Printf.sprintf "  \"commit\": %s,\n" (json_string (git_commit ())));
    Buffer.add_string buf (Printf.sprintf "  \"reps\": %d,\n" reps);
    Buffer.add_string buf
      (Printf.sprintf "  \"overhead_threshold_pct\": %.2f,\n" threshold_pct);
    Buffer.add_string buf
      (Printf.sprintf "  \"invariants_hold\": %b,\n" (all_violations = []));
    Buffer.add_string buf "  \"rows\": [\n";
    Buffer.add_string buf
      (String.concat ",\n" (List.map (fun r -> "    " ^ row_json r) rows));
    Buffer.add_string buf "\n  ],\n  \"overhead\": [\n";
    Buffer.add_string buf
      (String.concat ",\n"
         (List.map (fun v -> "    " ^ overhead_json v) overhead_rows));
    Buffer.add_string buf "\n  ],\n  \"trace\": ";
    Buffer.add_string buf (Clip_obs.Trace.to_json tracer);
    Buffer.add_string buf "\n}\n";
    let oc = open_out "BENCH_obs.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote BENCH_obs.json (%d counter rows, %d overhead rows)\n"
      (List.length rows) (List.length overhead_rows)
  end;
  if check then begin
    if all_violations <> [] then begin
      List.iter
        (fun v -> Printf.eprintf "obs bench check FAILED: %s\n" v)
        all_violations;
      exit 1
    end;
    if slow <> [] then begin
      List.iter
        (fun v ->
          Printf.eprintf
            "obs bench check FAILED: %s disabled-path overhead bound %.2f%% > \
             %.0f%% (%d hooks at %.2f ns over %.3f ms)\n"
            v.v_name v.v_bound_pct threshold_pct v.v_hooks hook_ns
            v.v_disabled_min_ms)
        slow;
      exit 1
    end;
    print_endline "obs bench check passed"
  end

(* --- Parallel batch evaluation (Clip_par) ------------------------------------------- *)

let par_experiment ?(smoke = false) ?(check = false) () =
  rule
    (Printf.sprintf "Parallel batch evaluation — Clip_par work-pool%s"
       (if smoke then " (smoke)" else ""));
  let cores = Domain.recommended_domain_count () in
  let jobs = 4 in
  Printf.printf "recommended domains on this machine: %d (pool: %d workers)\n"
    cores jobs;
  (* One task = one document, with its own context.
     Rendering inside the task is what the CLI does, so "byte-identical
     stdout" is literally what the string comparison below checks. *)
  let eval (sc : S.Figures.t) ~backend ~plan ~obs doc =
    let ctx = Clip_run.create ?counters:obs () in
    Clip_xml.Printer.to_pretty_string
      (Engine.run ~ctx ~backend
         ~minimum_cardinality:sc.minimum_cardinality ~plan sc.mapping doc)
  in
  (* A batch where every document is different, so an ordering or
     task-mixup bug cannot hide behind identical outputs. *)
  let batch ~n ~scale =
    List.init n (fun i ->
        S.Deptdb.synthetic_instance
          ~depts:(2 + ((i + scale) mod 7))
          ~projs:(1 + (i mod 3))
          ~emps:(2 + (i mod 5)))
  in
  subrule
    (Printf.sprintf
       "agreement: %d-domain pool vs sequential (figures x backends, %s)" jobs
       "byte-identical output, merged counters = sequential counters")
  ;
  let agreement_rows =
    List.concat_map
      (fun (sc : S.Figures.t) ->
        let backends =
          if sc.minimum_cardinality then [ ("tgd", `Tgd); ("xquery", `Xquery) ]
          else [ ("tgd", `Tgd) ]
        in
        List.map
          (fun (bname, backend) ->
            let docs = S.Deptdb.instance :: batch ~n:7 ~scale:1 in
            let cs = Clip_obs.Counters.create () in
            let seq =
              Clip_par.map ~jobs:1 ~obs:cs
                (fun ~obs doc -> eval sc ~backend ~plan:`Auto ~obs doc)
                docs
            in
            let cp = Clip_obs.Counters.create () in
            let par =
              Clip_par.map ~jobs ~obs:cp
                (fun ~obs doc -> eval sc ~backend ~plan:`Auto ~obs doc)
                docs
            in
            let identical = seq = par in
            let counters_match =
              Clip_obs.Counters.to_assoc cs = Clip_obs.Counters.to_assoc cp
            in
            Printf.printf
              "%-18s | %-7s | identical %-5b | counters match %b\n" sc.name
              bname identical counters_match;
            (sc.name, bname, identical, counters_match))
          backends)
      S.Figures.all
  in
  let all_identical = List.for_all (fun (_, _, i, _) -> i) agreement_rows in
  let all_counters = List.for_all (fun (_, _, _, c) -> c) agreement_rows in
  Printf.printf
    "\nall outputs byte-identical: %b\nall merged counters equal sequential: %b\n"
    all_identical all_counters;
  subrule
    "degraded batch: one injected par.task fault — survivors intact, counters \
     exact";
  (* One injected permanent fault in an N-task batch must cost exactly
     that slot: the other N-1 outputs byte-identical to the fault-free
     run, and the merged counters equal to the fault-free totals of the
     survivors alone (failed attempts merge nothing). Sequential run
     pins the failing slot deterministically (hit ordinal = slot + 1);
     the pool run gates isolation, since which task claims the firing
     hit is scheduling-dependent. *)
  let dsc = S.Figures.fig6 in
  let dg_docs = S.Deptdb.instance :: batch ~n:7 ~scale:3 in
  let dg_n = List.length dg_docs in
  let dg_fail = 3 in
  let task ~obs doc =
    Clip_diag.guard (fun () -> eval dsc ~backend:`Tgd ~plan:`Auto ~obs doc)
  in
  let full =
    List.map (fun doc -> eval dsc ~backend:`Tgd ~plan:`Auto ~obs:None doc) dg_docs
  in
  let cs = Clip_obs.Counters.create () in
  ignore
    (Clip_par.map_results ~jobs:1 ~obs:cs task
       (List.filteri (fun i _ -> i <> dg_fail) dg_docs));
  let cf = Clip_obs.Counters.create () in
  Clip_fault.arm ~kind:Clip_fault.Permanent ~from:(dg_fail + 1)
    Clip_fault.Site.par_task;
  let rs = Clip_par.map_results ~jobs:1 ~obs:cf task dg_docs in
  Clip_fault.disarm ();
  let slot_ok i r =
    match r with
    | Ok s when i <> dg_fail -> String.equal s (List.nth full i)
    | Error ds when i = dg_fail ->
      List.exists
        (fun d -> String.equal d.Clip_diag.code Clip_diag.Codes.fault_permanent)
        ds
    | Ok _ | Error _ -> false
  in
  let degraded_intact = List.for_all Fun.id (List.mapi slot_ok rs) in
  let degraded_counters =
    Clip_obs.Counters.to_assoc cs = Clip_obs.Counters.to_assoc cf
  in
  Clip_fault.arm ~kind:Clip_fault.Permanent ~from:1 Clip_fault.Site.par_task;
  let rsp = Clip_par.map_results ~jobs task dg_docs in
  Clip_fault.disarm ();
  let degraded_par_isolated =
    List.length (List.filter Result.is_error rsp) = 1
    && List.for_all Fun.id
         (List.mapi
            (fun i r ->
              match r with
              | Ok s -> String.equal s (List.nth full i)
              | Error _ -> true)
            rsp)
  in
  Printf.printf
    "degraded batch (%d tasks, slot %d injected): survivors intact %b | \
     counters exact %b | %d-domain isolation %b\n"
    dg_n dg_fail degraded_intact degraded_counters jobs degraded_par_isolated;
  subrule "wall-clock: sequential vs pool on a scaled batch";
  let n_docs = if smoke then 8 else 16 in
  let scale = if smoke then 12 else 40 in
  let docs =
    List.init n_docs (fun i ->
        S.Deptdb.synthetic_instance ~depts:(scale + (i mod 3)) ~projs:5 ~emps:10)
  in
  let sc = S.Figures.fig6 in
  let run_batch j () =
    Clip_par.map ~jobs:j
      (fun ~obs doc -> eval sc ~backend:`Tgd ~plan:`Auto ~obs doc)
      docs
  in
  let reps = if smoke then 5 else 9 in
  let t_seq, t_par =
    match interleaved_reps reps [ run_batch 1; run_batch jobs ] with
    | [ s; p ] -> (s, p)
    | _ -> assert false
  in
  let speedup =
    Float.max (paired_speedup t_seq t_par)
      (min_of t_seq /. Float.max (min_of t_par) 1e-9)
  in
  Printf.printf
    "%d docs (fig6/tgd, scale %dx): sequential %.3f ms | %d domains %.3f ms | \
     %.2fx\n"
    n_docs scale (median_of t_seq) jobs (median_of t_par) speedup;
  (* The >= 2x gate needs hardware parallelism; on small machines (CI
     containers, laptops pinned to one core) we still gate determinism
     and counter merging, and record the cores so the JSON says why the
     speedup was not enforced. *)
  let speedup_enforced = cores >= 4 in
  let speedup_target = 2.0 in
  Printf.printf "speedup gate (>= %.1fx at %d domains): %s\n" speedup_target
    jobs
    (if speedup_enforced then "enforced"
     else Printf.sprintf "not enforced (%d core%s available)" cores
            (if cores = 1 then "" else "s"));
  subrule
    "single-document sharding: byte-identity, exact counter merge, \
     intra-document speedup (scale 100)";
  (* One large document instead of many small ones: the shard planner
     cuts it at the mapping's shard unit and [?jobs] domains evaluate
     the shards. Whole-document sequential output is the oracle. *)
  let shard_sc = S.Figures.fig6 in
  let shard_scale = 100 in
  let shard_doc =
    S.Deptdb.synthetic_instance ~depts:shard_scale ~projs:5 ~emps:10
  in
  let shard_budget = max 1 (Clip_shard.approx_bytes shard_doc / 16) in
  let shard_cut =
    let m = shard_sc.S.Figures.mapping in
    match
      Clip_shard.plan ~source:m.Clip_core.Mapping.source
        ~target:m.Clip_core.Mapping.target
        ~minimum_cardinality:shard_sc.minimum_cardinality
        (Clip_core.Compile.to_tgd m)
    with
    | Clip_shard.Sharded cut -> cut
    | Clip_shard.Whole reason ->
      Printf.eprintf "par bench: %s unexpectedly unshardable (%s)\n"
        shard_sc.name reason;
      exit 1
  in
  let shard_count =
    List.length (Clip_shard.shards_of_node shard_cut ~budget_bytes:shard_budget shard_doc)
  in
  let run_sharded ~mode ~jobs ~obs () =
    let ctx = Clip_run.create ?counters:obs () in
    Clip_xml.Printer.to_pretty_string
      (Engine.run ~ctx ~backend:`Tgd
         ~minimum_cardinality:shard_sc.minimum_cardinality ~mode
         ~shard_bytes:shard_budget ~jobs shard_sc.mapping shard_doc)
  in
  let c_whole = Clip_obs.Counters.create () in
  let whole_out = run_sharded ~mode:`Whole ~jobs:1 ~obs:(Some c_whole) () in
  let c_sseq = Clip_obs.Counters.create () in
  let sharded_seq = run_sharded ~mode:`Sharded ~jobs:1 ~obs:(Some c_sseq) () in
  let c_spar = Clip_obs.Counters.create () in
  let sharded_par =
    run_sharded ~mode:`Sharded ~jobs ~obs:(Some c_spar) ()
  in
  let shard_bytes_src = Clip_xml.Printer.to_string shard_doc in
  let streamed_out =
    match
      Engine.run_stream_result ~backend:`Tgd
        ~minimum_cardinality:shard_sc.minimum_cardinality ~mode:`Sharded
        ~shard_bytes:shard_budget ~jobs shard_sc.mapping
        (Clip_xml.Stream.of_string shard_bytes_src)
    with
    | Ok out -> Clip_xml.Printer.to_pretty_string out
    | Error ds ->
      "streamed run failed: " ^ String.concat "; " (List.map Clip_diag.render ds)
  in
  let shard_identical =
    String.equal whole_out sharded_seq && String.equal whole_out sharded_par
  in
  let shard_stream_identical = String.equal whole_out streamed_out in
  (* Parallel shard evaluation must merge counters to exactly the
     sequential-shard totals. (Whole-document counters are not the
     oracle here: per-shard plan selection legitimately differs.) *)
  let shard_counters_exact =
    Clip_obs.Counters.work_assoc c_sseq = Clip_obs.Counters.work_assoc c_spar
  in
  Printf.printf
    "fig6/tgd, %d depts, %d shards: sharded output byte-identical %b | \
     streamed identical %b | par counters = seq counters %b\n"
    shard_scale shard_count shard_identical shard_stream_identical
    shard_counters_exact;
  let shard_run j () = run_sharded ~mode:`Sharded ~jobs:j ~obs:None () in
  let t_s1, t_s2, t_s4 =
    match interleaved_reps reps [ shard_run 1; shard_run 2; shard_run jobs ] with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let best_speedup num den =
    Float.max (paired_speedup num den)
      (min_of num /. Float.max (min_of den) 1e-9)
  in
  let shard_speedup = best_speedup t_s1 t_s4 in
  let shard_speedup_2 = best_speedup t_s1 t_s2 in
  let shard_speedup_enforced = cores >= 4 in
  let shard_speedup_2_enforced = cores >= 2 in
  let shard_speedup_target = 2.0 in
  let shard_speedup_2_target = 1.2 in
  Printf.printf
    "one document: shards seq %.3f ms | 2 domains %.3f ms (%.2fx, gate >= \
     %.1fx %s) | %d domains %.3f ms (%.2fx, gate >= %.1fx %s)\n"
    (median_of t_s1) (median_of t_s2) shard_speedup_2 shard_speedup_2_target
    (if shard_speedup_2_enforced then "enforced" else "off: <2 cores")
    jobs (median_of t_s4) shard_speedup shard_speedup_target
    (if shard_speedup_enforced then "enforced"
     else Printf.sprintf "off: %d cores" cores);
  subrule
    "bounded memory: streaming sharded pipeline vs whole-document parse+run";
  (* Peak live words, sampled with Gc.full_major between pipeline
     steps. The whole path holds source tree + target at once; the
     streaming pipeline holds one shard + the accumulating target. The
     source bytes are live throughout both measurements and cancel in
     the baseline. *)
  let live_now () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let mem_baseline = live_now () in
  let whole_peak =
    match Clip_xml.Parser.parse_string_result shard_bytes_src with
    | Error _ -> -1
    | Ok doc ->
      let out =
        Engine.run ~backend:`Tgd
          ~minimum_cardinality:shard_sc.minimum_cardinality shard_sc.mapping
          doc
      in
      let peak = live_now () - mem_baseline in
      ignore (Sys.opaque_identity (doc, out));
      peak
  in
  let sharded_peak, merged_identical =
    let cutter =
      Clip_shard.cutter shard_cut ~budget_bytes:shard_budget
        (Clip_xml.Stream.of_string shard_bytes_src)
    in
    let merger = Clip_shard.merger ~unify:shard_cut.Clip_shard.unify in
    let rec pump peak =
      match Clip_shard.next_shard cutter with
      | Error _ | Ok (Clip_shard.Fallback_doc _) -> (-1, false)
      | Ok Clip_shard.Exhausted ->
        let ok =
          match Clip_shard.merged merger with
          | Some out ->
            String.equal whole_out (Clip_xml.Printer.to_pretty_string out)
          | None -> false
        in
        (peak, ok)
      | Ok (Clip_shard.Shard shard) ->
        let out =
          Engine.run ~backend:`Tgd
            ~minimum_cardinality:shard_sc.minimum_cardinality shard_sc.mapping
            shard
        in
        Clip_shard.merge_into merger out;
        pump (max peak (live_now () - mem_baseline))
    in
    pump 0
  in
  let mem_ratio =
    if whole_peak > 0 && sharded_peak > 0 then
      float_of_int sharded_peak /. float_of_int whole_peak
    else infinity
  in
  let mem_target = 0.5 in
  Printf.printf
    "peak live words: whole %d | sharded streaming %d | ratio %.3f (gate <= \
     %.2f) | merged output identical %b\n"
    whole_peak sharded_peak mem_ratio mem_target merged_identical;
  let commit = git_commit () in
  let row_json (figure, backend, identical, counters_match) =
    Printf.sprintf
      "{\"figure\": %s, \"backend\": %s, \"identical\": %b, \
       \"counters_match\": %b}"
      (json_string figure) (json_string backend) identical counters_match
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf (Printf.sprintf "  \"commit\": %s,\n" (json_string commit));
  Buffer.add_string buf (Printf.sprintf "  \"cores\": %d,\n" cores);
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string buf (Printf.sprintf "  \"reps\": %d,\n" reps);
  Buffer.add_string buf (Printf.sprintf "  \"batch_docs\": %d,\n" n_docs);
  Buffer.add_string buf (Printf.sprintf "  \"all_identical\": %b,\n" all_identical);
  Buffer.add_string buf
    (Printf.sprintf "  \"all_counters_match\": %b,\n" all_counters);
  Buffer.add_string buf
    (Printf.sprintf "  \"seq_ms\": %.3f,\n  \"par_ms\": %.3f,\n"
       (median_of t_seq) (median_of t_par));
  Buffer.add_string buf (Printf.sprintf "  \"speedup\": %.3f,\n" speedup);
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup_enforced\": %b,\n" speedup_enforced);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"shard\": {\"figure\": %s, \"scale\": %d, \"budget_bytes\": %d, \
        \"shards\": %d, \"identical\": %b, \"stream_identical\": %b, \
        \"counters_exact\": %b, \"seq_ms\": %.3f, \"par2_ms\": %.3f, \
        \"par%d_ms\": %.3f, \"shard_speedup\": %.3f, \"shard_speedup_2\": \
        %.3f, \"shard_speedup_enforced\": %b, \"shard_speedup_2_enforced\": \
        %b, \"whole_peak_live_words\": %d, \"sharded_peak_live_words\": %d, \
        \"mem_ratio\": %.4f, \"merged_identical\": %b},\n"
       (json_string shard_sc.name) shard_scale shard_budget shard_count
       shard_identical shard_stream_identical shard_counters_exact
       (median_of t_s1) (median_of t_s2) jobs (median_of t_s4) shard_speedup
       shard_speedup_2 shard_speedup_enforced shard_speedup_2_enforced
       whole_peak sharded_peak mem_ratio merged_identical);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"degraded\": {\"tasks\": %d, \"failed_slot\": %d, \"intact\": %b, \
        \"counters_exact\": %b, \"par_isolated\": %b},\n"
       dg_n dg_fail degraded_intact degraded_counters degraded_par_isolated);
  Buffer.add_string buf "  \"agreement\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map (fun r -> "    " ^ row_json r) agreement_rows));
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_par.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_par.json (%d agreement rows, commit %s)\n"
    (List.length agreement_rows) commit;
  if check then begin
    if not all_identical then begin
      Printf.eprintf
        "par bench check FAILED: parallel output differs from sequential\n";
      exit 1
    end;
    if not all_counters then begin
      Printf.eprintf
        "par bench check FAILED: merged counters differ from sequential\n";
      exit 1
    end;
    if not (degraded_intact && degraded_counters && degraded_par_isolated) then begin
      Printf.eprintf
        "par bench check FAILED: degraded batch (intact %b, counters %b, \
         isolated %b)\n"
        degraded_intact degraded_counters degraded_par_isolated;
      exit 1
    end;
    if speedup_enforced && speedup < speedup_target then begin
      Printf.eprintf
        "par bench check FAILED: %.2fx speedup at %d domains < %.1fx target \
         (%d cores)\n"
        speedup jobs speedup_target cores;
      exit 1
    end;
    if not (shard_identical && shard_stream_identical && merged_identical)
    then begin
      Printf.eprintf
        "par bench check FAILED: sharded output differs from whole-document \
         (tree %b, streamed %b, manual pipeline %b)\n"
        shard_identical shard_stream_identical merged_identical;
      exit 1
    end;
    if not shard_counters_exact then begin
      Printf.eprintf
        "par bench check FAILED: parallel shard counters differ from \
         sequential shard counters\n";
      exit 1
    end;
    if shard_speedup_enforced && shard_speedup < shard_speedup_target
    then begin
      Printf.eprintf
        "par bench check FAILED: %.2fx shard speedup at %d domains < %.1fx \
         target (%d cores)\n"
        shard_speedup jobs shard_speedup_target cores;
      exit 1
    end;
    if shard_speedup_2_enforced && shard_speedup_2 < shard_speedup_2_target
    then begin
      Printf.eprintf
        "par bench check FAILED: %.2fx shard speedup at 2 domains < %.1fx \
         target (%d cores)\n"
        shard_speedup_2 shard_speedup_2_target cores;
      exit 1
    end;
    if mem_ratio > mem_target then begin
      Printf.eprintf
        "par bench check FAILED: sharded peak live words %.3fx of \
         whole-document > %.2fx target (%d vs %d)\n"
        mem_ratio mem_target sharded_peak whole_peak;
      exit 1
    end;
    print_endline "par bench check passed"
  end

(* --- Mapping algebra: fused pipelines vs staged execution --------------------------- *)

let compose_experiment ?(smoke = false) ?(check = false) () =
  rule
    (Printf.sprintf "Mapping algebra — fused pipeline vs staged execution%s"
       (if smoke then " (smoke)" else ""));
  (* The identity mapping over a schema: one driven builder per
     repeating element, nested as in the schema, and an identity value
     mapping for every leaf below a repetition — the same generator the
     differential harness uses (test/test_algebra.ml). *)
  let identity (s : Clip_schema.Schema.t) : Clip_core.Mapping.t =
    let module Schema = Clip_schema.Schema in
    let module Path = Clip_schema.Path in
    let module Mapping = Clip_core.Mapping in
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
  in
  subrule "byte-identity: fused vs staged, [id_S ; figure] per figure";
  (* Every figure, paper instance: the fused composed mapping and the
     staged chain must print byte-identical documents; chains outside
     the composable fragment degrade to staged execution and must be
     byte-identical to manual staging. *)
  let identity_rows =
    List.map
      (fun (sc : S.Figures.t) ->
        let chain =
          [ identity sc.S.Figures.mapping.Clip_core.Mapping.source; sc.mapping ]
        in
        let mc = sc.minimum_cardinality in
        let fused, note =
          match Clip_algebra.Pipeline.plan chain with
          | Clip_algebra.Pipeline.Fused _ as d ->
            (true, Clip_algebra.Pipeline.decision_note d)
          | Clip_algebra.Pipeline.Staged _ as d ->
            (false, Clip_algebra.Pipeline.decision_note d)
        in
        let render = function
          | Ok out -> Clip_xml.Printer.to_pretty_string out
          | Error ds ->
            "failed: " ^ String.concat "; " (List.map Clip_diag.render ds)
        in
        let piped =
          render
            (Clip_algebra.Pipeline.run_result ~minimum_cardinality:mc chain
               S.Deptdb.instance)
        in
        let staged =
          render
            (Engine.run_staged_result ~minimum_cardinality:mc chain
               S.Deptdb.instance)
        in
        let identical = String.equal piped staged in
        Printf.printf "%-18s | %-6s | identical %b\n" sc.name
          (if fused then "fused" else "staged")
          identical;
        (sc.name, fused, identical, note))
      S.Figures.all
  in
  let all_identical = List.for_all (fun (_, _, i, _) -> i) identity_rows in
  Printf.printf "\nall outputs byte-identical: %b\n" all_identical;
  subrule
    (Printf.sprintf
       "wall-clock: fused vs staged on a 3-stage chain, scale %d"
       (if smoke then 20 else 100));
  (* [id ; id ; fig6] at scale: staged execution materialises two full
     intermediate instances before fig6 even starts; fusion collapses
     the chain to fig6 alone. *)
  let sc = S.Figures.fig6 in
  let scale = if smoke then 20 else 100 in
  let doc = S.Deptdb.synthetic_instance ~depts:scale ~projs:5 ~emps:10 in
  let id_s = identity sc.S.Figures.mapping.Clip_core.Mapping.source in
  let chain3 = [ id_s; id_s; sc.mapping ] in
  let fused_m =
    match Clip_algebra.Pipeline.plan chain3 with
    | Clip_algebra.Pipeline.Fused m -> m
    | Clip_algebra.Pipeline.Staged ds ->
      Printf.eprintf "compose bench: 3-stage chain unexpectedly staged (%s)\n"
        (String.concat "; " (List.map Clip_diag.render ds));
      exit 1
  in
  let mc = sc.minimum_cardinality in
  let run_fused () =
    Clip_xml.Printer.to_pretty_string
      (Engine.run ~minimum_cardinality:mc fused_m doc)
  in
  let run_staged () =
    match Engine.run_staged_result ~minimum_cardinality:mc chain3 doc with
    | Ok out -> Clip_xml.Printer.to_pretty_string out
    | Error ds ->
      "staged run failed: " ^ String.concat "; " (List.map Clip_diag.render ds)
  in
  let chain_identical = String.equal (run_fused ()) (run_staged ()) in
  let reps = if smoke then 5 else 9 in
  let t_fused, t_staged =
    match interleaved_reps reps [ run_fused; run_staged ] with
    | [ f; s ] -> (f, s)
    | _ -> assert false
  in
  let speedup =
    Float.max (paired_speedup t_staged t_fused)
      (min_of t_staged /. Float.max (min_of t_fused) 1e-9)
  in
  let speedup_target = 1.5 in
  Printf.printf
    "3-stage chain (%s, %d depts): fused %.3f ms | staged %.3f ms | %.2fx \
     (gate >= %.1fx) | identical %b\n"
    sc.name scale (median_of t_fused) (median_of t_staged) speedup
    speedup_target chain_identical;
  let commit = git_commit () in
  let row_json (figure, fused, identical, note) =
    Printf.sprintf
      "{\"figure\": %s, \"fused\": %b, \"identical\": %b, \"note\": %s}"
      (json_string figure) fused identical (json_string note)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf
    (Printf.sprintf "  \"commit\": %s,\n" (json_string commit));
  Buffer.add_string buf
    (Printf.sprintf "  \"chain\": {\"figure\": %s, \"stages\": %d, \"scale\": \
                     %d, \"reps\": %d, \"fused_ms\": %.3f, \"staged_ms\": \
                     %.3f, \"speedup\": %.3f, \"speedup_target\": %.1f, \
                     \"identical\": %b},\n"
       (json_string sc.name) (List.length chain3) scale reps
       (median_of t_fused) (median_of t_staged) speedup speedup_target
       chain_identical);
  Buffer.add_string buf
    (Printf.sprintf "  \"all_identical\": %b,\n" all_identical);
  Buffer.add_string buf "  \"figures\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map (fun r -> "    " ^ row_json r) identity_rows));
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_compose.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_compose.json (%d figure rows, commit %s)\n"
    (List.length identity_rows) commit;
  (* Byte-identity is the correctness oracle: enforced on every run,
     not only under --check. *)
  if not (all_identical && chain_identical) then begin
    Printf.eprintf
      "compose bench FAILED: fused output differs from staged (figures %b, \
       3-stage chain %b)\n"
      all_identical chain_identical;
    exit 1
  end;
  if check then begin
    if speedup < speedup_target then begin
      Printf.eprintf
        "compose bench check FAILED: fused %.2fx over staged < %.1fx target\n"
        speedup speedup_target;
      exit 1
    end;
    print_endline "compose bench check passed"
  end

(* --- Bechamel micro-benchmarks ------------------------------------------------------ *)

let perf_experiment () =
  rule "Bechamel micro-benchmarks (time per run)";
  (* Build all the benchmark thunks before opening Bechamel (whose [S]
     module would shadow the scenarios alias). *)
  let mid = S.Deptdb.synthetic_instance ~depts:50 ~projs:5 ~emps:10 in
  let figure_cases =
    List.concat_map
      (fun (sc : S.Figures.t) ->
        [
          (sc.name ^ "/compile", fun () -> ignore (Clip_core.Compile.to_tgd sc.mapping));
          (sc.name ^ "/run-tgd", fun () -> ignore (Engine.run sc.mapping mid));
          ( sc.name ^ "/run-xquery",
            fun () -> ignore (Engine.run ~backend:`Xquery sc.mapping mid) );
        ])
      [ S.Figures.fig3; S.Figures.fig5; S.Figures.fig6; S.Figures.fig7; S.Figures.fig9 ]
  in
  let mid_text = Clip_xml.Printer.to_string mid in
  let fig1_values = S.Figures.fig1_values in
  let fig7_mapping = S.Figures.fig7.mapping in
  let paper_instance = S.Deptdb.instance in
  let source_schema = S.Deptdb.source in
  let other_cases =
    [
      ( "table1/flexibility-this-paper",
        fun () ->
          ignore (Clip_clio.Enumerate.flexibility ~instance:paper_instance fig1_values)
      );
      ( "clio/generate-baseline",
        fun () -> ignore (Clip_clio.Generate.generate fig1_values) );
      ( "clio/generate-extension",
        fun () -> ignore (Clip_clio.Generate.generate ~extension:true fig1_values) );
      ("xquery/generate-text", fun () -> ignore (Engine.xquery_text fig7_mapping));
      ("xml/parse-instance", fun () -> ignore (Clip_xml.Parser.parse_string mid_text));
      ( "schema/validate-instance",
        fun () ->
          ignore (Clip_schema.Validate.check ~check_refs:false source_schema mid) );
      ( "fig5/run-xquery-text",
        let fig5 = S.Figures.fig5.mapping in
        fun () -> ignore (Engine.run ~backend:`Xquery_text fig5 mid) );
      ( "fig5/run-traced",
        let fig5 = S.Figures.fig5.mapping in
        fun () -> ignore (Engine.run_traced_result fig5 mid) );
      ( "matcher/suggest",
        let tgt = S.Deptdb.target_dp in
        fun () -> ignore (Clip_clio.Matcher.suggest source_schema tgt) );
      ( "xsd/roundtrip",
        let xsd_text = Clip_schema.Xsd.to_string source_schema in
        fun () -> ignore (Clip_schema.Xsd.of_string xsd_text) );
    ]
  in
  let open Bechamel in
  let open Toolkit in
  let figure_tests =
    List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) figure_cases
  in
  let other_tests =
    List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) other_cases
  in
  let grouped = Test.make_grouped ~name:"clip" (figure_tests @ other_tests) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
  in
  Printf.printf "%-40s | %s\n" "benchmark" "time/run";
  print_endline (String.make 60 '-');
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.3f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
        else Printf.sprintf "%8.1f ns" ns
      in
      Printf.printf "%-40s | %s\n" name pretty)
    (List.sort compare rows)

(* ------------------------------------------------------------------------------------- *)

let experiments =
  [
    ("fig1", fig1_experiment);
    ("fig2", fig2_experiment);
    ("fig3", figure_experiment S.Figures.fig3);
    ("fig3-universal", figure_experiment S.Figures.fig3_universal);
    ("fig4", figure_experiment S.Figures.fig4);
    ("fig4-nocontext", figure_experiment S.Figures.fig4_nocontext);
    ("fig5", figure_experiment S.Figures.fig5);
    ("fig6", figure_experiment S.Figures.fig6);
    ("fig6-cartesian", figure_experiment S.Figures.fig6_cartesian);
    ("fig6-global", figure_experiment S.Figures.fig6_global);
    ("fig7", figure_experiment S.Figures.fig7);
    ("fig8", figure_experiment S.Figures.fig8);
    ("fig9", figure_experiment S.Figures.fig9);
    ("fig10", fig10_experiment);
    ("table1", table1_experiment);
    ("tgds", tgds_experiment);
    ("xquery", xquery_experiment);
    ("ablations", ablation_experiment);
    ("scaling", scaling_experiment);
    ("plan", plan_experiment ?smoke:None ?check:None);
    ("obs", obs_experiment ?smoke:None ?check:None ~metrics_json:true);
    ("par", par_experiment ?smoke:None ?check:None);
    ("compose", compose_experiment ?smoke:None ?check:None);
    ("perf", perf_experiment);
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> List.iter (fun (_, f) -> f ()) experiments
  | _ :: "plan" :: flags
    when flags <> []
         && List.for_all (fun f -> f = "--smoke" || f = "--check") flags ->
    plan_experiment
      ~smoke:(List.mem "--smoke" flags)
      ~check:(List.mem "--check" flags)
      ()
  | _ :: "par" :: flags
    when flags <> []
         && List.for_all (fun f -> f = "--smoke" || f = "--check") flags ->
    par_experiment
      ~smoke:(List.mem "--smoke" flags)
      ~check:(List.mem "--check" flags)
      ()
  | _ :: "compose" :: flags
    when flags <> []
         && List.for_all (fun f -> f = "--smoke" || f = "--check") flags ->
    compose_experiment
      ~smoke:(List.mem "--smoke" flags)
      ~check:(List.mem "--check" flags)
      ()
  | _ :: "obs" :: flags
    when flags <> []
         && List.for_all
              (fun f -> f = "--smoke" || f = "--check" || f = "--metrics-json")
              flags ->
    obs_experiment
      ~smoke:(List.mem "--smoke" flags)
      ~check:(List.mem "--check" flags)
      ~metrics_json:(List.mem "--metrics-json" flags)
      ()
  | [ _; name ] ->
    (match List.assoc_opt name experiments with
     | Some f -> f ()
     | None ->
       Printf.eprintf "unknown experiment %S; available: %s\n" name
         (String.concat ", " (List.map fst experiments));
       exit 1)
  | _ ->
    prerr_endline
      "usage: main.exe [experiment] | plan [--smoke] [--check] | obs [--smoke] \
       [--check] [--metrics-json] | par [--smoke] [--check] | compose \
       [--smoke] [--check]";
    exit 1
