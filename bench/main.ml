(* The three CI gates that perfbench does not yet carry:

     dune exec bench/main.exe                               # all three
     dune exec bench/main.exe -- obs --smoke --check --metrics-json
     dune exec bench/main.exe -- par --smoke --check
     dune exec bench/main.exe -- compose --smoke --check

   [obs] bounds what counting costs a run, [par] checks the parallel
   batch and the streamed run against their sequential outputs and the
   streaming memory bound, and [compose] checks fused chains against
   staged ones and their speedup. Each writes a BENCH_*.json record.
   The paper's tables and figures are reproduced in EXPERIMENTS.md,
   which [dune runtest] regenerates and diffs. *)

module S = Clip_scenarios
module Engine = Clip_core.Engine

let rule title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subrule title = Printf.printf "\n--- %s\n" title

(* The value of a run that must succeed; its diagnostics otherwise. *)
let ok = function Ok v -> v | Error ds -> Clip_diag.fail_all ds

(* --- Timing and report helpers ------------------------------------------------------ *)

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

(* The current git commit, so each BENCH_*.json is traceable to the tree
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


(* The backend evaluator alone, over a tgd compiled (and, on xquery, a
   query translated) once, here: what a timed loop runs when the
   per-call compile would swamp what it measures. Statistics and
   physical plans are still built on every call. *)
let evaluator ~limits ~(backend : [ `Tgd | `Xquery ]) (sc : S.Figures.t) doc =
  let m = sc.mapping in
  let target_root = m.target.root.name in
  let tgd = ok (Clip_core.Compile.to_tgd_result m) in
  match backend with
  | `Tgd ->
    fun ?obs ~plan () ->
      ok
        (Clip_tgd.Eval.run_result ~limits
           ~minimum_cardinality:sc.minimum_cardinality ~plan ?obs ~source:doc
           ~target_root tgd)
  | `Xquery ->
    let q = ok (Clip_core.To_xquery.translate_result ~target_root tgd) in
    fun ?obs ~plan () ->
      ok (Clip_xquery.Eval.run_document_result ~limits ~plan ?obs ~input:doc q)

(* --- Observability: trace spans and the cost of counting (ours) ---------------------- *)

(* The counter invariants (same output across plans, scan bounds
   against the reference interpreter) are
   asserted by test/test_plan.ml's counters suite; this experiment
   prints a trace and gates what counting costs a run. *)
type overhead_row = {
  v_name : string;
  v_run_ms : float;
  v_run_min_ms : float;
  v_writes : int; (* counter writes in one run, lim_ticks aside (upper bound) *)
  v_bound_pct : float; (* gated: writes * per-write cost / run time *)
}

let obs_experiment ?(smoke = false) ?(check = false) ?(metrics_json = false) () =
  rule
    (Printf.sprintf "Observability — trace spans, cost of counting%s"
       (if smoke then " (smoke)" else ""));
  subrule "trace spans (one cold fig6 run, xquery backend)";
  let tracer = Clip_obs.Trace.create ~now:Unix.gettimeofday () in
  ignore
    (Engine.run_result
       ~ctx:(Clip_run.create ~tracer ())
       ~backend:`Xquery S.Figures.fig6.mapping S.Deptdb.instance);
  print_string (Clip_obs.Trace.render tracer);
  subrule "counting overhead (per-write cost x write count, bounded)";
  (* Every run counts: each counting site increments a field of the
     run's counter record, reached through the run's meter. A build
     without counting does not exist, and a wall-clock A/B of
     sub-millisecond runs cannot resolve a sub-percent effect, so the
     gate is computed, not raced: measure the cost of one such
     increment in a tight loop, count how many one run makes (from the
     counters themselves), and bound the overhead by their product over
     the run's fastest observed time. [lim_ticks] is left out: its one
     increment is the budget step the run takes anyway. Every other
     term is conservative: each counter unit counts as one write (a
     hash-join probe or a memo hit is one; so is each scanned node),
     and the fastest run minimises the denominator. *)
  let write_ns =
    Write_probe.ns (Clip_xquery.Meter.create ~what:"query" S.Deptdb.instance)
  in
  Printf.printf "per-write cost: %.2f ns\n" write_ns;
  let reps = if smoke then 9 else 15 in
  let oh_scale = if smoke then 4 else 10 in
  let oh_doc =
    S.Deptdb.synthetic_instance ~depts:(2 * oh_scale) ~projs:5 ~emps:10
  in
  let overhead_rows =
    List.map
      (fun ((name : string), (sc : S.Figures.t), backend) ->
        (* The evaluator alone: the counting happens during evaluation,
           so that is the time it is set against. *)
        let run = evaluator ~limits:Clip_diag.Limits.default ~backend sc oh_doc in
        let writes =
          let c = Clip_obs.Counters.create () in
          ignore (run ~obs:c ~plan:`Auto ());
          List.fold_left
            (fun acc (name, v) -> if name = "lim_ticks" then acc else acc + v)
            0
            (Clip_obs.Counters.to_assoc c)
        in
        let times =
          match interleaved_reps reps [ (fun () -> run ~plan:`Auto ()) ] with
          | [ t ] -> t
          | _ -> assert false
        in
        let run_min = min_of times in
        {
          v_name = name;
          v_run_ms = median_of times;
          v_run_min_ms = run_min;
          v_writes = writes;
          v_bound_pct =
            float_of_int writes *. write_ns
            /. Float.max (run_min *. 1e6) 1e-9
            *. 100.;
        })
      [
        ("fig5/tgd", S.Figures.fig5, `Tgd);
        ("fig6/xquery", S.Figures.fig6, `Xquery);
        ("fig7/tgd", S.Figures.fig7, `Tgd);
      ]
  in
  Printf.printf "%-14s | %-9s | %-9s | %-6s | %s\n" "scenario" "median ms"
    "min ms" "writes" "counting bound";
  print_endline (String.make 60 '-');
  List.iter
    (fun v ->
      Printf.printf "%-14s | %9.3f | %9.3f | %-6d | %5.2f%%\n" v.v_name
        v.v_run_ms v.v_run_min_ms v.v_writes v.v_bound_pct)
    overhead_rows;
  let threshold_pct = 5.0 in
  let slow = List.filter (fun v -> v.v_bound_pct > threshold_pct) overhead_rows in
  Printf.printf "\nall scenarios within the %.0f%% counting-overhead budget: %b\n"
    threshold_pct (slow = []);
  if metrics_json then begin
    let overhead_json v =
      Printf.sprintf
        "{\"scenario\": %s, \"run_ms\": %.4f, \"run_min_ms\": %.4f, \
         \"writes\": %d, \"write_ns\": %.2f, \"bound_pct\": %.4f}"
        (json_string v.v_name) v.v_run_ms v.v_run_min_ms v.v_writes write_ns
        v.v_bound_pct
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
    Buffer.add_string buf
      (Printf.sprintf "  \"commit\": %s,\n" (json_string (git_commit ())));
    Buffer.add_string buf (Printf.sprintf "  \"reps\": %d,\n" reps);
    Buffer.add_string buf
      (Printf.sprintf "  \"overhead_threshold_pct\": %.2f,\n" threshold_pct);
    Buffer.add_string buf "  \"overhead\": [\n";
    Buffer.add_string buf
      (String.concat ",\n"
         (List.map (fun v -> "    " ^ overhead_json v) overhead_rows));
    Buffer.add_string buf "\n  ],\n  \"trace\": ";
    Buffer.add_string buf (Clip_obs.Trace.to_json tracer);
    Buffer.add_string buf "\n}\n";
    let oc = open_out "BENCH_obs.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote BENCH_obs.json (%d overhead rows)\n"
      (List.length overhead_rows)
  end;
  if check then begin
    if slow <> [] then begin
      List.iter
        (fun v ->
          Printf.eprintf
            "obs bench check FAILED: %s counting overhead bound %.2f%% > %.0f%% \
             (%d writes at %.2f ns over %.3f ms)\n"
            v.v_name v.v_bound_pct threshold_pct v.v_writes write_ns
            v.v_run_min_ms)
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
  let eval (sc : S.Figures.t) ~backend ~plan ?obs doc =
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
    "degraded batch: one wrong-root document — survivors intact, counters \
     exact";
  (* One failing document in an N-task batch must cost exactly that
     slot: the other N-1 outputs byte-identical to the fault-free run,
     and the merged counters equal to the fault-free totals of the
     survivors alone (failed attempts merge nothing). The document at
     [dg_fail] has the wrong root, so its task fails with CLIP-TGD-001
     at every domain count: the sequential run pins the slot and the
     counters, the pool run gates isolation. *)
  let dsc = S.Figures.fig6 in
  let dg_good = S.Deptdb.instance :: batch ~n:7 ~scale:3 in
  let dg_n = List.length dg_good in
  let dg_fail = 3 in
  let dg_docs =
    List.mapi
      (fun i doc -> if i = dg_fail then Clip_xml.Node.elem "wrong" [] else doc)
      dg_good
  in
  let task ~obs doc =
    Clip_diag.guard (fun () -> eval dsc ~backend:`Tgd ~plan:`Auto ~obs doc)
  in
  let full =
    List.map (fun doc -> eval dsc ~backend:`Tgd ~plan:`Auto doc) dg_good
  in
  let cs = Clip_obs.Counters.create () in
  ignore
    (Clip_par.map_results ~jobs:1 ~obs:cs task
       (List.filteri (fun i _ -> i <> dg_fail) dg_docs));
  let cf = Clip_obs.Counters.create () in
  let rs = Clip_par.map_results ~jobs:1 ~obs:cf task dg_docs in
  let slot_ok i r =
    match r with
    | Ok s when i <> dg_fail -> String.equal s (List.nth full i)
    | Error ds when i = dg_fail ->
      List.exists
        (fun d -> String.equal d.Clip_diag.code Clip_diag.Codes.tgd_eval)
        ds
    | Ok _ | Error _ -> false
  in
  let degraded_intact = List.for_all Fun.id (List.mapi slot_ok rs) in
  let degraded_counters =
    Clip_obs.Counters.to_assoc cs = Clip_obs.Counters.to_assoc cf
  in
  let rsp = Clip_par.map_results ~jobs task dg_docs in
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
    "degraded batch (%d tasks, slot %d wrong root): survivors intact %b | \
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
  (* One large document instead of many small ones: the streaming
     pipeline cuts it at the mapping's shard unit. Whole-document
     sequential output is the oracle. *)
  let shard_sc = S.Figures.fig6 in
  let shard_scale = 100 in
  let shard_doc =
    S.Deptdb.synthetic_instance ~depts:shard_scale ~projs:5 ~emps:10
  in
  let shard_bytes_src = Clip_xml.Printer.to_string shard_doc in
  let shard_budget = max 1 (String.length shard_bytes_src / 16) in
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
  let whole_out =
    Clip_xml.Printer.to_pretty_string
      (Engine.run ~backend:`Tgd
         ~minimum_cardinality:shard_sc.minimum_cardinality shard_sc.mapping
         shard_doc)
  in
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
  let shard_stream_identical = String.equal whole_out streamed_out in
  subrule
    "single-document streaming: byte-identity and bounded memory vs \
     whole-document parse+run (scale 100)";
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
  let shard_count = ref 0 in
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
        incr shard_count;
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
    "fig6/tgd, %d depts, %d shards of %d bytes: streamed output identical %b\n\
     peak live words: whole %d | sharded streaming %d | ratio %.3f (gate <= \
     %.2f) | merged output identical %b\n"
    shard_scale !shard_count shard_budget shard_stream_identical whole_peak
    sharded_peak mem_ratio mem_target merged_identical;
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
        \"shards\": %d, \"stream_identical\": %b, \
        \"whole_peak_live_words\": %d, \"sharded_peak_live_words\": %d, \
        \"mem_ratio\": %.4f, \"merged_identical\": %b},\n"
       (json_string shard_sc.name) shard_scale shard_budget !shard_count
       shard_stream_identical whole_peak sharded_peak mem_ratio
       merged_identical);
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
    if not (shard_stream_identical && merged_identical) then begin
      Printf.eprintf
        "par bench check FAILED: sharded output differs from whole-document \
         (streamed %b, manual pipeline %b)\n"
        shard_stream_identical merged_identical;
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

(* ------------------------------------------------------------------------------------- *)

let experiments =
  [
    ("obs", obs_experiment ?smoke:None ?check:None ~metrics_json:true);
    ("par", par_experiment ?smoke:None ?check:None);
    ("compose", compose_experiment ?smoke:None ?check:None);
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> List.iter (fun (_, f) -> f ()) experiments
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
      "usage: main.exe [experiment] | obs [--smoke] [--check] \
       [--metrics-json] | par [--smoke] [--check] | compose [--smoke] \
       [--check]";
    exit 1
