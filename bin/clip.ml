(* The clip command-line tool: compile, validate, run, render and
   generate schema mappings written in the textual DSL.

   Exit codes: 0 — success; 1 — the input was read but rejected
   (diagnostics on stderr, rendered uniformly by Clip_diag); 124 —
   command-line usage error (cmdliner); 125 — unexpected internal
   error. *)

open Cmdliner

(* Render diagnostics to stderr; pass [src] to include the offending
   source line with a caret marker. *)
let report ?src ds = prerr_string (Clip_diag.render_list ?src ds)

(* CLIP-IO-001 for [path], as "PATH: cause". A failed open already
   names the path in its message; a failed read does not. *)
let io_error path msg =
  let prefix = path ^ ": " in
  Clip_diag.error ~code:Clip_diag.Codes.io_error
    (if String.starts_with ~prefix msg then msg else prefix ^ msg)

(* The bytes of [path], read until end of file rather than trusting
   the file's length, so a directory fails as "Is a directory". *)
let read_result path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg -> Error [ io_error path msg ]

let read_file path =
  match read_result path with
  | Ok s -> s
  | Error ds ->
    report ds;
    exit 1

let load_mapping path =
  let src = read_file path in
  match Clip_core.Dsl.parse_result src with
  | Ok m -> m
  | Error ds ->
    report ~src ds;
    exit 1

let mapping_file =
  let doc = "Mapping file (two schema declarations followed by a mapping block)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MAPPING" ~doc)

let ascii_flag =
  let doc = "Use plain-ASCII quantifiers instead of Unicode." in
  Arg.(value & flag & info [ "ascii" ] ~doc)

(* --- validate ---------------------------------------------------------- *)

let validate_cmd =
  let run file =
    let m = load_mapping file in
    match Clip_core.Validity.check m with
    | [] ->
      print_endline "valid: no issues";
      0
    | issues ->
      List.iter
        (fun i -> print_endline (Clip_core.Validity.issue_to_string i))
        issues;
      if Clip_core.Validity.is_valid m then 0 else 1
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Check the validity rules of Sec. III")
    Term.(const run $ mapping_file)

(* --- compile ----------------------------------------------------------- *)

let compile_cmd =
  let run file ascii =
    let m = load_mapping file in
    match Clip_core.Compile.to_tgd_result m with
    | Ok tgd ->
      print_endline (Clip_tgd.Pretty.to_string ~unicode:(not ascii) tgd);
      0
    | Error ds ->
      report ds;
      1
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile the mapping to a nested tgd (Sec. IV)")
    Term.(const run $ mapping_file $ ascii_flag)

(* --- xquery ------------------------------------------------------------ *)

let xquery_cmd =
  let run file =
    let m = load_mapping file in
    match Clip_core.Compile.to_tgd_result m with
    | Error ds ->
      report ds;
      1
    | Ok tgd ->
      (match
         Clip_core.To_xquery.translate_result ~target_root:m.target.root.name tgd
       with
       | Error ds ->
         report ds;
         1
       | Ok query ->
         print_string (Clip_xquery.Pretty.query_to_string query);
         0)
  in
  Cmd.v
    (Cmd.info "xquery" ~doc:"Generate the XQuery implementing the mapping (Sec. VI)")
    Term.(const run $ mapping_file)

(* --- sql ---------------------------------------------------------------- *)

let sql_cmd =
  let run file =
    let m = load_mapping file in
    match Clip_core.Compile.to_tgd_result m with
    | Error ds ->
      report ds;
      1
    | Ok tgd ->
      (match
         Clip_rel.Program.compile_result ~source:m.source
           ~target_root:m.target.root.name tgd
       with
       | Error ds ->
         report ds;
         1
       | Ok prog ->
         print_string (Clip_rel.Sql.of_program prog);
         0)
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:
         "Generate SQL for a mapping over a relational-shaped source: one \
          SELECT per flattened tgd rule. The text is for inspection; nothing \
          executes it. Nested sources are rejected with CLIP-REL-003, as by \
          --backend rel.")
    Term.(const run $ mapping_file)

(* --- run ---------------------------------------------------------------- *)

let input_file =
  let doc = "Source XML instance." in
  Arg.(required & opt (some file) None & info [ "i"; "input" ] ~docv:"XML" ~doc)

(* The one --backend parser, derived from the engine's backend
   registry: names, alternatives and documentation all come from the
   registered BACKEND modules, so a new backend shows up here (and in
   every command taking --backend) without touching this file. Unknown
   names are a cmdliner usage error (exit 124). *)
let backend_arg =
  let doc =
    "Execution backend: "
    ^ String.concat ", "
        (List.map
           (fun (Clip_core.Engine.Backend (module B)) ->
             Printf.sprintf "%s (%s)" B.name B.doc)
           Clip_core.Engine.backends)
    ^ "."
  in
  Arg.(value
       & opt (enum Clip_core.Engine.backend_names) `Tgd
       & info [ "backend" ] ~docv:"BACKEND" ~doc)

let plan_arg =
  let doc =
    "Physical evaluation strategy: auto (cost-based joins, the default) \
     or indexed (force every eligible hash join)."
  in
  Arg.(value
       & opt (enum [ ("auto", `Auto); ("indexed", `Indexed) ]) `Auto
       & info [ "plan" ] ~docv:"PLAN" ~doc)

let stream_flag =
  let doc =
    "Read each input incrementally (chunked) instead of loading it whole. \
     When the mapping admits a safe shard cut, evaluation is fully \
     streaming: shard documents are cut straight off the byte feed \
     (see --shard-bytes), evaluated on --jobs domains and merged in \
     document order, so peak memory is bounded by the in-flight shard \
     window, not the document. Other mappings are evaluated over the \
     whole document ('clip explain --stream' shows the decision and its \
     reason). Output is byte-identical to a non-streaming run. Inputs \
     are processed one at a time (--jobs parallelises within each \
     document); syntax errors are reported without the source-line \
     caret."
  in
  Arg.(value & flag & info [ "stream" ] ~doc)

(* An integer option whose values below [min] are a usage error (exit
   124), not a value the library silently clamps or misreads. *)
let int_at_least min =
  let parse arg =
    match Arg.conv_parser Arg.int arg with
    | Ok n when n < min ->
      Error
        (`Msg (Printf.sprintf "invalid value '%s', expected an integer >= %d" arg min))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let shard_bytes_arg =
  let doc =
    "Close each streamed shard once its units reach $(docv) source bytes \
     (default 1 MiB). Requires --stream."
  in
  Arg.(value & opt (some (int_at_least 1)) None & info [ "shard-bytes" ] ~docv:"BYTES" ~doc)

let then_arg =
  let doc =
    "Apply this mapping to the previous stage's output (repeatable: stages \
     run left to right). The chain is fused into one composed mapping when \
     every step composes (see 'clip compose'); otherwise it degrades to \
     staged execution, materialising each intermediate instance. Both paths \
     produce identical output — 'clip explain --then' shows the decision. \
     Incompatible with --stream."
  in
  Arg.(value & opt_all file [] & info [ "then" ] ~docv:"MAPPING" ~doc)

(* --then chains materialised documents, which --stream never builds,
   and only a byte stream is cut into shards; run and explain reject
   both misuses alike. *)
let check_stream_flags ~stream ~shard_bytes thens =
  let usage msg =
    prerr_endline ("clip: " ^ msg);
    exit 124
  in
  if thens <> [] && stream then usage "--then cannot be combined with --stream";
  if shard_bytes <> None && not stream then
    usage "--shard-bytes requires --stream"

let run_cmd =
  let input_files =
    let doc =
      "Source XML instance. Repeatable: each instance is transformed \
       independently and the outputs are printed in the order the inputs \
       were given."
    in
    Arg.(non_empty & opt_all file [] & info [ "i"; "input" ] ~docv:"XML" ~doc)
  in
  let jobs_arg =
    let doc =
      "Evaluate the inputs on N parallel domains, at most one per core; \
       with --stream, evaluate each input's shards on N domains instead. \
       Deterministic: stdout is byte-identical to --jobs 1 for any N \
       (results keep input order; execution counters are merged)."
    in
    Arg.(value & opt (int_at_least 1) 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let tree_flag =
    let doc = "Print the paper's ASCII-tree rendering instead of XML." in
    Arg.(value & flag & info [ "tree" ] ~doc)
  in
  let trace_flag =
    let doc =
      "Also print instance-level lineage (which source elements each target \
       element came from) on stdout, plus phase timings (sequential runs \
       only) and execution counters on stderr."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let timeout_arg =
    let doc =
      "Abort any input's evaluation after $(docv) milliseconds of wall \
       clock, reporting CLIP-LIM-005. The deadline is per input (each task \
       gets its own), checked cooperatively at the evaluators' step-budget \
       tick sites, so even a runaway cross product terminates cleanly."
    in
    Arg.(value & opt (some (int_at_least 0)) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let keep_going_flag =
    let doc =
      "Do not stop at the first failing input: print every successful \
       output (in input order), report each failure under a 'clip: input \
       FILE: failed' header, then a summary count on stderr. Exit 0 only \
       when every input succeeded, 1 otherwise. Without this flag, outputs \
       are printed up to the first failing input and only that failure is \
       reported."
    in
    Arg.(value & flag & info [ "k"; "keep-going" ] ~doc)
  in
  let run file inputs backend plan tree trace jobs timeout_ms keep_going
      stream shard_bytes thens =
    let m = load_mapping file in
    check_stream_flags ~stream ~shard_bytes thens;
    (* The pipeline stages, first mapping included. A singleton chain
       takes the plain engine path below; longer chains go through the
       mapping algebra (fused when composable, staged otherwise). *)
    let chain = m :: List.map load_mapping thens in
    (* SIGINT flips a cooperative cancellation flag shared by every
       task; workers notice at their next control poll and unwind with
       CLIP-LIM-006, so an interrupted batch still reports per-input
       outcomes instead of dying mid-write. *)
    let cancel = Clip_run.Cancel.create () in
    (try
       Sys.set_signal Sys.sigint
         (Sys.Signal_handle (fun _ -> Clip_run.Cancel.set cancel))
     with Invalid_argument _ | Sys_error _ -> ());
    (* Counters from every task merge into [total], printed under
       --trace; the span tracer is single-domain state, so phases are
       reported only on the sequential path (where the one worker is
       this domain). *)
    let total = Clip_obs.Counters.create () in
    let tracer =
      if trace && jobs <= 1 then
        Some (Clip_obs.Trace.create ~now:Unix.gettimeofday ())
      else None
    in
    let deadline_for () =
      match timeout_ms with
      | None -> None
      | Some ms ->
        (* Per task, started at task start: an input's clock does not
           run while earlier inputs evaluate. *)
        Some
          (Clip_run.deadline_after ~now:Unix.gettimeofday
             ~seconds:(float_of_int ms /. 1000.))
    in
    let render_out ?lineage out =
      let b = Buffer.create 1024 in
      if tree then (
        Buffer.add_string b (Clip_xml.Printer.to_tree_string out);
        Buffer.add_char b '\n')
      else Buffer.add_string b (Clip_xml.Printer.to_pretty_string out);
      (match lineage with
       | Some entries ->
         Buffer.add_char b '\n';
         List.iter
           (fun (t : Clip_tgd.Eval.trace_entry) ->
             if t.sources <> [] then
               Buffer.add_string b
                 (Printf.sprintf "/%s <- %s\n"
                    (String.concat "/" (List.map string_of_int t.target_path))
                    (String.concat ", "
                       (List.map
                          (fun n ->
                            match n with
                            | Clip_xml.Node.Element e -> "<" ^ e.tag ^ ">"
                            | Clip_xml.Node.Text a -> Clip_xml.Atom.to_string a)
                          t.sources))))
           entries
       | None -> ());
      Buffer.contents b
    in
    (* One outcome per input, in input order. A failure carries the
       source text when its diagnostics point into it (a parse error),
       for caret rendering. *)
    let no_src r = Result.map_error (fun ds -> (None, ds)) r in
    let outcomes =
      if stream then
        (* Streaming ingestion: the document is never loaded whole here —
           bytes flow chunkwise from the channel into the engine (and,
           when the mapping shards, straight into the shard cutter).
           Lineage needs the materialised tree, so --trace prints
           counters and phases but no lineage on this path. *)
        List.map
          (fun path ->
            (* Opening and reading both raise [Sys_error] (a directory
               opens, then fails on the first read). *)
            match
              In_channel.with_open_bin path (fun ic ->
                  let st = Clip_xml.Stream.of_channel ic in
                  let ctx =
                    Clip_run.create ~counters:total ?tracer
                      ?deadline:(deadline_for ()) ~cancel ()
                  in
                  Result.map render_out
                    (Clip_core.Engine.run_stream_result ~ctx ~backend ~plan
                       ?shard_bytes ~jobs m st))
            with
            | r -> (path, no_src r)
            | exception Sys_error msg ->
              (path, Error (None, [ io_error path msg ])))
          inputs
      else begin
        (* Read and parse sequentially: parsing is cheap next to
           evaluation. An input that cannot be read or parsed keeps its
           slot as a failed task, so it is reported in input order like
           an evaluation failure. Fail-fast reports nothing after it, so
           the inputs after it are not read. *)
        let rec read_all = function
          | [] -> []
          | path :: rest ->
            let p =
              match read_result path with
              | Error ds -> Error (None, ds)
              | Ok src ->
                Result.map_error
                  (fun ds -> (Some src, ds))
                  (Clip_xml.Parser.parse_string_result src)
            in
            (path, p)
            :: (if Result.is_error p && not keep_going then [] else read_all rest)
        in
        let parsed = read_all inputs in
        (* One task per document, with its own context — nothing shared
           across domains but the cancel flag. Rendering to a string
           inside the task keeps stdout in input order. *)
        let evaluate ~obs (_path, parsed) =
          match parsed with
          | Error (_, ds) -> Error ds
          | Ok source -> (
            let deadline = deadline_for () in
            let ctx =
              Clip_run.create ~counters:obs ?tracer ?deadline ~cancel ()
            in
            let traced ctx m =
              Clip_core.Engine.run_traced_result ~ctx ~plan m source
            in
            match chain, backend with
            | [ m ], `Tgd when trace ->
              (* The measured run records the lineage itself. *)
              Result.map
                (fun (out, entries) -> render_out ~lineage:entries out)
                (traced ctx m)
            | [ m ], _ -> (
              match Clip_core.Engine.run_result ~ctx ~backend ~plan m source with
              | Ok out when trace ->
                (* Only the tgd engine's whole-document run records
                   lineage, so here a separate tgd run recovers it. That
                   run is bookkeeping, not the measured evaluation: its
                   context has no counters or tracer of the run's, but it
                   shares the input's deadline and the SIGINT flag. *)
                Result.map
                  (fun (_, entries) -> render_out ~lineage:entries out)
                  (traced (Clip_run.create ?deadline ~cancel ()) m)
              | r -> Result.map render_out r)
            | ms, _ ->
              (* A multi-stage chain has no single mapping to trace, so
                 --then suppresses the lineage section. *)
              Result.map render_out
                (Clip_algebra.Pipeline.run_result ~ctx ~backend ~plan ms source))
        in
        let results = Clip_par.map_results ~jobs ~obs:total evaluate parsed in
        List.map2
          (fun (path, p) r ->
            (path, match p with Error e -> Error e | Ok _ -> no_src r))
          parsed results
      end
    in
    let code =
      if keep_going then begin
        (* Graceful degradation: successes on stdout, each failure under
           a per-input header on stderr, then a one-line tally. *)
        let failed =
          List.fold_left
            (fun failed (path, r) ->
              match r with
              | Ok s ->
                print_string s;
                failed
              | Error (src, ds) ->
                Printf.eprintf "clip: input %s: failed\n" path;
                report ?src ds;
                failed + 1)
            0 outcomes
        in
        if failed = 0 then 0
        else begin
          Printf.eprintf "clip: %d of %d input(s) failed\n" failed
            (List.length inputs);
          1
        end
      end
      else
        (* Fail fast: outputs up to the first failing input, then that
           failure's diagnostics and nothing after it. *)
        let rec emit = function
          | [] -> 0
          | (_, Ok s) :: rest ->
            print_string s;
            emit rest
          | (_, Error (src, ds)) :: _ ->
            report ?src ds;
            1
        in
        emit outcomes
    in
    if trace && code = 0 then begin
      (match tracer with
       | Some t -> prerr_string ("phases:\n" ^ Clip_obs.Trace.render t)
       | None -> ());
      prerr_string ("counters:\n" ^ Clip_obs.Counters.to_string total)
    end;
    code
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Transform a source instance into a target instance")
    Term.(const run $ mapping_file $ input_files $ backend_arg $ plan_arg
          $ tree_flag $ trace_flag $ jobs_arg $ timeout_arg
          $ keep_going_flag $ stream_flag $ shard_bytes_arg
          $ then_arg)

(* --- explain ------------------------------------------------------------ *)

let explain_cmd =
  let run file input backend plan stream shard_bytes thens =
    let m = load_mapping file in
    check_stream_flags ~stream ~shard_bytes thens;
    let chain = m :: List.map load_mapping thens in
    let xml_src = read_file input in
    (* --stream asks for the sharding decision a streamed run would
       take: EXPLAIN then ends with a 'sharding:' line naming the cut,
       or the whole-document fallback and its reason. *)
    let mode = if stream then Some `Sharded else None in
    match Clip_xml.Parser.parse_string_result xml_src with
    | Error ds ->
      report ~src:xml_src ds;
      1
    | Ok source ->
      (match
         Clip_core.Engine.explain_result ~backend ~plan ?mode m source
       with
       | Error ds ->
         report ds;
         1
       | Ok text ->
         print_string text;
         (* With --then, end with the pipeline-fusion decision the same
            chain would take under 'clip run': one line naming fused
            execution, or the first rejection diagnostic. *)
         if thens <> [] then
           print_endline
             (Clip_algebra.Pipeline.decision_note
                (Clip_algebra.Pipeline.plan chain));
         0)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the physical plan for running the mapping over an instance: \
          per source clause the chosen strategy (scan, pushed-down filter, \
          hash join) and the cost-model inputs that justified it — plus, \
          with --stream, the sharding decision, and with \
          --then, the pipeline-fusion decision")
    Term.(const run $ mapping_file $ input_file $ backend_arg $ plan_arg
          $ stream_flag $ shard_bytes_arg $ then_arg)

(* --- compose ------------------------------------------------------------ *)

let compose_cmd =
  let first_file =
    let doc = "First mapping file (its target schema must be the second \
               mapping's source schema)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MAPPING1" ~doc)
  in
  let rest_files =
    let doc =
      "Further mapping files: each stage's source schema must equal the \
       previous stage's target schema. The stages are composed left to \
       right into a single mapping."
    in
    Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"MAPPING" ~doc)
  in
  let run file rest =
    let ms = List.map load_mapping (file :: rest) in
    match Clip_algebra.compose_chain_result ms with
    | Ok m ->
      print_string (Clip_core.Dsl.to_string m);
      0
    | Error ds ->
      report ds;
      1
  in
  Cmd.v
    (Cmd.info "compose"
       ~doc:
         "Compose a chain of mappings into one mapping whose result on every \
          source instance equals running the stages in sequence. Chains \
          outside the composable fragment are rejected with a CLIP-ALG-* \
          diagnostic ('clip run --then' still executes them, staged).")
    Term.(const run $ first_file $ rest_files)

(* --- render ------------------------------------------------------------- *)

let parse_path s =
  match Clip_schema.Path.of_string s with
  | Ok p -> p
  | Error m ->
    prerr_endline (Printf.sprintf "bad path %S: %s" s m);
    exit 1

let render_cmd =
  let focus =
    let doc =
      "Only show the lines touching nodes under this path (repeatable) — the \
       paper's view filter."
    in
    Arg.(value & opt_all string [] & info [ "focus" ] ~docv:"PATH" ~doc)
  in
  let run file focus =
    let focus =
      match focus with [] -> None | ps -> Some (List.map parse_path ps)
    in
    print_string (Clip_core.Render.to_string ?focus (load_mapping file));
    0
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Render the mapping as ASCII (the GUI stand-in)")
    Term.(const run $ mapping_file $ focus)

(* --- generate ------------------------------------------------------------ *)

let generate_cmd =
  let extension =
    let doc = "Apply the Sec. V-B extension (root generalisation)." in
    Arg.(value & flag & info [ "extension" ] ~doc)
  in
  let run file extension ascii =
    let m = load_mapping file in
    let forest = Clip_clio.Generate.forest ~extension m in
    print_string (Clip_clio.Generate.forest_to_string forest);
    print_endline
      (Clip_tgd.Pretty.to_string ~unicode:(not ascii)
         (Clip_clio.Generate.to_tgd m forest));
    (try
       print_endline "";
       print_endline "# as an explicit Clip mapping:";
       print_string (Clip_core.Dsl.to_string (Clip_clio.Generate.to_clip m forest))
     with Failure msg -> Printf.printf "# (not expressible as builders: %s)\n" msg);
    0
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate a mapping from the value mappings alone (Sec. V)")
    Term.(const run $ mapping_file $ extension $ ascii_flag)

(* --- schema conversion ------------------------------------------------------ *)

(* A schema file is either the DSL or XSD; sniff by the first
   non-whitespace character. *)
let load_schema path =
  let text = read_file path in
  let is_xml =
    let rec first i =
      if i >= String.length text then '?'
      else
        match text.[i] with
        | ' ' | '\t' | '\n' | '\r' -> first (i + 1)
        | c -> c
    in
    first 0 = '<'
  in
  match
    if is_xml then Clip_schema.Xsd.of_string_result text
    else Clip_schema.Dsl.parse_result text
  with
  | Ok s -> s
  | Error ds ->
    report ~src:text ds;
    exit 1

let schema_cmd =
  let schema_file =
    let doc = "Schema file, in the DSL or as XSD (auto-detected)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCHEMA" ~doc)
  in
  let fmt =
    let doc = "Output format: dsl, xsd, or tree." in
    Arg.(value
         & opt (enum [ ("dsl", `Dsl); ("xsd", `Xsd); ("tree", `Tree) ]) `Tree
         & info [ "to" ] ~docv:"FORMAT" ~doc)
  in
  let run file fmt =
    let s = load_schema file in
    (match fmt with
     | `Dsl -> print_string (Clip_schema.Dsl.to_string s)
     | `Xsd -> print_string (Clip_schema.Xsd.to_string s)
     | `Tree -> print_string (Clip_schema.Schema.to_tree_string s));
    0
  in
  Cmd.v
    (Cmd.info "schema" ~doc:"Convert a schema between the DSL, XSD and a tree view")
    Term.(const run $ schema_file $ fmt)

(* --- check (instance validation) ------------------------------------------------ *)

let check_cmd =
  let checked_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:
               "A mapping file to diagnose, or (with $(i,XML)) a schema file \
                (DSL or XSD) to validate the instance against.")
  in
  let xml_file =
    Arg.(value & pos 1 (some file) None
         & info [] ~docv:"XML" ~doc:"Instance document to validate.")
  in
  let no_refs =
    Arg.(value & flag
         & info [ "no-refs" ] ~doc:"Skip referential-constraint checking.")
  in
  let equiv_file =
    Arg.(value & opt (some file) None
         & info [ "equiv" ] ~docv:"MAPPING"
             ~doc:
               "Check logical equivalence between the mapping in $(i,FILE) \
                and this one (mutual containment of their tgd rules, a sound \
                but incomplete homomorphism check). Prints the verdict; exit \
                0 when provably equivalent, 1 otherwise.")
  in
  (* One positional argument: parse the mapping file and print every
     diagnostic — syntax, validity (warnings included), compile and
     XQuery-translation stages — without stopping at the first. *)
  let check_mapping file =
    let src = read_file file in
    match Clip_core.Dsl.parse_result src with
    | Error ds ->
      print_string (Clip_diag.render_list ~src ds);
      1
    | Ok m ->
      (match Clip_core.Engine.diagnose m with
       | [] ->
         print_endline "ok: no diagnostics";
         0
       | ds ->
         print_string (Clip_diag.render_list ds);
         if Clip_diag.has_errors ds then 1 else 0)
  in
  let check_instance schema_file xml_file no_refs =
    let schema = load_schema schema_file in
    let xml_src = read_file xml_file in
    match Clip_xml.Parser.parse_string_result xml_src with
    | Error ds ->
      report ~src:xml_src ds;
      1
    | Ok doc ->
      (match Clip_schema.Validate.check ~check_refs:(not no_refs) schema doc with
       | [] ->
         print_endline "valid";
         0
       | violations ->
         List.iter
           (fun v -> print_endline (Clip_schema.Validate.violation_to_string v))
           violations;
         1)
  in
  (* --equiv: both files are mappings; report provable equivalence, and
     when it fails, which containment direction (if any) still holds —
     the check is sound but incomplete, so "not provably equivalent" is
     a may-differ verdict, not a proof of difference. *)
  let check_equiv file other =
    let a = load_mapping file and b = load_mapping other in
    match Clip_algebra.equiv_result a b with
    | Error ds ->
      report ds;
      1
    | Ok true ->
      print_endline "equivalent";
      0
    | Ok false ->
      let holds r = match r with Ok true -> true | _ -> false in
      let ab = holds (Clip_algebra.contains_result a b)
      and ba = holds (Clip_algebra.contains_result b a) in
      print_endline
        (match (ab, ba) with
         | true, false ->
           "not provably equivalent: the first mapping contains the second, \
            but not vice versa"
         | false, true ->
           "not provably equivalent: the second mapping contains the first, \
            but not vice versa"
         | _ -> "not provably equivalent: neither containment was established");
      1
  in
  let run file xml_file no_refs equiv =
    match (equiv, xml_file) with
    | Some _, Some _ ->
      prerr_endline "clip: --equiv takes two mapping files, not an instance";
      124
    | Some other, None -> check_equiv file other
    | None, None -> check_mapping file
    | None, Some xml -> check_instance file xml no_refs
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Diagnose a mapping file, validate an XML instance against a \
          schema, or (with --equiv) check two mappings for logical \
          equivalence")
    Term.(const run $ checked_file $ xml_file $ no_refs $ equiv_file)

(* --- match -------------------------------------------------------------------- *)

let match_cmd =
  let pos_file i docv =
    Arg.(required & pos i (some file) None & info [] ~docv ~doc:"Schema file (DSL or XSD).")
  in
  let threshold =
    Arg.(value & opt float 0.45
         & info [ "threshold" ] ~docv:"T" ~doc:"Minimum similarity score (0-1).")
  in
  let generate =
    Arg.(value & flag
         & info [ "generate" ]
             ~doc:"Also generate the nested mapping from the suggestions (Sec. V).")
  in
  let run src tgt threshold generate =
    let source = load_schema src and target = load_schema tgt in
    let suggestions = Clip_clio.Matcher.suggest ~threshold source target in
    if suggestions = [] then print_endline "no suggestions above the threshold"
    else
      List.iter
        (fun s -> print_endline (Clip_clio.Matcher.suggestion_to_string s))
        suggestions;
    if generate && suggestions <> [] then begin
      let m = Clip_clio.Matcher.bootstrap ~threshold source target in
      let forest = Clip_clio.Generate.forest ~extension:true m in
      print_endline "";
      print_string (Clip_clio.Generate.forest_to_string forest);
      print_endline
        (Clip_tgd.Pretty.to_string ~unicode:false (Clip_clio.Generate.to_tgd m forest))
    end;
    0
  in
  Cmd.v
    (Cmd.info "match"
       ~doc:"Suggest value mappings between two schemas (the Sec. VII extension)")
    Term.(const run $ pos_file 0 "SOURCE" $ pos_file 1 "TARGET" $ threshold $ generate)

(* --- lineage ------------------------------------------------------------------- *)

let lineage_cmd =
  let impact =
    Arg.(value & opt (some string) None
         & info [ "impact" ] ~docv:"PATH"
             ~doc:"Show the target paths impacted by a change to this source path.")
  in
  let run file impact =
    let m = load_mapping file in
    (match impact with
     | None -> print_string (Clip_core.Lineage.report_to_string m)
     | Some p ->
       List.iter
         (fun tp -> print_endline (Clip_schema.Path.to_string tp))
         (Clip_core.Lineage.impacted_by m (parse_path p)));
    0
  in
  Cmd.v
    (Cmd.info "lineage" ~doc:"Data lineage and impact analysis for a mapping")
    Term.(const run $ mapping_file $ impact)

(* --------------------------------------------------------------------------- *)

let main =
  let doc = "Clip: a visual language for explicit XML schema mappings (ICDE 2008)" in
  let exits =
    Cmd.Exit.info 0 ~doc:"on success."
    :: Cmd.Exit.info 1
         ~doc:
           "when the input is read but rejected: syntax errors, validity \
            errors, compile failures, execution failures or exceeded \
            resource limits (diagnostics on stderr)."
    :: Cmd.Exit.defaults
  in
  Cmd.group
    (Cmd.info "clip" ~version:"1.0.0" ~doc ~exits)
    [
      validate_cmd;
      compile_cmd;
      xquery_cmd;
      sql_cmd;
      run_cmd;
      explain_cmd;
      compose_cmd;
      render_cmd;
      generate_cmd;
      schema_cmd;
      check_cmd;
      match_cmd;
      lineage_cmd;
    ]

let () = exit (Cmd.eval' main)
