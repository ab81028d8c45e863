(* Deterministic mutation fuzzer for every parser and the end-to-end
   engine.

   The harness asserts TOTALITY: each [*_result] entry point must
   return [Ok _] or [Error diagnostics] on arbitrary bytes — any other
   exception (including [Stack_overflow] and [Invalid_argument]) is a
   bug and fails the run. The xml target is additionally
   DIFFERENTIAL: the tree parser and a randomly chunked lexer feed must
   reach the reference parser's outcome (test/xml_oracle.ml). So is
   the engine target: every mapping that runs is evaluated by the
   reference tgd interpreter (test/tgd_oracle.ml) and by the engine
   under the [`Indexed] and [`Auto] plans on a random valid instance of
   its own source schema, and the outputs and the recorded lineage
   must agree. A fixed
   pre-pass additionally checks the resource guards: a 100k-deep XML
   document (and equally deep schema DSL, mapping DSL and XQuery
   nestings) must come back as CLIP-LIM-* diagnostics, never a crash.

   Two optional seeded sweeps ride along: [--faults N] replays the
   engine under injected faults, and [--algebra N] draws random
   compose chains over the Table-I figures and checks the mapping
   algebra's differential oracle — pipeline (fused or degraded) vs
   manual staged execution, with CLIP-ALG-* codes on every rejection.

   Runs are reproducible: the PRNG is our own (no [Random]), seeded
   from [--seed], so a failing input can be replayed by seed +
   iteration number. No external dependencies.

     dune exec test/fuzz/fuzz.exe -- --iterations 2000 --seed 42 *)

let iterations = ref 2000
let seed = ref 42
let verbose = ref false
let corpus_dir = ref ""

(* --- PRNG: 63-bit LCG, deterministic across platforms ---------------- *)

let rng = ref 1

let init_rng s = rng := (s lxor 0x5DEECE66D) land max_int

let next () =
  rng := ((!rng * 25214903917) + 11) land max_int;
  !rng lsr 17

let rand n = if n <= 0 then 0 else next () mod n

let pick xs = List.nth xs (rand (List.length xs))

(* --- Corpus ----------------------------------------------------------- *)

let builtin_corpus =
  [
    (* mapping file *)
    "schema source {\n\
    \  dept [1..*] { dname: string regEmp [0..*] { ename: string sal: int } }\n\
     }\n\
     schema target {\n\
    \  department [1..*] { employee [0..*] { @name: string } }\n\
     }\n\
     mapping {\n\
    \  node d: source.dept as $d -> target.department {\n\
    \    node e: source.dept.regEmp as $r -> target.department.employee\n\
    \      where $r.sal.value > 11000\n\
    \  }\n\
    \  value source.dept.regEmp.ename.value -> target.department.employee.@name\n\
     }\n";
    (* schema DSL *)
    "schema db { item [0..*] { @id: int name: string } ref item.@id -> item.@id }\n";
    (* XSD *)
    "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n\
     <xs:element name=\"db\"><xs:complexType><xs:sequence>\n\
     <xs:element name=\"item\" minOccurs=\"0\" maxOccurs=\"unbounded\" \
     type=\"xs:string\"/>\n\
     </xs:sequence></xs:complexType></xs:element></xs:schema>\n";
    (* XML instance *)
    "<source><dept><dname>ICT</dname><regEmp pid=\"1\"><ename>John</ename>\
     <sal>10000</sal></regEmp></dept></source>";
    (* XQuery *)
    "<target>{ for $d in source/dept where $d/sal/text() > 100 return \
     <department name={ $d/dname/text() }/> }</target>";
    "for $x in doc/a let $y := count($x/b) return if ($y > 2) then $x else ()";
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let dir_files dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then None
           else match read_file p with s -> Some s | exception _ -> None)
  | exception Sys_error _ -> []

let load_corpus () =
  let roots =
    if !corpus_dir <> "" then [ !corpus_dir ]
    else [ "examples"; Filename.concat ".." (Filename.concat ".." "examples") ]
  in
  let from_disk =
    List.concat_map
      (fun root ->
        dir_files (Filename.concat root "mappings")
        @ dir_files (Filename.concat root "xsd"))
      roots
  in
  builtin_corpus @ from_disk

(* --- Mutations -------------------------------------------------------- *)

let dictionary =
  [
    "<"; ">"; "</"; "/>"; "<!--"; "-->"; "<![CDATA["; "]]>"; "&lt;"; "&#x41;";
    "schema"; "mapping"; "node"; "value"; "group"; "where"; "as"; "ref";
    "[0..*]"; "[1..1]"; "[5..2]"; "{"; "}"; "$"; "@"; ".."; "->"; ":";
    "for"; "let"; "in"; "return"; "if"; "then"; "else"; "count"; "avg";
    "<<sum>>"; "string"; "int"; "\""; "'"; "9999999999999999999999";
    "xs:element"; "xs:choice"; "minOccurs=\"-1\""; "maxOccurs=\"x\"";
  ]

let mutate s =
  let s = Bytes.of_string s in
  let n = Bytes.length s in
  let sub off len = Bytes.sub_string s off len in
  if n = 0 then pick dictionary
  else
    match rand 7 with
    | 0 ->
      (* flip one byte *)
      let i = rand n in
      Bytes.set s i (Char.chr (rand 256));
      Bytes.to_string s
    | 1 ->
      (* insert a random byte *)
      let i = rand (n + 1) in
      sub 0 i ^ String.make 1 (Char.chr (rand 256)) ^ sub i (n - i)
    | 2 ->
      (* delete a span *)
      let i = rand n in
      let len = min (n - i) (1 + rand 16) in
      sub 0 i ^ sub (i + len) (n - i - len)
    | 3 ->
      (* duplicate a span *)
      let i = rand n in
      let len = min (n - i) (1 + rand 32) in
      sub 0 (i + len) ^ sub i (n - i)
    | 4 ->
      (* truncate *)
      sub 0 (rand n)
    | 5 ->
      (* insert a dictionary token *)
      let i = rand (n + 1) in
      sub 0 i ^ pick dictionary ^ sub i (n - i)
    | _ ->
      (* swap two spans (self-splice) *)
      let i = rand n and j = rand n in
      let i, j = (min i j, max i j) in
      let len = min (1 + rand 24) (min (n - j) (j - i)) in
      if len <= 0 || i = j then Bytes.to_string s
      else sub 0 i ^ sub j len ^ sub (i + len) (j - i - len) ^ sub i len
        ^ sub (j + len) (n - j - len)

let splice a b =
  let na = String.length a and nb = String.length b in
  if na = 0 || nb = 0 then a ^ b
  else
    let i = rand na and j = rand nb in
    String.sub a 0 i ^ String.sub b j (nb - j)

(* --- Targets ---------------------------------------------------------- *)

(* Tight limits keep iterations fast and exercise the guards. *)
let limits =
  {
    Clip_diag.Limits.max_input_bytes = 1 lsl 20;
    max_xml_depth = 120;
    max_parser_recursion = 100;
    max_eval_steps = 50_000;
  }

let failures = ref 0

let report_failure name input exn =
  incr failures;
  let prefix = String.sub input 0 (min 160 (String.length input)) in
  Printf.eprintf "FAILURE [%s]: raised %s\n  input prefix: %S\n" name
    (Printexc.to_string exn) prefix

(* Lineage must not depend on the plan: [run_traced_result] under
   [`Indexed] and [`Auto] must record the reference interpreter's
   lineage entry for entry, source elements compared physically.
   Returns the first disagreeing plan; a run that reports a tgd dynamic
   error (CLIP-TGD-001) is skipped, and any other diagnostic escapes as
   a failure. *)
let lineage_disagreement m doc =
  let traced_by run =
    match run () with
    | Ok (_, trace) -> Some trace
    | Error ds
      when List.exists
             (fun d -> String.equal d.Clip_diag.code Clip_diag.Codes.tgd_eval)
             ds ->
      None
    | Error ds -> Clip_diag.fail_all ds
  in
  let traced plan =
    traced_by (fun () -> Clip_core.Engine.run_traced_result ~plan m doc)
  in
  let same_source x y =
    match (x, y) with
    | Clip_xml.Node.Element e, Clip_xml.Node.Element e' -> e == e'
    | _ -> false
  in
  let same_entry (x : Clip_tgd.Eval.trace_entry) (y : Clip_tgd.Eval.trace_entry) =
    x.target_path = y.target_path
    && List.length x.sources = List.length y.sources
    && List.for_all2 same_source x.sources y.sources
  in
  match traced_by (fun () -> Tgd_oracle.run_mapping_traced m doc) with
  | None -> None
  | Some expected ->
    List.find_map
      (fun (name, plan) ->
        match traced plan with
        | Some t
          when not (List.length t = List.length expected && List.for_all2 same_entry t expected)
          -> Some name
        | Some _ | None -> None)
      [ ("indexed", `Indexed); ("auto", `Auto) ]

(* How far the engine target's inputs get: mappings that parse, oracle
   runs that succeed, and plan outputs compared against the oracle. *)
let engine_parsed = ref 0
let engine_oracle_ok = ref 0
let engine_compared = ref 0

let targets : (string * (string -> unit)) list =
  [
    ( "xml",
      (* Differential: the tree parser and the lexer fed in random chunks
         must reach the reference parser's outcome — the same document,
         or the same diagnostics, spans included. The chunk sizes come
         from a generator seeded by the input, so the run's own PRNG
         sequence does not depend on this target. *)
      fun s ->
        let reference = Xml_oracle.(outcome (parse_string_result ~limits s)) in
        let off = ref 0 and r = ref (Hashtbl.hash s) in
        let chunked =
          Clip_xml.Stream.of_chunks ~limits (fun () ->
              if !off >= String.length s then None
              else begin
                r := ((!r * 25214903917) + 11) land max_int;
                let k = min (String.length s - !off) (1 + ((!r lsr 17) mod 64)) in
                let chunk = String.sub s !off k in
                off := !off + k;
                Some chunk
              end)
        in
        List.iter
          (fun (name, got) ->
            if not (String.equal got reference) then begin
              incr failures;
              Printf.eprintf
                "FAILURE [xml]: %s disagrees with the reference parser\n\
                \  input prefix: %S\n"
                name
                (String.sub s 0 (min 160 (String.length s)))
            end)
          [
            ("parser", Xml_oracle.outcome (Clip_xml.Parser.parse_string_result ~limits s));
            ("chunked stream", Xml_oracle.outcome (Clip_xml.Stream.parse_result chunked));
          ] );
    ("schema-lexer", fun s -> ignore (Clip_schema.Lexer.tokenize_result s));
    ("schema-dsl", fun s -> ignore (Clip_schema.Dsl.parse_result ~limits s));
    ("xsd", fun s -> ignore (Clip_schema.Xsd.of_string_result ~limits s));
    ("mapping-dsl", fun s -> ignore (Clip_core.Dsl.parse_result ~limits s));
    ("xquery", fun s -> ignore (Xquery_parser.parse_string_result ~limits s));
    ( "engine",
      (* Beyond totality, the engine target is differential: the
         reference interpreter and the engine under [`Indexed] and
         [`Auto] must agree (unordered node equality — target sibling
         order is pinned separately by the plan test suite) whenever
         both succeed, and then record the same lineage. The source
         document is a random valid instance of the parsed mapping's
         own source schema, so generators actually enumerate. *)
      fun s ->
        match Clip_core.Dsl.parse_result ~limits s with
        | Error _ -> ()
        | Ok m ->
          incr engine_parsed;
          let doc =
            match
              Clip_schema.Generate.instance_with_refs
                ~state:(Random.State.make [| next () |])
                ~fanout:3 m.source
            with
            | doc -> doc
            | exception _ -> Clip_xml.Node.elem m.source.root.name []
          in
          let run plan = Clip_core.Engine.run_result ~limits ~plan m doc in
          (* The engine's default, minimum cardinality on. *)
          let oracle = Tgd_oracle.run_mapping ~limits m doc in
          let fail what =
            incr failures;
            Printf.eprintf "FAILURE [engine]: %s\n  mapping prefix: %S\n" what
              (String.sub s 0 (min 160 (String.length s)))
          in
          (match oracle with
           | Error _ -> ()
           | Ok a ->
             incr engine_oracle_ok;
             List.iter
               (fun (name, plan) ->
                 match run plan with
                 | Error _ -> ()
                 | Ok b ->
                   incr engine_compared;
                   if not (Clip_xml.Node.equal_unordered a b) then
                     fail (Printf.sprintf "the oracle and the %s plan disagree" name)
                   else if plan = `Auto then
                     Option.iter
                       (fun name ->
                         fail ("the oracle and the " ^ name ^ " plan disagree on lineage"))
                       (lineage_disagreement m doc))
               [ ("indexed", `Indexed); ("auto", `Auto) ]) );
  ]

let run_target name f input =
  match f input with () -> () | exception e -> report_failure name input e

(* --- Fixed regression pre-pass: resource guards ----------------------- *)

let has_code code ds = List.exists (fun d -> String.equal d.Clip_diag.code code) ds

let expect_limit name code result =
  match result with
  | Error ds when has_code code ds -> ()
  | Ok _ ->
    incr failures;
    Printf.eprintf "FAILURE [%s]: deep input accepted instead of %s\n" name code
  | Error ds ->
    incr failures;
    Printf.eprintf "FAILURE [%s]: expected %s, got %s\n" name code
      (String.concat ", " (List.map (fun d -> d.Clip_diag.code) ds))

let guard_checks () =
  let n = 100_000 in
  (* 100k-deep XML: must report CLIP-LIM-002, not Stack_overflow. *)
  let buf = Buffer.create (n * 8) in
  for _ = 1 to n do
    Buffer.add_string buf "<a>"
  done;
  Buffer.add_string buf "x";
  for _ = 1 to n do
    Buffer.add_string buf "</a>"
  done;
  (match Clip_xml.Parser.parse_string_result (Buffer.contents buf) with
   | r -> expect_limit "deep-xml" Clip_diag.Codes.limit_xml_depth r
   | exception e -> report_failure "deep-xml" "<a><a>..." e);
  (* 100k-deep schema DSL nesting. *)
  let buf = Buffer.create (n * 4) in
  Buffer.add_string buf "schema s ";
  for _ = 1 to n do
    Buffer.add_string buf "{ a "
  done;
  Buffer.add_string buf "{ x: string ";
  for _ = 0 to n do
    Buffer.add_string buf "}"
  done;
  (match Clip_schema.Dsl.parse_result (Buffer.contents buf) with
   | r -> expect_limit "deep-schema" Clip_diag.Codes.limit_recursion r
   | exception e -> report_failure "deep-schema" "schema s { a { a ..." e);
  (* 100k-deep XQuery parentheses. *)
  let q = String.concat "" [ String.make n '('; "1"; String.make n ')' ] in
  (match Xquery_parser.parse_string_result q with
   | r -> expect_limit "deep-xquery" Clip_diag.Codes.limit_recursion r
   | exception e -> report_failure "deep-xquery" "(((..." e);
  (* Step budget: a mapping whose cross product exceeds max_eval_steps. *)
  let mapping_src =
    "schema source { a [0..*] { v: int } }\n\
     schema target { t [0..*] { u [0..*] { @x: int } } }\n\
     mapping {\n\
    \  node n: source.a as $p, source.a as $q, source.a as $r -> target.t\n\
     }\n"
  in
  (match Clip_core.Dsl.parse_result mapping_src with
   | Error ds ->
     incr failures;
     Printf.eprintf "FAILURE [step-budget]: fixture does not parse: %s\n"
       (String.concat "; " (List.map (fun d -> d.Clip_diag.message) ds))
   | Ok m ->
     let items =
       List.init 60 (fun i ->
           Clip_xml.Node.elem "a"
             [ Clip_xml.Node.elem "v" [ Clip_xml.Node.text (Clip_xml.Atom.Int i) ] ])
     in
     let doc = Clip_xml.Node.elem "source" items in
     let tight = { limits with Clip_diag.Limits.max_eval_steps = 10_000 } in
     (match Clip_core.Engine.run_result ~limits:tight m doc with
      | r ->
        expect_limit "step-budget" Clip_diag.Codes.limit_eval_steps
          (match r with Ok _ -> Ok () | Error ds -> Error ds)
      | exception e -> report_failure "step-budget" mapping_src e))

(* --- Seeded fault-injection sweep (--faults N) ------------------------ *)

let fault_iterations = ref 0

(* Each iteration arms one seeded (site, hit ordinal) fault and
   drives a fixed, valid end-to-end pipeline that crosses every
   registered site: re-parsing the printed instance (xml.parse), an
   [`Indexed] engine run on both backends (plan.build, tgd.execute,
   xquery.execute) under the
   {!Clip_par.map_results} wrapper (par.task). Totality plus fault
   hygiene: a fired fault must surface as [Error] carrying a CLIP-FLT-*
   code — never an exception, never a silent [Ok] — and after
   disarming the very same pipeline must run clean (nothing poisoned). *)
let fault_sweep () =
  let m =
    match Clip_core.Dsl.parse_result (List.hd builtin_corpus) with
    | Ok m -> m
    | Error _ -> failwith "fault sweep: fixture mapping does not parse"
  in
  let doc =
    Clip_schema.Generate.instance_with_refs
      ~state:(Random.State.make [| 0xC11F |])
      ~fanout:3 m.source
  in
  let doc_text = Clip_xml.Printer.to_string doc in
  let task ~obs:_ backend =
    match Clip_xml.Parser.parse_string_result ~limits doc_text with
    | Error _ as e -> Result.map ignore e
    | Ok source ->
      let ctx = Clip_run.create () in
      Result.map ignore
        (Clip_core.Engine.run_result ~ctx ~limits ~backend ~plan:`Indexed m
           source)
  in
  let pipeline () =
    List.fold_left
      (fun acc r ->
        match (acc, r) with
        | Error _, _ -> acc
        | _, (Error _ as e) -> e
        | Ok (), Ok () -> acc)
      (Ok ())
      (Clip_par.map_results ~jobs:1 task [ `Tgd; `Xquery ])
  in
  let is_fault d =
    String.equal d.Clip_diag.code Clip_diag.Codes.fault_permanent
  in
  let show ds = String.concat "," (List.map (fun d -> d.Clip_diag.code) ds) in
  for i = 1 to !fault_iterations do
    let site, from = Clip_fault.arm_seeded ~seed:(!seed + (i * 7919)) in
    let armed_desc = Printf.sprintf "%s hit %d" site from in
    if !verbose then Printf.eprintf "fault iter %d: %s\n" i armed_desc;
    let r = match pipeline () with r -> Ok r | exception e -> Error e in
    let fired = Clip_fault.fired () in
    Clip_fault.disarm ();
    (match r with
    | Error e ->
      incr failures;
      Printf.eprintf "FAILURE [fault]: %s escaped as exception %s\n" armed_desc
        (Printexc.to_string e)
    | Ok (Error ds) when fired > 0 && List.exists is_fault ds -> ()
    | Ok (Ok ()) when fired = 0 -> ()
    | Ok (Ok ()) ->
      incr failures;
      Printf.eprintf "FAILURE [fault]: %s fired %d time(s) yet run was Ok\n"
        armed_desc fired
    | Ok (Error ds) when fired = 0 ->
      incr failures;
      Printf.eprintf "FAILURE [fault]: unfired %s, run failed [%s]\n" armed_desc
        (show ds)
    | Ok (Error ds) ->
      incr failures;
      Printf.eprintf "FAILURE [fault]: %s surfaced without CLIP-FLT code [%s]\n"
        armed_desc (show ds));
    match pipeline () with
    | Ok () -> ()
    | Error ds ->
      incr failures;
      Printf.eprintf "FAILURE [fault]: state poisoned after %s: [%s]\n"
        armed_desc (show ds)
    | exception e ->
      incr failures;
      Printf.eprintf "FAILURE [fault]: post-disarm exception after %s: %s\n"
        armed_desc (Printexc.to_string e)
  done;
  if !fault_iterations > 0 then
    Printf.printf "fault sweep: %d seeded site iterations\n%!" !fault_iterations

(* --- Algebra differential sweep (--algebra N) ------------------------- *)

let algebra_iterations = ref 0

(* The identity mapping over a schema: one driven builder per repeating
   element, an identity value mapping per leaf below a repetition —
   the same generator as the differential harness
   (test/test_algebra.ml). *)
let identity_mapping (s : Clip_schema.Schema.t) : Clip_core.Mapping.t =
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

(* Each iteration draws a random compose chain over the Table-I figure
   pool — the figure mapping bracketed by identity mappings over its
   endpoint schemas — and a random plan mode, and checks the algebra's differential oracle on the paper instance:
   [Clip_algebra.Pipeline.run_result] (fused when the chain composes,
   staged otherwise) must agree with manual staged execution, both
   must be total (Ok or Error diagnostics, never an exception), and a
   rejected composition must carry only CLIP-ALG-* codes. *)
let algebra_sweep () =
  if !algebra_iterations > 0 then begin
    let module SF = Clip_scenarios.Figures in
    let instance = Clip_scenarios.Deptdb.instance in
    let show ds = String.concat "," (List.map (fun d -> d.Clip_diag.code) ds) in
    for i = 1 to !algebra_iterations do
      let sc = pick SF.all in
      let m = sc.SF.mapping in
      let id_s = identity_mapping m.Clip_core.Mapping.source in
      let id_t = identity_mapping m.Clip_core.Mapping.target in
      let chain =
        match rand 5 with
        | 0 -> [ m ]
        | 1 -> [ id_s; m ]
        | 2 -> [ id_s; id_s; m ]
        | 3 -> [ m; id_t ]
        | _ -> [ id_s; m; id_t ]
      in
      let plan = pick [ `Indexed; `Auto ] in
      let mc = sc.SF.minimum_cardinality in
      if !verbose then
        Printf.eprintf "algebra iter %d: %s, %d stages\n" i sc.SF.name
          (List.length chain);
      (match Clip_algebra.Pipeline.plan chain with
       | Clip_algebra.Pipeline.Fused _ -> ()
       | Clip_algebra.Pipeline.Staged ds ->
         let alg d =
           String.length d.Clip_diag.code >= 8
           && String.equal (String.sub d.Clip_diag.code 0 8) "CLIP-ALG"
         in
         if ds = [] || not (List.for_all alg ds) then begin
           incr failures;
           Printf.eprintf
             "FAILURE [algebra]: iter %d (%s): rejection without CLIP-ALG \
              codes [%s]\n"
             i sc.SF.name (show ds)
         end
       | exception e ->
         incr failures;
         Printf.eprintf "FAILURE [algebra]: iter %d (%s): plan raised %s\n" i
           sc.SF.name (Printexc.to_string e));
      let piped =
        match
          Clip_algebra.Pipeline.run_result ~minimum_cardinality:mc ~plan chain
            instance
        with
        | r -> Ok r
        | exception e -> Error e
      in
      let staged =
        match
          Clip_core.Engine.run_staged_result ~minimum_cardinality:mc ~plan chain
            instance
        with
        | r -> Ok r
        | exception e -> Error e
      in
      match (piped, staged) with
      | Error e, _ | _, Error e ->
        incr failures;
        Printf.eprintf "FAILURE [algebra]: iter %d (%s): raised %s\n" i
          sc.SF.name (Printexc.to_string e)
      | Ok (Ok a), Ok (Ok b) ->
        if not (Clip_xml.Node.equal a b) then begin
          incr failures;
          Printf.eprintf
            "FAILURE [algebra]: iter %d (%s): pipeline and staged outputs \
             differ\n"
            i sc.SF.name
        end
      | Ok (Error _), Ok (Error _) -> ()
      | Ok (Ok _), Ok (Error ds) | Ok (Error ds), Ok (Ok _) ->
        incr failures;
        Printf.eprintf
          "FAILURE [algebra]: iter %d (%s): one execution path failed [%s]\n" i
          sc.SF.name (show ds)
    done;
    Printf.printf "algebra sweep: %d random chain iterations\n%!"
      !algebra_iterations
  end

(* --- Main loop -------------------------------------------------------- *)

let () =
  let args =
    [
      ("--iterations", Arg.Set_int iterations, "N  number of fuzz iterations");
      ("--seed", Arg.Set_int seed, "S  PRNG seed");
      ("--corpus", Arg.Set_string corpus_dir, "DIR  corpus directory (default: examples)");
      ( "--faults",
        Arg.Set_int fault_iterations,
        "N  seeded fault-injection sweep iterations (default: 0)" );
      ( "--algebra",
        Arg.Set_int algebra_iterations,
        "N  random compose-chain differential sweep iterations (default: 0)" );
      ("--verbose", Arg.Set verbose, "  print each iteration");
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fuzz [--iterations N] [--seed S]";
  init_rng !seed;
  guard_checks ();
  let corpus = load_corpus () in
  Printf.printf "corpus: %d entries; %d iterations, seed %d\n%!"
    (List.length corpus) !iterations !seed;
  for i = 1 to !iterations do
    let base = pick corpus in
    let input =
      match rand 10 with
      | 0 -> splice (pick corpus) (pick corpus)
      | _ ->
        let rounds = 1 + rand 8 in
        let rec go s k = if k = 0 then s else go (mutate s) (k - 1) in
        go base rounds
    in
    let name, f = pick targets in
    if !verbose then Printf.eprintf "iter %d: %s (%d bytes)\n" i name (String.length input);
    run_target name f input
  done;
  Printf.printf
    "engine target: %d mappings parsed, %d oracle runs ok, %d plan comparisons\n%!"
    !engine_parsed !engine_oracle_ok !engine_compared;
  fault_sweep ();
  algebra_sweep ();
  if !failures > 0 then begin
    Printf.eprintf "fuzz: %d failure(s) after %d iterations\n" !failures !iterations;
    exit 1
  end
  else Printf.printf "fuzz: ok — %d iterations, 0 failures\n" !iterations
