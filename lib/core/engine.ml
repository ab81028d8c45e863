type backend = [ `Tgd | `Xquery | `Rel ]
type mode = [ `Whole | `Sharded ]

let ( let* ) = Result.bind
let ( let+ ) r f = Result.map f r

let default_shard_bytes = 1 lsl 20

(* Every run compiles its mapping; nothing is kept for the next run. *)
let compile_result ~ctx m =
  Clip_run.span ctx "compile" (fun () -> Compile.to_tgd_result m)

(* --- The backend contract ---------------------------------------------- *)

(* What every execution backend must provide, made explicit: a
   shard-ready compiled form ([query]), whole-document evaluation,
   per-shard evaluation, and a static EXPLAIN. Every failure is a diagnostic.
   Dispatch everywhere below is a lookup in {!backends} — a table of
   first-class modules — so a new backend is one module plus one table
   row, not another arm in every match. *)
module type BACKEND = sig
  (* Whatever per-run artifact shard evaluation needs beyond the shard
     document itself (the compiled tgd, a translated query). Prepared
     once per run, shared by every shard. *)
  type query

  val id : backend
  val name : string
  val doc : string

  (* Compile the shard-ready [query]. Phase spans are recorded against
     [ctx]. *)
  val prepare_result :
    ?limits:Clip_diag.Limits.t ->
    ctx:Clip_run.t ->
    mapping:Mapping.t ->
    Clip_tgd.Tgd.t ->
    (query, Clip_diag.t list) result

  (* Whole-document evaluation of the source document. Phase spans
     ("translate", "execute") and counters flow through [ctx]. *)
  val eval_result :
    ?limits:Clip_diag.Limits.t ->
    ctx:Clip_run.t ->
    minimum_cardinality:bool ->
    ?plan:Clip_plan.mode ->
    Clip_xml.Node.t ->
    Mapping.t ->
    Clip_tgd.Tgd.t ->
    (Clip_xml.Node.t, Clip_diag.t list) result

  (* One shard through the backend executor; cancellation and the
     deadline clock flow through the parent context's domain-safe
     [ctl]; the scratch record [obs] is supplied by {!Clip_par}, which
     merges it so totals are exact. [steps_out] receives the shard's
     budget steps, its increase of [lim_ticks]. *)
  val eval_shard :
    ?limits:Clip_diag.Limits.t ->
    minimum_cardinality:bool ->
    ?plan:Clip_plan.mode ->
    ctl:Clip_run.Control.t ->
    obs:Clip_obs.Counters.t option ->
    steps_out:int ref ->
    query ->
    Clip_xml.Node.t ->
    (Clip_xml.Node.t, Clip_diag.t list) result

  (* The static, deterministic plan renderer behind [clip explain]. *)
  val explain :
    ?plan:Clip_plan.mode ->
    Clip_xml.Node.t ->
    Mapping.t ->
    Clip_tgd.Tgd.t ->
    (string, Clip_diag.t list) result
end

(* A shard run counts into [obs] (a fresh record when [None]) and
   reports its budget steps, the increase of [lim_ticks], in
   [steps_out], even when it fails. *)
let counted_shard ~obs ~steps_out run =
  let obs = match obs with Some c -> c | None -> Clip_obs.Counters.create () in
  let start = obs.Clip_obs.Counters.lim_ticks in
  Fun.protect
    ~finally:(fun () -> steps_out := obs.lim_ticks - start)
    (fun () -> run obs)

(* Left unsealed so {!Rel_backend} can reuse it; the registry below
   checks it against [BACKEND]. *)
module Tgd_backend = struct
  (* The tgd engine evaluates the compiled tgd directly; its
     shard-ready form is just the tgd plus the target root. *)
  type query = string * Clip_tgd.Tgd.t

  let id : backend = `Tgd
  let name = "tgd"
  let doc = "direct evaluation of the compiled tgd"

  let prepare_result ?limits:_ ~ctx:_ ~mapping:(m : Mapping.t) tgd =
    Ok (m.target.root.name, tgd)

  let eval_result ?limits ~ctx ~minimum_cardinality ?plan source
      (m : Mapping.t) tgd =
    Clip_run.span ctx "execute" (fun () ->
      Clip_tgd.Eval.run_result ?limits ~minimum_cardinality ?plan
        ~ctl:(Clip_run.control ctx) ~obs:(Clip_run.counters ctx) ~source
        ~target_root:m.target.root.name tgd)

  let eval_shard ?limits ~minimum_cardinality ?plan ~ctl ~obs ~steps_out
      (target_root, tgd) shard =
    counted_shard ~obs ~steps_out (fun obs ->
        Clip_tgd.Eval.run_result ?limits ~minimum_cardinality ?plan ~ctl ~obs
          ~source:shard ~target_root tgd)

  let explain ?plan source (_m : Mapping.t) tgd =
    Clip_diag.guard (fun () -> Clip_tgd.Eval.explain ?plan ~source tgd)
end

(* The XQuery backend: the tgd translated to the query of Sec. VI,
   evaluated as an AST. *)
module Xquery_backend : BACKEND = struct
  type query = Clip_xquery.Ast.expr

  let id = `Xquery
  let name = "xquery"
  let doc = "generated query (Sec. VI), evaluated as an AST"

  let prepare_result ?limits:_ ~ctx ~mapping:(m : Mapping.t) tgd =
    Clip_run.span ctx "translate" (fun () ->
        To_xquery.translate_result ~target_root:m.target.root.name tgd)

  let eval_result ?limits ~ctx ~minimum_cardinality:_ ?plan source
      (m : Mapping.t) tgd =
    let* query = prepare_result ?limits ~ctx ~mapping:m tgd in
    Clip_run.span ctx "execute" (fun () ->
      Clip_xquery.Eval.run_document_result ?limits ?plan
        ~ctl:(Clip_run.control ctx) ~obs:(Clip_run.counters ctx)
        ~input:source query)

  let eval_shard ?limits ~minimum_cardinality:_ ?plan ~ctl ~obs
      ~steps_out query shard =
    counted_shard ~obs ~steps_out (fun obs ->
        Clip_xquery.Eval.run_document_result ?limits ?plan ~ctl ~obs
          ~input:shard query)

  let explain ?plan source (m : Mapping.t) tgd =
    let* query =
      To_xquery.translate_result ~target_root:m.target.root.name tgd
    in
    Clip_diag.guard (fun () ->
        Clip_xquery.Eval.explain ?plan ~input:source query)
end

(* The relational backend: a relational-shape gate in front of the tgd
   engine. A relational source is the flat special case of the nested
   tgd semantics (Sec. IV), so an accepted mapping runs exactly the tgd
   path; a source that is not relational-shaped is rejected statically
   with CLIP-REL-003 by {!Clip_rel.Program.compile_result}, the same
   check that stands in front of [clip sql]. *)
module Rel_backend : BACKEND = struct
  include Tgd_backend

  let id = `Rel
  let name = "rel"
  let doc = "the tgd engine behind a relational-shape gate (CLIP-REL-003)"

  let compile (m : Mapping.t) tgd =
    Clip_rel.Program.compile_result ~source:m.source
      ~target_root:m.target.root.name tgd

  let gate ~ctx m tgd =
    Clip_run.span ctx "translate" (fun () -> Result.map ignore (compile m tgd))

  let prepare_result ?limits ~ctx ~mapping tgd =
    let* () = gate ~ctx mapping tgd in
    Tgd_backend.prepare_result ?limits ~ctx ~mapping tgd

  let eval_result ?limits ~ctx ~minimum_cardinality ?plan source m tgd =
    let* () = gate ~ctx m tgd in
    Tgd_backend.eval_result ?limits ~ctx ~minimum_cardinality ?plan source m
      tgd

  (* The tgd plan, under this backend's header and a line naming the
     tables the gate found. *)
  let explain ?plan source m tgd =
    let* prog = compile m tgd in
    let+ text = Tgd_backend.explain ?plan source m tgd in
    let body =
      match String.index_opt text '\n' with
      | Some i -> String.sub text (i + 1) (String.length text - i - 1)
      | None -> ""
    in
    let shape = prog.Clip_rel.Program.shape in
    Printf.sprintf "backend: rel\nsource: relational, %d table(s) (%s)\n%s"
      (List.length shape.Clip_rel.Shape.tables)
      (String.concat ", " (Clip_rel.Shape.table_names shape))
      body
end

(* --- The backend registry ---------------------------------------------- *)

type packed = Backend : (module BACKEND with type query = 'q) -> packed

let backends =
  [
    Backend (module Tgd_backend);
    Backend (module Rel_backend);
    Backend (module Xquery_backend);
  ]

let backend_module (id : backend) =
  List.find (fun (Backend (module B)) -> B.id = id) backends

let backend_of_name name =
  List.find_opt (fun (Backend (module B)) -> B.name = name) backends

let backend_names =
  List.map (fun (Backend (module B)) -> (B.name, B.id)) backends

(* The universal-solution ablation ([~minimum_cardinality:false]) turns
   completion generators into driven ones; only the tgd engine
   implements it, so every run entry point rejects it up front on the
   other backends. *)
let check_ablation ~backend ~minimum_cardinality =
  if minimum_cardinality || backend = `Tgd then Ok ()
  else
    match backend_module backend with
    | Backend (module B) ->
      Error
        [
          Clip_diag.errorf ~code:Clip_diag.Codes.ablation_backend
            "the universal-solution ablation (minimum cardinality off) is \
             only available on the tgd backend, not %s"
            B.name;
        ]

(* --- One-shot entry points --------------------------------------------- *)

let fresh_ctx = function Some c -> c | None -> Clip_run.create ()

let ok_or_fail = function Ok v -> v | Error ds -> Clip_diag.fail_all ds

(* Run an already compiled mapping over a materialised document. *)
let run_compiled ~ctx ?limits ~backend ~minimum_cardinality ?plan
    (m : Mapping.t) tgd source =
  match backend_module backend with
  | Backend (module B) ->
    B.eval_result ?limits ~ctx ~minimum_cardinality ?plan source m tgd

let run_result ?ctx ?limits ?(backend = `Tgd) ?(minimum_cardinality = true)
    ?plan (m : Mapping.t) source =
  let ctx = fresh_ctx ctx in
  let* () = check_ablation ~backend ~minimum_cardinality in
  let* tgd = compile_result ~ctx m in
  run_compiled ~ctx ?limits ~backend ~minimum_cardinality ?plan m tgd source

let run ?ctx ?backend ?minimum_cardinality ?plan (m : Mapping.t) source =
  ok_or_fail (run_result ?ctx ?backend ?minimum_cardinality ?plan m source)

(* --- Staged pipelines -------------------------------------------------- *)

(* Run a chain of mappings stage by stage, the output document of each
   stage feeding the next, under one execution context — counters,
   tracer, deadline and cancellation are shared. The first failing
   stage aborts the chain. *)
let run_staged_result ?ctx ?limits ?backend ?minimum_cardinality ?plan
    (ms : Mapping.t list) source =
  if ms = [] then invalid_arg "Engine.run_staged_result: empty chain";
  let ctx = fresh_ctx ctx in
  List.fold_left
    (fun doc m ->
      let* doc = doc in
      run_result ~ctx ?limits ?backend ?minimum_cardinality ?plan m doc)
    (Ok source) ms

(* --- Streaming ingestion ----------------------------------------------- *)

(* Where a [`Sharded] stream run cuts, decided from the mapping alone:
   the cut {!Clip_shard.plan} designates, unless its shards would need
   the document prologue — that is only complete once the whole
   document has been read, so such a run materialises and evaluates
   the whole document instead. *)
let stream_decision ~minimum_cardinality (m : Mapping.t) tgd =
  match
    Clip_shard.plan ~source:m.source ~target:m.target ~minimum_cardinality tgd
  with
  | Clip_shard.Sharded { needs_prologue = true; _ } ->
    Clip_shard.Whole
      "the mapping reads source paths outside the shard unit (the \
       document prologue), which is complete only once the whole document \
       is read"
  | d -> d

(* Run a mapping over a byte stream. On a designated cut the cutter
   feeds the ordered {!Clip_par.stream_results} pipeline, which feeds
   the merger, so only one in-flight window of shard documents is ever
   resident; every other case materialises the document and evaluates
   it whole. *)
let run_stream_result ?ctx ?limits ?(backend = `Tgd)
    ?(minimum_cardinality = true) ?plan ?(mode = `Sharded)
    ?(shard_bytes = default_shard_bytes) ?jobs (m : Mapping.t) src =
  let ctx = fresh_ctx ctx in
  let obs = Clip_run.counters ctx in
  let parse () =
    Clip_run.span ctx "parse" (fun () -> Clip_xml.Stream.parse_result src)
  in
  let* () = check_ablation ~backend ~minimum_cardinality in
  match mode with
  | `Whole ->
    let* doc = parse () in
    run_result ~ctx ?limits ~backend ~minimum_cardinality ?plan m doc
  | `Sharded -> (
      let* tgd = compile_result ~ctx m in
      let whole doc =
        run_compiled ~ctx ?limits ~backend ~minimum_cardinality ?plan m tgd doc
      in
      match stream_decision ~minimum_cardinality m tgd with
      | Clip_shard.Whole _ ->
        let* doc = parse () in
        whole doc
      | Clip_shard.Sharded cut -> (
          match backend_module backend with
          | Backend (module B) -> (
              let* query = B.prepare_result ?limits ~ctx ~mapping:m tgd in
              let ctl = Clip_run.control ctx in
              let cutter =
                Clip_shard.cutter cut ~budget_bytes:shard_bytes src
              in
              (* The first pull decides between streaming and the
                 root-mismatch fallback; [Fallback_doc] can only be the
                 first result, and a cutter never starts with
                 [Exhausted] — end of input without a root element is a
                 parse error. *)
              let* first = Clip_shard.next_shard cutter in
              match first with
              | Clip_shard.Exhausted -> assert false
              | Clip_shard.Fallback_doc doc -> whole doc
              | Clip_shard.Shard first ->
                let pending = ref (Some first) in
                let produce () =
                  match !pending with
                  | Some n ->
                    pending := None;
                    Ok (Some n)
                  | None -> (
                      let+ next = Clip_shard.next_shard cutter in
                      match next with
                      | Clip_shard.Shard n -> Some n
                      | Clip_shard.Exhausted -> None
                      | Clip_shard.Fallback_doc _ -> assert false)
                in
                let merger = Clip_shard.merger ~unify:cut.Clip_shard.unify in
                let* () =
                  Clip_run.span ctx "execute" (fun () ->
                      Clip_par.stream_results ?jobs ~obs ~produce
                        ~consume:(Clip_shard.merge_into merger)
                        (fun ~obs shard ->
                          B.eval_shard ?limits ~minimum_cardinality ?plan
                            ~ctl ~obs:(Some obs) ~steps_out:(ref 0) query
                            shard))
                in
                (match Clip_shard.merged merger with
                 | Some doc -> Ok doc
                 | None -> assert false))))

(* Every diagnostic for a mapping, in one pass: all validity issues
   (warnings included), then — when validity allows compiling — any
   compile- or XQuery-translation-stage errors. *)
let diagnose (m : Mapping.t) =
  let issues = List.map Compile.issue_to_diag (Validity.check m) in
  let later =
    if Clip_diag.has_errors issues then []
    else
      match Compile.to_tgd_unchecked_result m with
      | Error ds -> ds
      | Ok tgd ->
        (match To_xquery.translate_result ~target_root:m.target.root.name tgd with
         | Error ds -> ds
         | Ok _ -> [])
  in
  issues @ later

let run_traced_result ?ctx ?(minimum_cardinality = true) ?plan (m : Mapping.t)
    source =
  let ctx = fresh_ctx ctx in
  let* tgd = compile_result ~ctx m in
  Clip_run.span ctx "execute" (fun () ->
    Clip_tgd.Eval.run_traced_result ~minimum_cardinality ?plan
      ~ctl:(Clip_run.control ctx) ~obs:(Clip_run.counters ctx) ~source
      ~target_root:m.target.root.name tgd)

(* EXPLAIN: compile (or translate) like a run would, then hand off to
   the backend's static plan renderer. *)
let explain_result ?(backend = `Tgd) ?plan ?mode (m : Mapping.t) source =
  let* tgd = Compile.to_tgd_result m in
  let+ base =
    match backend_module backend with
    | Backend (module B) -> B.explain ?plan source m tgd
  in
  (* The sharding note only appears when a mode was asked for, keeping
     the default EXPLAIN output (and its goldens) untouched. It names
     what {!run_stream_result} does with the same mode and document:
     the root check is the cutter's first pull. *)
  match mode with
  | None -> base
  | Some mode ->
    let d =
      match mode with
      | `Whole -> Clip_shard.Whole "disabled, whole-document evaluation"
      | `Sharded -> (
          match stream_decision ~minimum_cardinality:true m tgd, source with
          | Clip_shard.Sharded { containers = c0 :: _; _ }, Clip_xml.Node.Element e
            when not (String.equal e.tag c0) ->
            Clip_shard.Whole
              (Printf.sprintf "the document root <%s> is not <%s>" e.tag c0)
          | d, _ -> d)
    in
    let base =
      if base = "" || base.[String.length base - 1] = '\n' then base
      else base ^ "\n"
    in
    base ^ Clip_shard.decision_note d ^ "\n"

let xquery_text (m : Mapping.t) =
  ok_or_fail
    (let* tgd = Compile.to_tgd_result m in
     let+ q = To_xquery.translate_result ~target_root:m.target.root.name tgd in
     Clip_xquery.Pretty.query_to_string q)

let tgd_text ?unicode (m : Mapping.t) =
  Clip_tgd.Pretty.to_string ?unicode (ok_or_fail (Compile.to_tgd_result m))
