type backend = [ `Tgd | `Xquery | `Xquery_text | `Rel ]
type mode = [ `Whole | `Sharded | `Auto ]

let ( let* ) = Result.bind
let ( let+ ) r f = Result.map f r

(* --- Single-document sharding ------------------------------------------ *)

(* The sharded paths below cut one large source document at the unit
   designated by {!Clip_shard.plan}, evaluate the shard documents
   through the unchanged per-backend executors — one fresh backend
   session per shard, the compiled tgd (and translated query) shared —
   and merge the per-shard targets into exactly the whole-document
   output. The whole-document path stays the oracle: [`Whole] touches
   none of this. *)

let default_shard_bytes = 1 lsl 20

(* Resolve the three-way mode against the static analysis and the
   concrete document. [`Sharded] shards whenever the analysis
   designates a safe cut and the document holds at least two units;
   [`Auto] additionally requires the document to overflow one shard
   budget, so small documents keep the zero-overhead whole path. *)
let decide ~mode ~minimum_cardinality ~shard_bytes (m : Mapping.t) tgd source =
  match mode with
  | `Whole -> Clip_shard.Whole "disabled, whole-document evaluation"
  | (`Sharded | `Auto) as mode -> (
      match
        Clip_shard.plan ~source:m.source ~target:m.target ~minimum_cardinality
          tgd
      with
      | Clip_shard.Whole _ as w -> w
      | Clip_shard.Sharded cut as d ->
          if Clip_shard.count_units cut source < 2 then
            Clip_shard.Whole "the document holds fewer than two shard units"
          else if mode = `Auto && Clip_shard.approx_bytes source <= shard_bytes
          then Clip_shard.Whole "the document fits within one shard budget"
          else d)

(* --- Sessions: the per-document cache state ---------------------------- *)

(* A session pins one source document and amortises everything that is
   per-document or per-mapping rather than per-run: the backends'
   sessions (tag index, instance statistics, compiled physical plans)
   and this layer's own compile caches (mapping -> tgd, tgd -> XQuery).
   Mapping and tgd values are pure data, so structural hashing is
   sound; a NaN-bearing mapping never hits its cache entry and is
   simply recompiled. *)
type session = {
  ssource : Clip_xml.Node.t;
  stgd : Clip_tgd.Eval.Session.t;
  sxq : Clip_xquery.Eval.Session.t;
  scompiled : (Mapping.t, Clip_tgd.Tgd.t) Hashtbl.t;
  stranslated : (string * Clip_tgd.Tgd.t, Clip_xquery.Ast.expr) Hashtbl.t;
  (* One-slot physical-identity fast paths in front of the structural
     tables: re-running the same mapping value skips the deep hash and
     equality, which on small documents costs as much as the run. *)
  mutable slast_tgd : (Mapping.t * Clip_tgd.Tgd.t) option;
  mutable slast_xq : (string * Clip_tgd.Tgd.t * Clip_xquery.Ast.expr) option;
}

let create_session source =
  {
    ssource = source;
    stgd = Clip_tgd.Eval.Session.create source;
    sxq = Clip_xquery.Eval.Session.create source;
    scompiled = Hashtbl.create 8;
    stranslated = Hashtbl.create 8;
    slast_tgd = None;
    slast_xq = None;
  }

(* Population is fault-safe by construction: the table gains its
   entry only after [compute] succeeds, so a failure mid-population
   (e.g. an injected [session.populate] fault) leaves the cache
   exactly as it was — never a poisoned entry. *)
let session_memo_result ?obs tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v ->
    Clip_obs.session_hit obs;
    Ok v
  | None ->
    let* () =
      Clip_diag.guard (fun () ->
          Clip_fault.hit ~obs Clip_fault.Site.session_populate)
    in
    let+ v = compute () in
    Hashtbl.add tbl key v;
    v

let session_tgd_result ?obs s m =
  match s.slast_tgd with
  | Some (m', tgd) when m' == m ->
    Clip_obs.session_hit obs;
    Ok tgd
  | _ ->
    let+ tgd =
      session_memo_result ?obs s.scompiled m (fun () ->
          Compile.to_tgd_result m)
    in
    s.slast_tgd <- Some (m, tgd);
    tgd

let session_xquery_result ?obs s ~target_root tgd =
  match s.slast_xq with
  | Some (r, tgd', q) when r = target_root && tgd' == tgd ->
    Clip_obs.session_hit obs;
    Ok q
  | _ ->
    let+ q =
      session_memo_result ?obs s.stranslated (target_root, tgd) (fun () ->
          To_xquery.translate_result ~target_root tgd)
    in
    s.slast_xq <- Some (target_root, tgd, q);
    q

(* --- The backend contract ---------------------------------------------- *)

(* What every execution backend must provide, made explicit: a
   shard-ready compiled form ([query]), whole-document evaluation
   through the session caches, per-shard evaluation against fresh
   backend state, and a static EXPLAIN. Every failure is a diagnostic.
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

  (* Compile the shard-ready [query]. With [?session] the translation
     goes through the session caches (emitting session-hit counters
     and the [session.populate] fault site); without — the streaming
     path, where no document-pinned session exists yet — it translates
     directly. Phase spans are recorded against [ctx]. *)
  val prepare_result :
    ?limits:Clip_diag.Limits.t ->
    ?obs:Clip_obs.Counters.t ->
    ctx:Clip_run.t ->
    ?session:session ->
    mapping:Mapping.t ->
    Clip_tgd.Tgd.t ->
    (query, Clip_diag.t list) result

  (* Whole-document evaluation over the session's pinned source,
     reusing the session's backend state. Phase spans ("translate",
     "parse", "execute") and counters flow through [ctx]. *)
  val eval_result :
    ?limits:Clip_diag.Limits.t ->
    ctx:Clip_run.t ->
    minimum_cardinality:bool ->
    ?plan:Clip_plan.mode ->
    session ->
    Mapping.t ->
    Clip_tgd.Tgd.t ->
    (Clip_xml.Node.t, Clip_diag.t list) result

  (* One shard through the backend executor, against fresh per-shard
     backend state (sessions are single-domain values, so every shard
     gets its own); cancellation and the deadline clock flow through
     the parent context's domain-safe [ctl]; the scratch sink [obs] is
     supplied by {!Clip_par}, which merges it so totals are exact. *)
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
    ?obs:Clip_obs.Counters.t ->
    ?plan:Clip_plan.mode ->
    session ->
    Mapping.t ->
    Clip_tgd.Tgd.t ->
    (string, Clip_diag.t list) result
end

(* Left unsealed so {!Rel_backend} can reuse it; the registry below
   checks it against [BACKEND]. *)
module Tgd_backend = struct
  (* The tgd engine evaluates the compiled tgd directly; its
     shard-ready form is just the tgd plus the target root. *)
  type query = string * Clip_tgd.Tgd.t

  let id : backend = `Tgd
  let name = "tgd"
  let doc = "direct evaluation of the compiled tgd"

  let prepare_result ?limits:_ ?obs:_ ~ctx:_ ?session:_
      ~mapping:(m : Mapping.t) tgd =
    Ok (m.target.root.name, tgd)

  let eval_result ?limits ~ctx ~minimum_cardinality ?plan s (m : Mapping.t)
      tgd =
    let obs = Clip_run.counters ctx in
    Clip_run.span ctx "execute" (fun () ->
      Clip_tgd.Eval.run_result ?limits ~minimum_cardinality ?plan
        ~ctl:(Clip_run.control ctx) ~session:s.stgd ?obs ~source:s.ssource
        ~target_root:m.target.root.name tgd)

  let eval_shard ?limits ~minimum_cardinality ?plan ~ctl ~obs ~steps_out
      (target_root, tgd) shard =
    Clip_tgd.Eval.run_result ?limits ~minimum_cardinality ?plan ~ctl
      ~session:(Clip_tgd.Eval.Session.create shard) ~steps_out ?obs
      ~source:shard ~target_root tgd

  let explain ?obs:_ ?plan s (_m : Mapping.t) tgd =
    Clip_diag.guard (fun () ->
        Clip_tgd.Eval.explain ?plan ~session:s.stgd ~source:s.ssource tgd)
end

(* The two XQuery backends differ only in the round-trip through the
   concrete syntax — parsing is deliberately not cached; it stands in
   for what an external processor would do per request. *)
module Make_xquery (C : sig
  val id : backend
  val name : string
  val doc : string
  val text : bool
end) : BACKEND = struct
  type query = Clip_xquery.Ast.expr

  let id = C.id
  let name = C.name
  let doc = C.doc

  let prepare_result ?limits ?obs ~ctx ?session ~mapping:(m : Mapping.t) tgd =
    let target_root = m.target.root.name in
    let* q =
      Clip_run.span ctx "translate" (fun () ->
          match session with
          | Some s -> session_xquery_result ?obs s ~target_root tgd
          | None -> To_xquery.translate_result ~target_root tgd)
    in
    if not C.text then Ok q
    else
      Clip_run.span ctx "parse" (fun () ->
          Clip_xquery.Parser.parse_string_result ?limits
            (Clip_xquery.Pretty.query_to_string q))

  let eval_result ?limits ~ctx ~minimum_cardinality:_ ?plan s (m : Mapping.t)
      tgd =
    let obs = Clip_run.counters ctx in
    let* query = prepare_result ?limits ?obs ~ctx ~session:s ~mapping:m tgd in
    Clip_run.span ctx "execute" (fun () ->
      Clip_xquery.Eval.run_document_result ?limits ?plan
        ~ctl:(Clip_run.control ctx) ~session:s.sxq ?obs ~input:s.ssource
        query)

  let eval_shard ?limits ~minimum_cardinality:_ ?plan ~ctl ~obs
      ~steps_out query shard =
    Clip_xquery.Eval.run_document_result ?limits ?plan ~ctl
      ~session:(Clip_xquery.Eval.Session.create shard) ~steps_out ?obs
      ~input:shard query

  let explain ?obs ?plan s (m : Mapping.t) tgd =
    let* query =
      session_xquery_result ?obs s ~target_root:m.target.root.name tgd
    in
    Clip_diag.guard (fun () ->
        Clip_xquery.Eval.explain ?plan ~session:s.sxq ~input:s.ssource query)
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

  let prepare_result ?limits ?obs ~ctx ?session ~mapping tgd =
    let* () = gate ~ctx mapping tgd in
    Tgd_backend.prepare_result ?limits ?obs ~ctx ?session ~mapping tgd

  let eval_result ?limits ~ctx ~minimum_cardinality ?plan s m tgd =
    let* () = gate ~ctx m tgd in
    Tgd_backend.eval_result ?limits ~ctx ~minimum_cardinality ?plan s m tgd

  (* The tgd plan, under this backend's header and a line naming the
     tables the gate found. *)
  let explain ?obs ?plan s m tgd =
    let* prog = compile m tgd in
    let+ text = Tgd_backend.explain ?obs ?plan s m tgd in
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

module Xquery_backend = Make_xquery (struct
  let id = `Xquery
  let name = "xquery"
  let doc = "generated query (Sec. VI), evaluated as an AST"
  let text = false
end)

module Xquery_text_backend = Make_xquery (struct
  let id = `Xquery_text
  let name = "xquery-text"
  let doc = "generated query round-tripped through its concrete syntax"
  let text = true
end)

(* --- The backend registry ---------------------------------------------- *)

type packed = Backend : (module BACKEND with type query = 'q) -> packed

let backends =
  [
    Backend (module Tgd_backend);
    Backend (module Rel_backend);
    Backend (module Xquery_backend);
    Backend (module Xquery_text_backend);
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

(* --- Shard orchestration ------------------------------------------------ *)

(* Cut a materialised document, evaluate the shards in parallel, merge.
   Each shard runs under its own full step budget — the budget bounds
   any single evaluation, not their sum. [Clip_par.map_results] lands
   every result in its input slot, so the error reported is the lowest
   shard index's — the one the sequential whole-document run would have
   hit first. *)
let sharded_run_result (type q) (module B : BACKEND with type query = q)
    ?limits ~ctx ~minimum_cardinality ?plan ?jobs ~shard_bytes ~cut
    ~(query : q) source =
  let obs = Clip_run.counters ctx in
  let ctl = Clip_run.control ctx in
  let shards = Clip_shard.shards_of_node cut ~budget_bytes:shard_bytes source in
  let rs =
    Clip_run.span ctx "execute" (fun () ->
        Clip_par.map_results ?jobs ?obs
          (fun ~obs shard ->
            B.eval_shard ?limits ~minimum_cardinality ?plan ~ctl ~obs
              ~steps_out:(ref 0) query shard)
          shards)
  in
  let rec split outs = function
    | [] -> Ok (List.rev outs)
    | Ok o :: rest -> split (o :: outs) rest
    | Error ds :: _ -> Error ds
  in
  let* outs = split [] rs in
  Clip_shard.merge ~unify:cut.Clip_shard.unify outs

(* --- Sessions: the public handle --------------------------------------- *)

module Session = struct
  type t = session

  let create = create_session
  let source s = s.ssource

  let run_result ?ctx ?limits ?(backend = `Tgd) ?(minimum_cardinality = true)
      ?plan ?(mode = `Whole) ?(shard_bytes = default_shard_bytes) ?jobs s
      (m : Mapping.t) =
    let ctx = match ctx with Some c -> c | None -> Clip_run.create () in
    let obs = Clip_run.counters ctx in
    let* () = check_ablation ~backend ~minimum_cardinality in
    let* tgd =
      Clip_run.span ctx "compile" (fun () -> session_tgd_result ?obs s m)
    in
    match backend_module backend with
    | Backend (module B) -> (
        match decide ~mode ~minimum_cardinality ~shard_bytes m tgd s.ssource with
        | Clip_shard.Whole _ ->
          B.eval_result ?limits ~ctx ~minimum_cardinality ?plan s m tgd
        | Clip_shard.Sharded cut ->
          let* query =
            B.prepare_result ?limits ?obs ~ctx ~session:s ~mapping:m tgd
          in
          sharded_run_result
            (module B)
            ?limits ~ctx ~minimum_cardinality ?plan ?jobs ~shard_bytes ~cut
            ~query s.ssource)
end

(* --- One-shot entry points --------------------------------------------- *)

(* A one-slot weak memo holding the most recent source document's
   session, scoped per execution context (stored in the context's memo
   slot through the extensible {!Clip_run.memo}). Repeated one-shot
   runs over the same document under one context — the common CLI and
   benchmark pattern — reuse its statistics, tag index, compiled tgds
   and physical plans without the caller managing a {!Session}. Keyed
   by physical identity; the ephemeron lets the document (and with it
   the session) be collected once the caller drops it, even though the
   session itself retains the document.

   Per-context scoping (rather than the former process-global slot)
   removes two hazards at once: domains running with their own
   contexts cannot race on the slot, and two callers alternating
   different documents cannot evict each other's session every run —
   each context keeps its own last document. Callers without a context
   fall back to the per-domain {!Clip_run.ambient} shim and so keep
   the old single-slot behaviour, now domain-local. *)
type Clip_run.memo += Session_memo of (Clip_xml.Node.t, session) Ephemeron.K1.t

let session_for ctx source =
  let hit =
    match Clip_run.memo ctx with
    | Some (Session_memo e) -> Ephemeron.K1.query e source
    | _ -> None
  in
  match hit with
  | Some s ->
    Clip_obs.session_hit (Clip_run.counters ctx);
    s
  | None ->
    let s = Session.create source in
    Clip_run.set_memo ctx (Session_memo (Ephemeron.K1.make source s));
    s

let resolve_ctx = function Some c -> c | None -> Clip_run.ambient ()

let ok_or_fail = function Ok v -> v | Error ds -> Clip_diag.fail_all ds

let run_result ?ctx ?limits ?backend ?minimum_cardinality ?plan ?mode
    ?shard_bytes ?jobs (m : Mapping.t) source =
  let ctx = resolve_ctx ctx in
  Session.run_result ~ctx ?limits ?backend ?minimum_cardinality ?plan ?mode
    ?shard_bytes ?jobs (session_for ctx source) m

let run ?ctx ?backend ?minimum_cardinality ?plan ?mode ?shard_bytes ?jobs
    (m : Mapping.t) source =
  ok_or_fail
    (run_result ?ctx ?backend ?minimum_cardinality ?plan ?mode ?shard_bytes
       ?jobs m source)

(* --- Staged pipelines -------------------------------------------------- *)

(* Run a chain of mappings stage by stage, the output document of each
   stage feeding the next, under one execution context — counters,
   tracer, deadline and cancellation are shared, and each stage's
   session is memoised per intermediate document as usual. The first
   failing stage aborts the chain. *)
let run_staged_result ?ctx ?limits ?backend ?minimum_cardinality ?plan ?mode
    ?shard_bytes ?jobs (ms : Mapping.t list) source =
  if ms = [] then invalid_arg "Engine.run_staged_result: empty chain";
  let ctx = resolve_ctx ctx in
  List.fold_left
    (fun doc m ->
      let* doc = doc in
      run_result ~ctx ?limits ?backend ?minimum_cardinality ?plan ?mode
        ?shard_bytes ?jobs m doc)
    (Ok source) ms

(* --- Streaming ingestion ----------------------------------------------- *)

(* Run a mapping over a byte stream. The fully streaming path — cutter
   feeding the ordered {!Clip_par.stream_results} pipeline feeding the
   merger — engages when sharding is designated and the shards carry no
   prologue, so only one in-flight window of shard documents is ever
   resident; every other case materialises the document first (the
   memory win is impossible anyway: the whole path needs the tree, and
   prologue-bearing shards need the whole prologue before the first
   unit can be cut loose). *)
let run_stream_result ?ctx ?limits ?(backend = `Tgd)
    ?(minimum_cardinality = true) ?plan ?(mode = `Auto)
    ?(shard_bytes = default_shard_bytes) ?jobs (m : Mapping.t) src =
  let ctx = resolve_ctx ctx in
  let obs = Clip_run.counters ctx in
  let materialise_then mode =
    let* doc =
      Clip_run.span ctx "parse" (fun () -> Clip_xml.Stream.parse_result src)
    in
    run_result ~ctx ?limits ~backend ~minimum_cardinality ?plan ~mode
      ~shard_bytes ?jobs m doc
  in
  let* () = check_ablation ~backend ~minimum_cardinality in
  match mode with
  | `Whole -> materialise_then `Whole
  | (`Sharded | `Auto) as mode -> (
      let* tgd =
        Clip_run.span ctx "compile" (fun () -> Compile.to_tgd_result m)
      in
      match
        Clip_shard.plan ~source:m.source ~target:m.target ~minimum_cardinality
          tgd
      with
      | Clip_shard.Whole _ -> materialise_then `Whole
      | Clip_shard.Sharded cut when cut.Clip_shard.needs_prologue ->
        (* Every shard carries the prologue, which is only complete
           once the whole document has been seen — materialise and
           let the tree cutter share subtrees instead. *)
        materialise_then (mode :> mode)
      | Clip_shard.Sharded cut -> (
          match backend_module backend with
          | Backend (module B) -> (
              (* No document-pinned session exists yet, so the query is
                 prepared sessionless — translation runs directly,
                 emitting no session-hit counters. *)
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
              | Clip_shard.Fallback_doc doc ->
                run_result ~ctx ?limits ~backend ~minimum_cardinality ?plan
                  ~mode:`Whole m doc
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
                      Clip_par.stream_results ?jobs ?obs ~produce
                        ~consume:(Clip_shard.merge_into merger)
                        (fun ~obs shard ->
                          B.eval_shard ?limits ~minimum_cardinality ?plan
                            ~ctl ~obs ~steps_out:(ref 0) query shard))
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
  let ctx = resolve_ctx ctx in
  let s = session_for ctx source in
  let obs = Clip_run.counters ctx in
  let* tgd =
    Clip_run.span ctx "compile" (fun () -> session_tgd_result ?obs s m)
  in
  Clip_run.span ctx "execute" (fun () ->
    Clip_tgd.Eval.run_traced_result ~minimum_cardinality ?plan
      ~ctl:(Clip_run.control ctx) ~session:s.stgd ?obs ~source
      ~target_root:m.target.root.name tgd)

(* EXPLAIN: compile (or translate) like a run would, then hand off to
   the backend's static plan renderer. Uses the same one-shot session
   memo as [run_result], so an explain right before or after a run over the
   same document shares its statistics instead of re-walking it. *)
let explain_result ?ctx ?(backend = `Tgd) ?plan ?mode
    ?(shard_bytes = default_shard_bytes) (m : Mapping.t) source =
  let ctx = resolve_ctx ctx in
  let s = session_for ctx source in
  let obs = Clip_run.counters ctx in
  let* tgd = session_tgd_result ?obs s m in
  let+ base =
    match backend_module backend with
    | Backend (module B) -> B.explain ?obs ?plan s m tgd
  in
  (* The sharding note only appears when a mode was asked for, keeping
     the default EXPLAIN output (and its goldens) untouched. *)
  match mode with
  | None -> base
  | Some mode ->
    let d =
      decide ~mode ~minimum_cardinality:true ~shard_bytes m tgd source
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
