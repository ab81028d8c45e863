type backend = [ `Tgd | `Xquery | `Xquery_text | `Rel ]
type mode = [ `Whole | `Sharded | `Auto ]

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
  srel : Clip_rel.Eval.Session.t;
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
    srel = Clip_rel.Eval.Session.create source;
    scompiled = Hashtbl.create 8;
    stranslated = Hashtbl.create 8;
    slast_tgd = None;
    slast_xq = None;
  }

(* Population is fault-safe by construction: the table gains its
   entry only after [compute] returns, so a failure mid-population
   (e.g. an injected [session.populate] fault) leaves the cache
   exactly as it was — never a poisoned entry. *)
let session_memo ?obs tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v ->
    Clip_obs.session_hit obs;
    v
  | None ->
    Clip_fault.hit ~obs Clip_fault.Site.session_populate;
    let v = compute () in
    Hashtbl.add tbl key v;
    v

let session_tgd ?obs s m =
  match s.slast_tgd with
  | Some (m', tgd) when m' == m ->
    Clip_obs.session_hit obs;
    tgd
  | _ ->
    let tgd = session_memo ?obs s.scompiled m (fun () -> Compile.to_tgd m) in
    s.slast_tgd <- Some (m, tgd);
    tgd

let session_tgd_result ?obs s m =
  match s.slast_tgd with
  | Some (m', tgd) when m' == m ->
    Clip_obs.session_hit obs;
    Ok tgd
  | _ ->
    (match Hashtbl.find_opt s.scompiled m with
     | Some tgd ->
       Clip_obs.session_hit obs;
       s.slast_tgd <- Some (m, tgd);
       Ok tgd
     | None ->
       (match
          Clip_diag.guard (fun () ->
              Clip_fault.hit ~obs Clip_fault.Site.session_populate)
        with
        | Error _ as e -> e
        | Ok () ->
          (match Compile.to_tgd_result m with
           | Error _ as e -> e
           | Ok tgd ->
             Hashtbl.add s.scompiled m tgd;
             s.slast_tgd <- Some (m, tgd);
             Ok tgd)))

let session_xquery ?obs s ~target_root tgd =
  match s.slast_xq with
  | Some (r, tgd', q) when r = target_root && tgd' == tgd ->
    Clip_obs.session_hit obs;
    q
  | _ ->
    let q =
      session_memo ?obs s.stranslated (target_root, tgd) (fun () ->
        To_xquery.translate ~target_root tgd)
    in
    s.slast_xq <- Some (target_root, tgd, q);
    q

let session_xquery_result ?obs s ~target_root tgd =
  match s.slast_xq with
  | Some (r, tgd', q) when r = target_root && tgd' == tgd ->
    Clip_obs.session_hit obs;
    Ok q
  | _ ->
    (match Hashtbl.find_opt s.stranslated (target_root, tgd) with
     | Some q ->
       Clip_obs.session_hit obs;
       s.slast_xq <- Some (target_root, tgd, q);
       Ok q
     | None ->
       (match
          Clip_diag.guard (fun () ->
              Clip_fault.hit ~obs Clip_fault.Site.session_populate)
        with
        | Error _ as e -> e
        | Ok () ->
          (match To_xquery.translate_result ~target_root tgd with
           | Error _ as e -> e
           | Ok q ->
             Hashtbl.add s.stranslated (target_root, tgd) q;
             s.slast_xq <- Some (target_root, tgd, q);
             Ok q)))

(* --- The backend contract ---------------------------------------------- *)

(* What every execution backend must provide, made explicit: a
   shard-ready compiled form ([query]), whole-document evaluation
   through the session caches, per-shard evaluation against fresh
   backend state, and a static EXPLAIN. Dispatch everywhere below is a
   lookup in {!backends} — a table of first-class modules — so a new
   backend is one module plus one table row, not another arm in every
   match. *)
module type BACKEND = sig
  (* Whatever per-run artifact shard evaluation needs beyond the shard
     document itself (the compiled tgd, a translated query, a compiled
     relational program). Prepared once per run, shared by every
     shard. *)
  type query

  val id : backend
  val name : string
  val doc : string

  (* Compile the shard-ready [query]. With [?session] the translation
     goes through the session caches (emitting session-hit counters
     and the [session.populate] fault site); without — the streaming
     path, where no document-pinned session exists yet — it translates
     directly. Phase spans are recorded against [ctx]. *)
  val prepare :
    ?obs:Clip_obs.Counters.t ->
    ctx:Clip_run.t ->
    ?session:session ->
    mapping:Mapping.t ->
    Clip_tgd.Tgd.t ->
    query

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
     "parse", "execute") and counters flow through [ctx]. Raises the
     backend's dynamic-error exceptions; [eval_result] reports them as
     diagnostics instead. *)
  val eval :
    ctx:Clip_run.t ->
    minimum_cardinality:bool ->
    ?plan:Clip_plan.mode ->
    ?steps_out:int ref ->
    session ->
    Mapping.t ->
    Clip_tgd.Tgd.t ->
    Clip_xml.Node.t

  val eval_result :
    ?limits:Clip_diag.Limits.t ->
    ctx:Clip_run.t ->
    minimum_cardinality:bool ->
    ?plan:Clip_plan.mode ->
    ?steps_out:int ref ->
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
    string
end

module Tgd_backend : BACKEND = struct
  (* The tgd engine evaluates the compiled tgd directly; its
     shard-ready form is just the tgd plus the target root. *)
  type query = string * Clip_tgd.Tgd.t

  let id = `Tgd
  let name = "tgd"
  let doc = "direct evaluation of the compiled tgd"

  let prepare ?obs:_ ~ctx:_ ?session:_ ~mapping:(m : Mapping.t) tgd =
    (m.target.root.name, tgd)

  let prepare_result ?limits:_ ?obs:_ ~ctx:_ ?session:_
      ~mapping:(m : Mapping.t) tgd =
    Ok (m.target.root.name, tgd)

  let eval ~ctx ~minimum_cardinality ?plan ?steps_out s (m : Mapping.t)
      tgd =
    let obs = Clip_run.counters ctx in
    Clip_run.span ctx "execute" (fun () ->
      Clip_tgd.Eval.run ~minimum_cardinality ?plan
        ~ctl:(Clip_run.control ctx) ~session:s.stgd ?steps_out ?obs
        ~source:s.ssource ~target_root:m.target.root.name tgd)

  let eval_result ?limits ~ctx ~minimum_cardinality ?plan ?steps_out s
      (m : Mapping.t) tgd =
    let obs = Clip_run.counters ctx in
    Clip_run.span ctx "execute" (fun () ->
      Clip_tgd.Eval.run_result ?limits ~minimum_cardinality ?plan
        ~ctl:(Clip_run.control ctx) ~session:s.stgd ?steps_out ?obs
        ~source:s.ssource ~target_root:m.target.root.name tgd)

  let eval_shard ?limits ~minimum_cardinality ?plan ~ctl ~obs ~steps_out
      (target_root, tgd) shard =
    Clip_tgd.Eval.run_result ?limits ~minimum_cardinality ?plan ~ctl
      ~session:(Clip_tgd.Eval.Session.create shard) ~steps_out ?obs
      ~source:shard ~target_root tgd

  let explain ?obs:_ ?plan s (_m : Mapping.t) tgd =
    Clip_tgd.Eval.explain ?plan ~session:s.stgd ~source:s.ssource tgd
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

  let translated ?obs ~ctx ?session ~target_root tgd =
    Clip_run.span ctx "translate" (fun () ->
        match session with
        | Some s -> session_xquery ?obs s ~target_root tgd
        | None -> To_xquery.translate ~target_root tgd)

  let reparse ~ctx q =
    if not C.text then q
    else
      Clip_run.span ctx "parse" (fun () ->
          Clip_xquery.Parser.parse_string
            (Clip_xquery.Pretty.query_to_string q))

  let prepare ?obs ~ctx ?session ~mapping:(m : Mapping.t) tgd =
    reparse ~ctx
      (translated ?obs ~ctx ?session ~target_root:m.target.root.name tgd)

  let prepare_result ?limits ?obs ~ctx ?session ~mapping:(m : Mapping.t) tgd =
    let target_root = m.target.root.name in
    match
      Clip_run.span ctx "translate" (fun () ->
          match session with
          | Some s -> session_xquery_result ?obs s ~target_root tgd
          | None -> To_xquery.translate_result ~target_root tgd)
    with
    | Error ds -> Error ds
    | Ok q ->
      if not C.text then Ok q
      else
        Clip_run.span ctx "parse" (fun () ->
            Clip_xquery.Parser.parse_string_result ?limits
              (Clip_xquery.Pretty.query_to_string q))

  let eval ~ctx ~minimum_cardinality ?plan ?steps_out s (m : Mapping.t)
      tgd =
    if not minimum_cardinality then
      invalid_arg
        "Engine.Session.run: the universal-solution ablation is only \
         available on the tgd backend";
    let obs = Clip_run.counters ctx in
    let query =
      reparse ~ctx
        (translated ?obs ~ctx ~session:s ~target_root:m.target.root.name tgd)
    in
    Clip_run.span ctx "execute" (fun () ->
      Clip_xquery.Eval.run_document ?plan ~ctl:(Clip_run.control ctx)
        ~session:s.sxq ?steps_out ?obs ~input:s.ssource query)

  let eval_result ?limits ~ctx ~minimum_cardinality ?plan ?steps_out s
      (m : Mapping.t) tgd =
    if not minimum_cardinality then
      invalid_arg
        "Engine.Session.run_result: the universal-solution ablation is \
         only available on the tgd backend";
    let obs = Clip_run.counters ctx in
    match
      prepare_result ?limits ?obs ~ctx ~session:s ~mapping:m tgd
    with
    | Error ds -> Error ds
    | Ok query ->
      Clip_run.span ctx "execute" (fun () ->
        Clip_xquery.Eval.run_document_result ?limits ?plan
          ~ctl:(Clip_run.control ctx) ~session:s.sxq ?steps_out ?obs
          ~input:s.ssource query)

  let eval_shard ?limits ~minimum_cardinality:_ ?plan ~ctl ~obs
      ~steps_out query shard =
    Clip_xquery.Eval.run_document_result ?limits ?plan ~ctl
      ~session:(Clip_xquery.Eval.Session.create shard) ~steps_out ?obs
      ~input:shard query

  let explain ?obs ?plan s (m : Mapping.t) tgd =
    let query =
      session_xquery ?obs s ~target_root:m.target.root.name tgd
    in
    Clip_xquery.Eval.explain ?plan ~session:s.sxq ~input:s.ssource query
end

(* The relational backend: for mappings whose source is
   relational-shaped, the shared tgd compiles to a static {!Clip_rel}
   program (a CLIP-REL-003 rejection otherwise) evaluated over an
   in-memory column store. Compilation is a schema walk — cheap enough
   not to need the session caches; the expensive per-document state
   (the store, compiled physical plans) lives in the rel session. *)
module Rel_backend : BACKEND = struct
  type query = Clip_rel.Program.t

  let id = `Rel
  let name = "rel"
  let doc = "columnar relational-algebra execution of relational-shaped sources"

  let prepare ?obs:_ ~ctx ?session:_ ~mapping:(m : Mapping.t) tgd =
    Clip_run.span ctx "translate" (fun () ->
        Clip_rel.Program.compile ~source:m.source
          ~target_root:m.target.root.name tgd)

  let prepare_result ?limits:_ ?obs:_ ~ctx ?session:_ ~mapping:(m : Mapping.t)
      tgd =
    Clip_run.span ctx "translate" (fun () ->
        Clip_rel.Program.compile_result ~source:m.source
          ~target_root:m.target.root.name tgd)

  let eval ~ctx ~minimum_cardinality ?plan ?steps_out s (m : Mapping.t)
      tgd =
    if not minimum_cardinality then
      invalid_arg
        "Engine.Session.run: the universal-solution ablation is only \
         available on the tgd backend";
    let obs = Clip_run.counters ctx in
    let query = prepare ?obs ~ctx ~session:s ~mapping:m tgd in
    Clip_run.span ctx "execute" (fun () ->
      Clip_rel.Eval.run ?plan ~ctl:(Clip_run.control ctx)
        ~session:s.srel ?steps_out ?obs ~source:s.ssource query)

  let eval_result ?limits ~ctx ~minimum_cardinality ?plan ?steps_out s
      (m : Mapping.t) tgd =
    if not minimum_cardinality then
      invalid_arg
        "Engine.Session.run_result: the universal-solution ablation is \
         only available on the tgd backend";
    let obs = Clip_run.counters ctx in
    match prepare_result ?limits ?obs ~ctx ~session:s ~mapping:m tgd with
    | Error ds -> Error ds
    | Ok query ->
      Clip_run.span ctx "execute" (fun () ->
        Clip_rel.Eval.run_result ?limits ?plan
          ~ctl:(Clip_run.control ctx) ~session:s.srel ?steps_out ?obs
          ~source:s.ssource query)

  let eval_shard ?limits ~minimum_cardinality:_ ?plan ~ctl ~obs
      ~steps_out query shard =
    Clip_rel.Eval.run_result ?limits ?plan ~ctl
      ~session:(Clip_rel.Eval.Session.create shard) ~steps_out ?obs
      ~source:shard query

  let explain ?obs:_ ?plan s (m : Mapping.t) tgd =
    let query =
      Clip_rel.Program.compile ~source:m.source
        ~target_root:m.target.root.name tgd
    in
    Clip_rel.Eval.explain ?plan ~session:s.srel ~source:s.ssource query
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

(* --- Shard orchestration ------------------------------------------------ *)

(* One shard through its backend module. Each shard runs under its own
   full step budget — the budget bounds any single evaluation, not
   their sum. *)
let eval_shard (type q) (module B : BACKEND with type query = q) ?limits
    ~minimum_cardinality ?plan ~ctl ~obs ~(query : q) shard =
  let steps = ref 0 in
  let r =
    B.eval_shard ?limits ~minimum_cardinality ?plan ~ctl ~obs
      ~steps_out:steps query shard
  in
  Result.map (fun out -> (out, !steps)) r

(* Cut a materialised document, evaluate the shards in parallel, merge.
   [Clip_par.map_results] lands every result in its input slot, so the
   error reported is the lowest shard index's — the one the sequential
   whole-document run would have hit first. *)
let sharded_run_result (type q) (module B : BACKEND with type query = q)
    ?limits ~ctx ~minimum_cardinality ?plan ?steps_out ?jobs
    ~shard_bytes ~cut ~(query : q) source =
  let obs = Clip_run.counters ctx in
  let ctl = Clip_run.control ctx in
  let shards = Clip_shard.shards_of_node cut ~budget_bytes:shard_bytes source in
  let rs =
    Clip_run.span ctx "execute" (fun () ->
        Clip_par.map_results ?jobs ?obs
          (fun ~obs shard ->
            eval_shard
              (module B)
              ?limits ~minimum_cardinality ?plan ~ctl ~obs ~query shard)
          shards)
  in
  let rec split outs = function
    | [] -> Ok (List.rev outs)
    | Ok o :: rest -> split (o :: outs) rest
    | Error ds :: _ -> Error ds
  in
  match split [] rs with
  | Error ds -> Error ds
  | Ok outs ->
      (match steps_out with
       | Some r -> r := List.fold_left (fun a (_, s) -> a + s) 0 outs
       | None -> ());
      Clip_shard.merge ~unify:cut.Clip_shard.unify (List.map fst outs)

(* --- Sessions: the public handle --------------------------------------- *)

module Session = struct
  type t = session

  let create = create_session
  let source s = s.ssource

  let run ?ctx ?(backend = `Tgd) ?(minimum_cardinality = true) ?plan
      ?steps_out ?(mode = `Whole) ?(shard_bytes = default_shard_bytes) ?jobs s
      (m : Mapping.t) =
    let ctx = match ctx with Some c -> c | None -> Clip_run.create () in
    let obs = Clip_run.counters ctx in
    let tgd = Clip_run.span ctx "compile" (fun () -> session_tgd ?obs s m) in
    match backend_module backend with
    | Backend (module B) -> (
        match
          decide ~mode ~minimum_cardinality ~shard_bytes m tgd s.ssource
        with
        | Clip_shard.Whole _ ->
          B.eval ~ctx ~minimum_cardinality ?plan ?steps_out s m tgd
        | Clip_shard.Sharded cut ->
          let query = B.prepare ?obs ~ctx ~session:s ~mapping:m tgd in
          (match
             sharded_run_result
               (module B)
               ~ctx ~minimum_cardinality ?plan ?steps_out ?jobs
               ~shard_bytes ~cut ~query s.ssource
           with
           | Ok out -> out
           | Error ds -> raise (Clip_diag.Fail ds)))

  let run_result ?ctx ?limits ?(backend = `Tgd) ?(minimum_cardinality = true)
      ?plan ?steps_out ?(mode = `Whole)
      ?(shard_bytes = default_shard_bytes) ?jobs s (m : Mapping.t) =
    let ctx = match ctx with Some c -> c | None -> Clip_run.create () in
    let obs = Clip_run.counters ctx in
    match
      Clip_run.span ctx "compile" (fun () -> session_tgd_result ?obs s m)
    with
    | Error ds -> Error ds
    | Ok tgd -> (
        match backend_module backend with
        | Backend (module B) -> (
            match
              decide ~mode ~minimum_cardinality ~shard_bytes m tgd s.ssource
            with
            | Clip_shard.Whole _ ->
              B.eval_result ?limits ~ctx ~minimum_cardinality ?plan
                ?steps_out s m tgd
            | Clip_shard.Sharded cut -> (
                match
                  B.prepare_result ?limits ?obs ~ctx ~session:s ~mapping:m tgd
                with
                | Error ds -> Error ds
                | Ok query ->
                  sharded_run_result
                    (module B)
                    ?limits ~ctx ~minimum_cardinality ?plan ?steps_out
                    ?jobs ~shard_bytes ~cut ~query s.ssource)))
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

let run ?ctx ?backend ?minimum_cardinality ?plan ?steps_out ?mode
    ?shard_bytes ?jobs (m : Mapping.t) source =
  let ctx = resolve_ctx ctx in
  Session.run ~ctx ?backend ?minimum_cardinality ?plan ?steps_out ?mode
    ?shard_bytes ?jobs (session_for ctx source) m

let run_result ?ctx ?limits ?backend ?minimum_cardinality ?plan
    ?steps_out ?mode ?shard_bytes ?jobs (m : Mapping.t) source =
  let ctx = resolve_ctx ctx in
  Session.run_result ~ctx ?limits ?backend ?minimum_cardinality ?plan
    ?steps_out ?mode ?shard_bytes ?jobs (session_for ctx source) m

(* --- Staged pipelines -------------------------------------------------- *)

(* Run a chain of mappings stage by stage, the output document of each
   stage feeding the next, under one execution context — counters,
   tracer, deadline and cancellation are shared, and each stage's
   session is memoised per intermediate document as usual. The first
   failing stage aborts the chain. *)
let run_staged_result ?ctx ?limits ?backend ?minimum_cardinality ?plan
    ?steps_out ?mode ?shard_bytes ?jobs (ms : Mapping.t list) source =
  if ms = [] then invalid_arg "Engine.run_staged_result: empty chain";
  let ctx = resolve_ctx ctx in
  let total = ref 0 in
  let stage_steps = ref 0 in
  let rec go doc = function
    | [] -> Ok doc
    | m :: rest ->
      stage_steps := 0;
      (match
         run_result ~ctx ?limits ?backend ?minimum_cardinality ?plan
           ~steps_out:stage_steps ?mode ?shard_bytes ?jobs m doc
       with
       | Ok out ->
         total := !total + !stage_steps;
         go out rest
       | Error _ as e -> e)
  in
  let r = go source ms in
  (match steps_out with Some out -> out := !total | None -> ());
  r

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
    ?(minimum_cardinality = true) ?plan ?steps_out ?(mode = `Auto)
    ?(shard_bytes = default_shard_bytes) ?jobs (m : Mapping.t) src =
  let ctx = resolve_ctx ctx in
  let obs = Clip_run.counters ctx in
  let materialise_then mode =
    match
      Clip_run.span ctx "parse" (fun () -> Clip_xml.Stream.parse_result src)
    with
    | Error ds -> Error ds
    | Ok doc ->
      run_result ~ctx ?limits ~backend ~minimum_cardinality ?plan
        ?steps_out ~mode ~shard_bytes ?jobs m doc
  in
  match mode with
  | `Whole -> materialise_then `Whole
  | (`Sharded | `Auto) as mode -> (
      match Clip_run.span ctx "compile" (fun () -> Compile.to_tgd_result m) with
      | Error ds -> Error ds
      | Ok tgd -> (
          match
            Clip_shard.plan ~source:m.source ~target:m.target
              ~minimum_cardinality tgd
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
                  (* No document-pinned session exists yet, so the
                     query is prepared sessionless — translation runs
                     directly, emitting no session-hit counters. *)
                  match B.prepare_result ?limits ~ctx ~mapping:m tgd with
                  | Error ds -> Error ds
                  | Ok query -> (
                      let ctl = Clip_run.control ctx in
                      let cutter =
                        Clip_shard.cutter cut ~budget_bytes:shard_bytes src
                      in
                      (* The first pull decides between streaming and the
                         root-mismatch fallback; [Fallback_doc] can only be
                         the first result, and a cutter never starts with
                         [Exhausted] — end of input without a root element
                         is a parse error. *)
                      match Clip_shard.next_shard cutter with
                      | Error ds -> Error ds
                      | Ok Clip_shard.Exhausted -> assert false
                      | Ok (Clip_shard.Fallback_doc doc) ->
                        run_result ~ctx ?limits ~backend ~minimum_cardinality
                          ?plan ?steps_out ~mode:`Whole m doc
                      | Ok (Clip_shard.Shard first) -> (
                          let pending = ref (Some first) in
                          let produce () =
                            match !pending with
                            | Some n ->
                              pending := None;
                              Ok (Some n)
                            | None -> (
                                match Clip_shard.next_shard cutter with
                                | Error ds -> Error ds
                                | Ok (Clip_shard.Shard n) -> Ok (Some n)
                                | Ok Clip_shard.Exhausted -> Ok None
                                | Ok (Clip_shard.Fallback_doc _) ->
                                  assert false)
                          in
                          let merger =
                            Clip_shard.merger ~unify:cut.Clip_shard.unify
                          in
                          let steps = ref 0 in
                          let consume (out, s) =
                            steps := !steps + s;
                            Clip_shard.merge_into merger out
                          in
                          match
                            Clip_run.span ctx "execute" (fun () ->
                                Clip_par.stream_results ?jobs ?obs ~produce
                                  ~consume (fun ~obs shard ->
                                    eval_shard
                                      (module B)
                                      ?limits ~minimum_cardinality ?plan
                                      ~ctl ~obs ~query shard))
                          with
                          | Error ds -> Error ds
                          | Ok () -> (
                              (match steps_out with
                               | Some r -> r := !steps
                               | None -> ());
                              match Clip_shard.merged merger with
                              | Some doc -> Ok doc
                              | None -> assert false)))))))

let run_stream ?ctx ?limits ?backend ?minimum_cardinality ?plan
    ?steps_out ?mode ?shard_bytes ?jobs m src =
  match
    run_stream_result ?ctx ?limits ?backend ?minimum_cardinality ?plan
      ?steps_out ?mode ?shard_bytes ?jobs m src
  with
  | Ok doc -> doc
  | Error ds -> raise (Clip_diag.Fail ds)

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

let run_traced ?ctx ?(minimum_cardinality = true) ?plan (m : Mapping.t) source =
  let ctx = resolve_ctx ctx in
  let s = session_for ctx source in
  let obs = Clip_run.counters ctx in
  let tgd = Clip_run.span ctx "compile" (fun () -> session_tgd ?obs s m) in
  Clip_run.span ctx "execute" (fun () ->
    Clip_tgd.Eval.run_traced ~minimum_cardinality ?plan
      ~ctl:(Clip_run.control ctx) ~session:s.stgd ?obs ~source
      ~target_root:m.target.root.name tgd)

(* EXPLAIN: compile (or translate) like a run would, then hand off to
   the backend's static plan renderer. Uses the same one-shot session
   memo as [run], so an explain right before or after a run over the
   same document shares its statistics instead of re-walking it. *)
let explain ?ctx ?(backend = `Tgd) ?plan ?mode
    ?(shard_bytes = default_shard_bytes) (m : Mapping.t) source =
  let ctx = resolve_ctx ctx in
  let s = session_for ctx source in
  let obs = Clip_run.counters ctx in
  let tgd = session_tgd ?obs s m in
  let base =
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

let explain_result ?ctx ?backend ?plan ?mode ?shard_bytes (m : Mapping.t)
    source =
  Clip_diag.guard (fun () -> explain ?ctx ?backend ?plan ?mode ?shard_bytes m source)

let xquery_text (m : Mapping.t) =
  let tgd = Compile.to_tgd m in
  Clip_xquery.Pretty.query_to_string
    (To_xquery.translate ~target_root:m.target.root.name tgd)

let tgd_text ?unicode (m : Mapping.t) =
  Clip_tgd.Pretty.to_string ?unicode (Compile.to_tgd m)
