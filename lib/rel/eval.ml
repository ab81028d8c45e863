module Xml = Clip_xml
module Doc = Clip_xml.Doc
module Path = Clip_schema.Path
module Value = Clip_xquery.Value
module Tgd = Clip_tgd.Tgd
module Term = Clip_tgd.Term
module Builder = Clip_tgd.Builder

(* Evaluation context: the pinned source document, its converted
   columnar form and per-shape store (both memo slots, so a session
   amortises them across runs), and the per-run budget/observability
   state — reset by [execute] exactly like the tgd context. *)
type rctx = {
  source : Xml.Node.t;
  mutable xdoc : Doc.t option;
  mutable store : (Shape.t * Store.t) option;
  steps : int ref;
  mutable max_steps : int;
  mutable obs : Clip_obs.sink;
  mutable ctl : Clip_run.Control.t;
}

let make_ctx source =
  {
    source;
    xdoc = None;
    store = None;
    steps = ref 0;
    max_steps = max_int;
    obs = Clip_obs.none;
    ctl = Clip_run.Control.none;
  }

let force_doc ctx =
  match ctx.xdoc with
  | Some d -> d
  | None ->
    let d = Doc.of_node ctx.source in
    ctx.xdoc <- Some d;
    d

(* The store depends on the program's shape; one slot suffices because
   an engine session replays the same mapping against its document, and
   a shape change simply rebuilds (old plans keep their own store
   reference — same document, still sound). *)
let force_store ctx (shape : Shape.t) =
  match ctx.store with
  | Some (sh, st) when sh = shape -> st
  | _ ->
    let st = Store.build shape (force_doc ctx) in
    ctx.store <- Some (shape, st);
    st

let check_control ctx =
  Clip_obs.ctl_check ctx.obs;
  match Clip_run.Control.check ctx.ctl with
  | None -> ()
  | Some d -> Clip_diag.fail d

(* Same budget discipline as the tgd engine: every generator item and
   scalar evaluation is a step against [limits.max_eval_steps]
   (CLIP-LIM-004), with the deadline/cancellation poll amortised to one
   clock read per 64 steps. Step totals are the rel backend's own — the
   backends agree on documents, not on step counts. *)
let tick ctx =
  incr ctx.steps;
  Clip_obs.lim_tick ctx.obs;
  if !(ctx.steps) > ctx.max_steps then
    Clip_diag.fail
      (Clip_diag.error ~code:Clip_diag.Codes.limit_eval_steps
         ~hints:
           [ "raise [limits.max_eval_steps] if the mapping is expected to be this large" ]
         (Printf.sprintf "evaluation exceeded the budget of %d steps" ctx.max_steps));
  if !(ctx.steps) land 63 = 0 && not (Clip_run.Control.is_none ctx.ctl) then
    check_control ctx

(* Environments bind source variables to table rows and target
   variables to build nodes of the shared {!Clip_tgd.Builder} core. *)
type binding = Brow of Store.table * int | Btgt of Builder.bnode

module Env = Map.Make (String)

(* --- Source-side evaluation ------------------------------------------ *)

(* The generic item walk — the semantics oracle the columnar fast paths
   must agree with. It mirrors the tgd backend's [eval_src]/[step_items]
   over the boxed tree (same matches, same order, same dynamic error
   messages), which is what makes the two backends' dynamic errors
   byte-identical. Only the rare shapes reach it: aggregate arguments,
   scalars outside the two column forms, and [Store.fallback] cells. *)
let step_item (item : Value.item) (step : Path.step) : Value.item list =
  match (item, step) with
  | Value.Node (Xml.Node.Element e), Path.Child tag ->
    let sym = Xml.Symbol.intern tag in
    List.filter_map
      (function
        | Xml.Node.Element c when Xml.Symbol.equal c.Xml.Node.sym sym ->
          Some (Value.Node (Xml.Node.Element c))
        | Xml.Node.Element _ | Xml.Node.Text _ -> None)
      e.Xml.Node.children
  | Value.Node (Xml.Node.Element e), Path.Attr name ->
    (match Xml.Node.attr e name with Some a -> [ Value.Atomic a ] | None -> [])
  | Value.Node (Xml.Node.Element e), Path.Value ->
    (match Xml.Node.text_value e with Some a -> [ Value.Atomic a ] | None -> [])
  | (Value.Node (Xml.Node.Text _) | Value.Atomic _), _ -> []

let rec items_of ctx (store : Store.t) env (e : Term.expr) : Value.item list =
  tick ctx;
  match e with
  | Term.Root s ->
    (match store.Store.root_tag with
     | Some r when String.equal r s ->
       [ Value.Node store.Store.doc.Doc.nodes.(0) ]
     | Some r -> Builder.error "source root is <%s>, the mapping expects <%s>" r s
     | None -> Builder.error "source document root is a text node")
  | Term.Var x ->
    (match Env.find_opt x env with
     | Some (Brow (tbl, i)) -> [ Value.Node (Store.row_node tbl store i) ]
     | Some (Btgt _) ->
       Builder.error "variable %s is a target variable in a source position" x
     | None -> Builder.error "unbound source variable %s" x)
  | Term.Proj (inner, step) ->
    List.concat_map (fun item -> step_item item step) (items_of ctx store env inner)

(* Scalar evaluation with the two columnar fast paths — an attribute
   column read and a value-child column read, both single array loads
   verified equivalent to the generic walk (cells fall back on the
   [Store.fallback] sentinel). Everything else — constants, functions,
   arbitrary projections — runs the shared scalar kernel over the
   generic walk, so results and error messages match the tgd backend
   exactly. *)
let rec eval_scalar ctx store env (s : Term.scalar) : Xml.Atom.t list =
  tick ctx;
  match s with
  | Term.Const a -> [ a ]
  | Term.E (Term.Proj (Term.Var x, Path.Attr a) as e) ->
    (match Env.find_opt x env with
     | Some (Brow (tbl, i)) ->
       (match List.assoc_opt a tbl.Store.t_attrs with
        | Some col ->
          let cell = col.(i) in
          if cell >= 0 then [ Store.atom store cell ] else []
        | None -> Builder.atomize_items (items_of ctx store env e))
     | _ -> Builder.atomize_items (items_of ctx store env e))
  | Term.E (Term.Proj (Term.Proj (Term.Var x, Path.Child c), Path.Value) as e)
    ->
    (match Env.find_opt x env with
     | Some (Brow (tbl, i)) ->
       (match List.assoc_opt c tbl.Store.t_vals with
        | Some col ->
          let cell = col.(i) in
          if cell >= 0 then [ Store.atom store cell ]
          else if cell = Store.absent then []
          else Builder.atomize_items (items_of ctx store env e)
        | None -> Builder.atomize_items (items_of ctx store env e))
     | _ -> Builder.atomize_items (items_of ctx store env e))
  | Term.E e -> Builder.atomize_items (items_of ctx store env e)
  | Term.Fn (name, args) ->
    let arg_atoms =
      List.map
        (fun arg ->
          match eval_scalar ctx store env arg with
          | [ a ] -> a
          | [] -> Builder.error "%s: an argument evaluates to the empty sequence" name
          | _ -> Builder.error "%s: an argument evaluates to multiple values" name)
        args
    in
    [ Builder.scalar_fn name arg_atoms ]

let holds ctx store env (c : Tgd.comparison) =
  let ls = eval_scalar ctx store env c.Tgd.left in
  let rs = eval_scalar ctx store env c.Tgd.right in
  List.exists (fun a -> List.exists (Builder.compare_atoms c.Tgd.op a) rs) ls

(* --- Planning ---------------------------------------------------------- *)

let gen_table (store : Store.t) (g : Tgd.source_gen) =
  match g.Tgd.sexpr with
  | Term.Proj (Term.Root _, Path.Child t) ->
    (match Store.table store t with
     | Some tbl -> tbl
     | None -> invalid_arg "Clip_rel.Eval: generator outside the compiled shape")
  | _ -> invalid_arg "Clip_rel.Eval: generator outside the compiled shape"

(* Enumerating a table is enumerating its row ordinals — the row vector
   is already in document order. The root sanity check runs lazily, on
   the first actual enumeration, so a mapping that never evaluates a
   source expression succeeds on a mismatched document exactly like the
   tree-walk backend. *)
let check_root (store : Store.t) root =
  match store.Store.root_tag with
  | Some r when String.equal r root -> ()
  | Some r -> Builder.error "source root is <%s>, the mapping expects <%s>" r root
  | None -> Builder.error "source document root is a text node"

let cond_of ctx store (c : Tgd.comparison) =
  let pvars = Term.scalar_vars c.Tgd.left @ Term.scalar_vars c.Tgd.right in
  let orig = { Clip_plan.pvars; test = (fun env -> holds ctx store env c) } in
  match c.Tgd.op with
  | Tgd.Eq | Tgd.In ->
    let keyed s =
      {
        Clip_plan.kvars = Term.scalar_vars s;
        keys =
          (fun env -> List.map Clip_plan.Key.of_atom (eval_scalar ctx store env s));
      }
    in
    Clip_plan.Eq { left = keyed c.Tgd.left; right = keyed c.Tgd.right; orig }
  | Tgd.Ne | Tgd.Lt | Tgd.Le | Tgd.Gt | Tgd.Ge -> Clip_plan.Other orig

(* The environment operations of the shared compiled rule bodies;
   scalars and aggregate arguments run through this backend's own
   evaluation (column reads where they apply). *)
let body_ops ctx store =
  {
    Builder.lookup_tgt =
      (fun () x env ->
        match Env.find_opt x env with
        | Some (Btgt b) -> b
        | Some (Brow _) ->
          Builder.error "variable %s is a source variable in a target position" x
        | None -> Builder.error "unbound target variable %s" x);
    bind_tgt = (fun () x -> ((), fun env b -> Env.add x (Btgt b) env));
    compile_scalar = (fun () s -> Builder.Many (fun env -> eval_scalar ctx store env s));
    compile_items = (fun () e env -> items_of ctx store env e);
  }

type planned = {
  rm : Tgd.t;
  rplan : (binding Env.t, int) Clip_plan.t;
  rbody : binding Env.t Builder.rule;
  rchildren : planned list;
}

(* Compile a mapping tree to physical plans over the column store:
   scans are row-ordinal sweeps, equality conditions hash-join over
   column-extracted keys. Row counts are exact, so the [`Cost] policy
   prices joins with true cardinalities instead of estimates; [runs]
   is how often the plan runs per evaluation, from its ancestors' row
   counts. The row-ordinal list is made per enumeration rather than
   captured: a captured list would live as long as the cached plan. *)
let rec plan_mapping ctx store policy ~root ?runs bound (m : Tgd.t) =
  let gens =
    List.map
      (fun (g : Tgd.source_gen) ->
        let tbl = gen_table store g in
        let rows = Array.length tbl.Store.t_rows in
        {
          Clip_plan.var = g.Tgd.svar;
          deps = Term.expr_vars g.Tgd.sexpr;
          est = Some rows;
          eval =
            (fun _env ->
              check_root store root;
              List.init rows Fun.id);
          bind = (fun env i -> Env.add g.Tgd.svar (Brow (tbl, i)) env);
        })
      m.Tgd.foralls
  in
  let rplan =
    Clip_plan.plan ~policy ?runs ~bound ~gens
      ~conds:(List.map (cond_of ctx store) m.Tgd.cond)
      ()
  in
  let runs = Clip_plan.inner_runs ~runs rplan in
  let bound' =
    bound
    @ List.map (fun (g : Tgd.source_gen) -> g.Tgd.svar) m.Tgd.foralls
    @ List.map (fun (g : Tgd.target_gen) -> g.Tgd.tvar) m.Tgd.exists
  in
  {
    rm = m;
    rplan;
    rbody = fst (Builder.compile (body_ops ctx store) ~outer:() () m);
    rchildren = List.map (plan_mapping ctx store policy ~root ?runs bound') m.Tgd.children;
  }

(* --- Sessions ---------------------------------------------------------- *)

type session = {
  sctx : rctx;
  splans : (bool * Tgd.t, planned) Hashtbl.t; (* key: (cost-policy?, tgd) *)
  mutable slast : (bool * Tgd.t * planned) option;
}

module Session = struct
  type t = session

  let create source =
    { sctx = make_ctx source; splans = Hashtbl.create 8; slast = None }

  let source s = s.sctx.source
end

(* --- Execution --------------------------------------------------------- *)

let execute ?(limits = Clip_diag.Limits.default) ?(plan = `Auto)
    ?(ctl = Clip_run.Control.none) ?session ?steps_out ?obs ~source
    (prog : Program.t) =
  let ctx =
    match session with
    | Some s when s.sctx.source == source -> s.sctx
    | _ -> make_ctx source
  in
  ctx.steps := 0;
  ctx.max_steps <- limits.Clip_diag.Limits.max_eval_steps;
  ctx.obs <- obs;
  ctx.ctl <- ctl;
  let record_steps () =
    match steps_out with Some r -> r := !(ctx.steps) | None -> ()
  in
  Fun.protect ~finally:record_steps @@ fun () ->
  if not (Clip_run.Control.is_none ctx.ctl) then check_control ctx;
  let store = force_store ctx prog.Program.shape in
  let target_root = prog.Program.target_root in
  (* Instance-level lineage is served by the tgd backend only
     ([Eval.run_traced_result]), so this builder records none. *)
  let bld = Builder.create ~min_card:true ~target_root () in
  (* The naive nested-loop interpreter over the column store — the
     oracle for the plan path, mirroring the tgd backend's shape. *)
  let rec eval_mapping env (t : binding Env.t Builder.tree) =
    let m = t.Builder.tm in
    Builder.pre_instantiate bld t.Builder.trule env;
    let rec cartesian env = function
      | [] -> [ env ]
      | (g : Tgd.source_gen) :: rest ->
        tick ctx;
        check_root store prog.Program.source_root;
        let tbl = gen_table store g in
        List.concat_map
          (fun i -> cartesian (Env.add g.Tgd.svar (Brow (tbl, i)) env) rest)
          (List.init (Array.length tbl.Store.t_rows) Fun.id)
    in
    List.iter
      (fun env ->
        tick ctx;
        if List.for_all (holds ctx store env) m.Tgd.cond then
          Builder.emit bld t.Builder.trule
            (fun env -> List.iter (eval_mapping env) t.Builder.tchildren)
            env)
      (cartesian env m.Tgd.foralls)
  in
  let planned_for policy =
    let build () =
      plan_mapping ctx store policy ~root:prog.Program.source_root ~runs:1 []
        prog.Program.tgd
    in
    match session with
    | Some s when s.sctx == ctx ->
      let cost = match policy with `Cost -> true | `Force -> false in
      (match s.slast with
       | Some (c, m', p) when c = cost && m' == prog.Program.tgd ->
         Clip_obs.memo_hit ctx.obs;
         p
       | _ ->
         let p =
           let key = (cost, prog.Program.tgd) in
           match Hashtbl.find_opt s.splans key with
           | Some p ->
             Clip_obs.memo_hit ctx.obs;
             p
           | None ->
             let p = build () in
             Hashtbl.add s.splans key p;
             p
         in
         s.slast <- Some (cost, prog.Program.tgd, p);
         p)
    | _ -> build ()
  in
  (* The run-scoped hash tables: a nested mapping joined to its parent
     builds its table once here, not once per parent binding. *)
  let run = Clip_plan.Run.create () in
  let rec eval_planned env (p : planned) =
    Builder.pre_instantiate bld p.rbody env;
    Clip_plan.execute ?obs:ctx.obs ~run p.rplan
      ~tick:(fun () -> tick ctx)
      ~env
      ~emit:(Builder.emit bld p.rbody (fun env -> List.iter (eval_planned env) p.rchildren))
  in
  (match plan with
   | `Naive ->
     eval_mapping Env.empty
       (Builder.compile_tree (body_ops ctx store) ~bind_src:(fun () _ -> ()) () prog.Program.tgd)
   | `Indexed -> eval_planned Env.empty (planned_for `Force)
   | `Auto -> eval_planned Env.empty (planned_for `Cost));
  Builder.root bld

let run_result ?limits ?plan ?ctl ?session ?steps_out ?obs ~source prog =
  Clip_diag.guard (fun () ->
    Builder.bnode_to_node
      (execute ?limits ?plan ?ctl ?session ?steps_out ?obs ~source prog))

(* --- EXPLAIN ----------------------------------------------------------- *)

(* Static plan rendering, mirroring the tgd backend's renderer: the
   same rule layout and the same {!Clip_plan} stage lines, under a
   [backend: rel] header that states the store statistics. Nothing is
   evaluated, so the output is stable for golden tests. *)
let explain ?(plan = `Auto) ?session ~source (prog : Program.t) : string =
  let ctx =
    match session with
    | Some s when s.sctx.source == source -> s.sctx
    | _ -> make_ctx source
  in
  let store = force_store ctx prog.Program.shape in
  let b = Buffer.create 512 in
  Printf.bprintf b "backend: rel\nplan: %s\nstore: %d table(s), %d row(s)\n"
    (match plan with `Naive -> "naive" | `Indexed -> "indexed" | `Auto -> "auto")
    (List.length store.Store.tables)
    (Store.row_count store);
  let chain (m : Tgd.t) =
    match m.Tgd.foralls with
    | [] -> "(no source generators)"
    | gens ->
      "for "
      ^ String.concat ", "
          (List.map
             (fun (g : Tgd.source_gen) ->
               Printf.sprintf "%s in %s" g.Tgd.svar
                 (Term.expr_to_string g.Tgd.sexpr))
             gens)
  in
  let conds (m : Tgd.t) =
    match m.Tgd.cond with
    | [] -> ""
    | cs ->
      " where "
      ^ String.concat " and "
          (List.map
             (fun (c : Tgd.comparison) ->
               Printf.sprintf "%s %s %s"
                 (Term.scalar_to_string c.Tgd.left)
                 (Tgd.cmp_op_to_string c.Tgd.op)
                 (Term.scalar_to_string c.Tgd.right))
             cs)
  in
  let rule_header path m =
    Printf.bprintf b "rule %s: %s%s\n"
      (if String.equal path "" then "/" else path)
      (chain m) (conds m)
  in
  let rec naive_rules path (m : Tgd.t) =
    rule_header path m;
    if m.Tgd.foralls <> [] then
      Buffer.add_string b
        "  every generator: row-vector scan; conditions checked innermost\n";
    List.iteri
      (fun i c -> naive_rules (Printf.sprintf "%s/%d" path i) c)
      m.Tgd.children
  in
  let rec planned_rules path (p : planned) =
    rule_header path p.rm;
    if p.rm.Tgd.foralls <> [] then
      Printf.bprintf b "  plan: %s\n" (Clip_plan.describe p.rplan);
    Buffer.add_string b (Clip_plan.explain p.rplan);
    List.iteri
      (fun i c -> planned_rules (Printf.sprintf "%s/%d" path i) c)
      p.rchildren
  in
  (match plan with
   | `Naive ->
     Buffer.add_string b
       "strategy: nested-loop interpreter over the column store (forced)\n";
     naive_rules "" prog.Program.tgd
   | `Indexed ->
     Buffer.add_string b
       "strategy: physical plans over the column store, forced hash joins\n";
     planned_rules ""
       (plan_mapping ctx store `Force ~root:prog.Program.source_root ~runs:1 []
          prog.Program.tgd)
   | `Auto ->
     Buffer.add_string b
       "strategy: physical plans over the column store, cost-based joins \
        (exact row counts)\n";
     planned_rules ""
       (plan_mapping ctx store `Cost ~root:prog.Program.source_root ~runs:1 []
          prog.Program.tgd));
  Buffer.contents b
