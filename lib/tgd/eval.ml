module Xml = Clip_xml
module Path = Clip_schema.Path
module Value = Clip_xquery.Value

exception Error of string

let error fmt =
  Printf.ksprintf
    (fun s -> Clip_diag.fail (Clip_diag.error ~code:Clip_diag.Codes.tgd_eval s))
    fmt

(* Evaluation context: the source document plus the step budget that
   bounds runaway mappings (CLIP-LIM-004); each source-expression or
   scalar evaluation counts one step, so deep cross products hit the
   budget instead of hanging.

   The context outlives a single run when held by a {!Session}: the
   memoised tag index and instance statistics are per-document, so
   reusing the context lets repeated runs pay the index groupings and
   the stats walk once. [index] is the per-run view — set at run start to
   the shared index ([`Indexed], or [`Auto] when indexing is judged to
   pay) or to [None] — while [xindex] owns the index itself. [steps]
   and [max_steps] are reset per run. *)
type ctx = {
  source : Xml.Node.t;
  mutable index : Xml.Index.t option;
  mutable xindex : Xml.Index.t option; (* resettable memo, see [force_index] *)
  mutable stats : Xml.Stats.t option; (* resettable memo, see [force_stats] *)
  steps : int ref;
  mutable max_steps : int;
  mutable obs : Clip_obs.sink;
      (* per-run counter sink, set by [execute]; explicit state — the
         evaluator never reaches for an ambient sink *)
  mutable ctl : Clip_run.Control.t;
      (* per-run deadline/cancellation view, polled by [tick] *)
}

let make_ctx source =
  {
    source;
    index = None;
    xindex = None;
    stats = None;
    steps = ref 0;
    max_steps = max_int;
    obs = Clip_obs.none;
    ctl = Clip_run.Control.none;
  }

(* Memo slots rather than lazies: a lazy that raises re-raises forever,
   so one injected fault (or an expiring deadline) during the build
   would poison a session-held context for every later run. With the
   slot, a failed build leaves [None] and the next run simply rebuilds. *)
let force_index ctx =
  match ctx.xindex with
  | Some i -> i
  | None ->
    let i = Xml.Index.build ctx.source in
    ctx.xindex <- Some i;
    i

let force_stats ctx =
  match ctx.stats with
  | Some s -> s
  | None ->
    let s = Xml.Stats.collect ctx.source in
    ctx.stats <- Some s;
    s

let check_control ctx =
  Clip_obs.ctl_check ctx.obs;
  match Clip_run.Control.check ctx.ctl with
  | None -> ()
  | Some d -> Clip_diag.fail d

let tick ctx =
  incr ctx.steps;
  Clip_obs.lim_tick ctx.obs;
  if !(ctx.steps) > ctx.max_steps then
    Clip_diag.fail
      (Clip_diag.error ~code:Clip_diag.Codes.limit_eval_steps
         ~hints:
           [ "raise [limits.max_eval_steps] if the mapping is expected to be this large" ]
         (Printf.sprintf "evaluation exceeded the budget of %d steps" ctx.max_steps));
  (* Deadline/cancellation poll, amortised to one clock read per 64
     steps so uncontrolled runs pay one branch per tick. *)
  if !(ctx.steps) land 63 = 0 && not (Clip_run.Control.is_none ctx.ctl) then
    check_control ctx

(* The naive interpreter's environments bind source variables to items
   and target variables to build nodes (the shared {!Builder}
   target-construction core). *)
type binding = Src of Value.item | Tgt of Builder.bnode

module Env = Map.Make (String)

(* Lineage: [record node] adds source elements to the lineage of
   target element [node]. *)
type recorder = Builder.bnode -> Xml.Node.element -> unit

(* The planned path's environment: one slot per binding site of the
   mapping tree, source and target slots in separate arrays.
   [plan_mapping] resolves every variable occurrence to its slot at
   plan time, so a binding is an array write and a lookup an array
   read. A frame is allocated per [execute]; cached plans hold slot
   numbers, never a frame. Every binding site has its own slot, so a
   name re-bound by a child rule or a later generator shadows the
   outer binding without overwriting it. *)
type frame = {
  src : Value.item array;
  tgt : Builder.bnode array;
  record : recorder option;
}

(* A compile-time scope: the names in scope with what each binding
   resolves to, innermost first, so lookup finds the innermost binding
   as [Env.add] would. The planned path resolves names to slots, which
   [layout] numbers per plan tree; the naive path, which looks names up
   per binding, keeps only whether each is a source or target
   variable. *)
type 'a scope = (string * 'a) list
type slot = S of int | T of int
type layout = { mutable nsrc : int; mutable ntgt : int }

let rec resolve x = function
  | [] -> None
  | (y, slot) :: rest -> if String.equal x y then Some slot else resolve x rest

(* Lineage: each time a target generator binds, the source elements
   bound in its scope are recorded — every name once, at its innermost
   binding, in [String.compare] order (the order [Env.iter] visits a
   naive environment), skipping names whose innermost binding is a
   target variable. Both executors list those bindings once, at compile
   time, with [lineage_sources] ([source x b] is what to read for name
   [x] when its binding [b] is a source), and record them with
   [record_lineage] ([item k] reads one). *)
let lineage_sources (scope : 'a scope) (source : string -> 'a -> 'k option) : 'k list =
  List.filter_map
    (fun x -> Option.bind (resolve x scope) (source x))
    (List.sort_uniq String.compare (List.map fst scope))

let record_lineage (record : recorder) node sources (item : 'k -> Value.item option) =
  let add = record node in
  List.iter
    (fun k ->
      match item k with
      | Some (Value.Node (Xml.Node.Element e)) -> add e
      | Some (Value.Node (Xml.Node.Text _) | Value.Atomic _) | None -> ())
    sources

(* A mapping tree with each universal part compiled to a physical plan
   (condition pushdown + hash joins, see {!Clip_plan}) and each node's
   per-binding work compiled to a {!Builder.rule}. Planning only needs
   the statically known outer scope, so the tree is compiled once per
   [execute], or once per session. *)
type planned = {
  pm : Tgd.t;
  pplan : (frame, Value.item) Clip_plan.t;
  pbody : frame Builder.rule;
  pchildren : planned list;
}

(* A planned tree with the slots of its frames. *)
type compiled = { tree : planned; slots : layout }

(* --- Source-side evaluation ------------------------------------------ *)

(* Naive child scan over the boxed tree: visits every child; the
   [nodes_scanned] counter records exactly that, so indexed runs can
   never report more scanned nodes than this oracle. *)
let scan_child_step ctx (e : Xml.Node.element) sym =
  if Clip_obs.enabled ctx.obs then
    Clip_obs.scanned ctx.obs (List.length e.children);
  List.filter_map
    (function
      | Xml.Node.Element c when Xml.Symbol.equal c.sym sym ->
        Some (Value.Node (Xml.Node.Element c))
      | Xml.Node.Element _ | Xml.Node.Text _ -> None)
    e.children

(* A child step over the boxed tree: an index probe when the run uses
   the tag index, else the naive scan. *)
let tree_child_step ctx (e : Xml.Node.element) sym =
  match ctx.index with
  | None -> scan_child_step ctx e sym
  | Some idx ->
    let matches = Xml.Index.children_by_tag ?obs:ctx.obs idx e sym in
    if Clip_obs.enabled ctx.obs then
      Clip_obs.scanned ctx.obs (List.length matches);
    List.map (fun n -> Value.Node n) matches

let step_items ctx (item : Value.item) (step : Path.step) : Value.item list =
  match item, step with
  | Value.Node (Xml.Node.Element e), Path.Child tag ->
    (* Intern once per step evaluation; per-child comparisons are then
       int compares instead of string equality. *)
    let sym = Xml.Symbol.intern tag in
    Clip_obs.child_step ctx.obs;
    tree_child_step ctx e sym
  | Value.Node (Xml.Node.Element e), Path.Attr name ->
    (match Xml.Node.attr e name with Some a -> [ Value.Atomic a ] | None -> [])
  | Value.Node (Xml.Node.Element e), Path.Value ->
    (match Xml.Node.text_value e with Some a -> [ Value.Atomic a ] | None -> [])
  | (Value.Node (Xml.Node.Text _) | Value.Atomic _), _ -> []

let rec eval_src ctx env (e : Term.expr) : Value.item list =
  tick ctx;
  match e with
  | Term.Root s ->
    (match ctx.source with
     | Xml.Node.Element root when String.equal root.tag s -> [ Value.Node ctx.source ]
     | Xml.Node.Element root ->
       error "source root is <%s>, the mapping expects <%s>" root.tag s
     | Xml.Node.Text _ -> error "source document root is a text node")
  | Term.Var x ->
    (match Env.find_opt x env with
     | Some (Src item) -> [ item ]
     | Some (Tgt _) -> error "variable %s is a target variable in a source position" x
     | None -> error "unbound source variable %s" x)
  | Term.Proj (inner, step) ->
    List.concat_map (fun item -> step_items ctx item step) (eval_src ctx env inner)

let scalar_functions = Builder.scalar_functions

let rec eval_scalar ctx env (s : Term.scalar) : Xml.Atom.t list =
  tick ctx;
  match s with
  | Term.E e -> Builder.atomize_items (eval_src ctx env e)
  | Term.Const a -> [ a ]
  | Term.Fn (name, args) ->
    let arg_atoms =
      List.map
        (fun arg ->
          match eval_scalar ctx env arg with
          | [ a ] -> a
          | [] -> error "%s: an argument evaluates to the empty sequence" name
          | _ -> error "%s: an argument evaluates to multiple values" name)
        args
    in
    [ Builder.scalar_fn name arg_atoms ]

let holds ctx env (c : Tgd.comparison) =
  let ls = eval_scalar ctx env c.left in
  let rs = eval_scalar ctx env c.right in
  List.exists (fun a -> List.exists (Builder.compare_atoms c.op a) rs) ls

(* --- Compiled evaluation ----------------------------------------------- *)

(* [compile_src]/[compile_scalar] turn an expression into a closure
   over frames once per plan: variables are resolved to slots, tags
   interned and every step dispatched at compile time. The closures
   tick, count and fail exactly where [eval_src]/[eval_scalar] do, in
   the same order, so budgets, deadline polls and counters cannot tell
   the two apart. *)

(* The one item a root or a variable denotes. *)
let compile_root ctx s : frame -> Value.item =
  let item = Value.Node ctx.source in
  fun _ ->
    tick ctx;
    match ctx.source with
    | Xml.Node.Element root when String.equal root.tag s -> item
    | Xml.Node.Element root ->
      error "source root is <%s>, the mapping expects <%s>" root.tag s
    | Xml.Node.Text _ -> error "source document root is a text node"

let compile_var ctx scope x : frame -> Value.item =
  match resolve x scope with
  | Some (S i) ->
    fun fr ->
      tick ctx;
      fr.src.(i)
  | Some (T _) ->
    fun _ ->
      tick ctx;
      error "variable %s is a target variable in a source position" x
  | None ->
    fun _ ->
      tick ctx;
      error "unbound source variable %s" x

let compile_one ctx scope : Term.expr -> (frame -> Value.item) option = function
  | Term.Root s -> Some (compile_root ctx s)
  | Term.Var x -> Some (compile_var ctx scope x)
  | Term.Proj _ -> None

let compile_step ctx : Path.step -> Value.item -> Value.item list = function
  | Path.Child tag ->
    let sym = Xml.Symbol.intern tag in
    (function
      | Value.Node (Xml.Node.Element e) ->
        Clip_obs.child_step ctx.obs;
        tree_child_step ctx e sym
      | Value.Node (Xml.Node.Text _) | Value.Atomic _ -> [])
  | Path.Attr name ->
    (function
      | Value.Node (Xml.Node.Element e) ->
        (match Xml.Node.attr e name with Some a -> [ Value.Atomic a ] | None -> [])
      | Value.Node (Xml.Node.Text _) | Value.Atomic _ -> [])
  | Path.Value ->
    (function
      | Value.Node (Xml.Node.Element e) ->
        (match Xml.Node.text_value e with Some a -> [ Value.Atomic a ] | None -> [])
      | Value.Node (Xml.Node.Text _) | Value.Atomic _ -> [])

let rec compile_src ctx scope (e : Term.expr) : frame -> Value.item list =
  match e with
  | Term.Root s ->
    let one = compile_root ctx s in
    fun fr -> [ one fr ]
  | Term.Var x ->
    let one = compile_var ctx scope x in
    fun fr -> [ one fr ]
  | Term.Proj (inner, step) ->
    let step = compile_step ctx step in
    (match compile_one ctx scope inner with
     | Some one ->
       fun fr ->
         tick ctx;
         step (one fr)
     | None ->
       let inner = compile_src ctx scope inner in
       fun fr ->
         tick ctx;
         (match inner fr with [ item ] -> step item | items -> List.concat_map step items))

(* Scalars that yield at most one atom — a root or variable, an
   attribute or value step on one, a constant, a function application —
   compile to [Builder.One] and allocate no list. *)
let rec compile_scalar ctx scope (s : Term.scalar) : frame Builder.scalar =
  let one_atom one =
    Builder.One
      (fun fr ->
        tick ctx;
        Some (Builder.atomize_item (one fr)))
  in
  let many e =
    let src = compile_src ctx scope e in
    Builder.Many
      (fun fr ->
        tick ctx;
        Builder.atomize_items (src fr))
  in
  (* An attribute or value step on one item: tick as the scalar, the
     projection and the head would. *)
  let leaf_scalar e inner (leaf : Xml.Node.element -> Xml.Atom.t option) =
    match compile_one ctx scope inner with
    | None -> many e
    | Some one ->
      Builder.One
        (fun fr ->
          tick ctx;
          tick ctx;
          match one fr with
          | Value.Node (Xml.Node.Element el) -> leaf el
          | Value.Node (Xml.Node.Text _) | Value.Atomic _ -> None)
  in
  match s with
  | Term.E (Term.Root r) -> one_atom (compile_root ctx r)
  | Term.E (Term.Var x) -> one_atom (compile_var ctx scope x)
  | Term.E (Term.Proj (inner, Path.Attr name) as e) ->
    leaf_scalar e inner (fun el -> Xml.Node.attr el name)
  | Term.E (Term.Proj (inner, Path.Value) as e) -> leaf_scalar e inner Xml.Node.text_value
  | Term.E (Term.Proj _ as e) -> many e
  | Term.Const a ->
    let some = Some a in
    Builder.One
      (fun _ ->
        tick ctx;
        some)
  | Term.Fn (name, args) ->
    let fn = Builder.scalar_fn name in
    let args =
      List.map
        (fun arg ->
          Builder.single (compile_scalar ctx scope arg)
            ~empty:(fun () -> error "%s: an argument evaluates to the empty sequence" name)
            ~many:(fun () -> error "%s: an argument evaluates to multiple values" name))
        args
    in
    Builder.One
      (fun fr ->
        tick ctx;
        Some (fn (List.map (fun arg -> arg fr) args)))

let atoms_of : frame Builder.scalar -> frame -> Xml.Atom.t list = function
  | Builder.One k -> fun fr -> (match k fr with Some a -> [ a ] | None -> [])
  | Builder.Many k -> k

let compile_holds ctx scope (c : Tgd.comparison) : frame -> bool =
  let cmp = Builder.compare_atoms c.op in
  let left = compile_scalar ctx scope c.left in
  let right = compile_scalar ctx scope c.right in
  match left, right with
  | Builder.One left, Builder.One right ->
    fun fr ->
      let l = left fr in
      let r = right fr in
      (match l, r with Some a, Some b -> cmp a b | None, _ | _, None -> false)
  | _ ->
    let left = atoms_of left and right = atoms_of right in
    fun fr ->
      let ls = left fr in
      let rs = right fr in
      List.exists (fun a -> List.exists (cmp a) rs) ls

(* The operations of the planned path's rule bodies: target variables
   get their slots here, in the order [Builder.compile] binds them. *)
let frame_ops ctx layout : (frame, slot scope) Builder.ops =
  {
    Builder.lookup_tgt =
      (fun scope x ->
        match resolve x scope with
        | Some (T i) -> fun fr -> fr.tgt.(i)
        | Some (S _) -> fun _ -> error "variable %s is a source variable in a target position" x
        | None -> fun _ -> error "unbound target variable %s" x);
    bind_tgt =
      (fun scope x ->
        let i = layout.ntgt in
        layout.ntgt <- i + 1;
        let sources =
          lineage_sources scope (fun _ -> function S k -> Some k | T _ -> None)
        in
        ( (x, T i) :: scope,
          fun fr node ->
            (match fr.record with
             | Some record -> record_lineage record node sources (fun k -> Some fr.src.(k))
             | None -> ());
            fr.tgt.(i) <- node;
            fr ));
    compile_scalar = compile_scalar ctx;
    compile_items = compile_src ctx;
  }

(* The naive interpreter's rule-body operations: every name is looked
   up in the environment per binding; the scope only lists lineage. *)
let env_ops ctx (record : recorder option) :
    (binding Env.t, [ `Src | `Tgt ] scope) Builder.ops =
  {
    Builder.lookup_tgt =
      (fun _ x env ->
        match Env.find_opt x env with
        | Some (Tgt b) -> b
        | Some (Src _) -> error "variable %s is a source variable in a target position" x
        | None -> error "unbound target variable %s" x);
    bind_tgt =
      (fun scope x ->
        let sources = lineage_sources scope (fun x -> function `Src -> Some x | `Tgt -> None) in
        ( (x, `Tgt) :: scope,
          fun env node ->
            (match record with
             | Some record ->
               record_lineage record node sources (fun x ->
                   match Env.find_opt x env with
                   | Some (Src item) -> Some item
                   | Some (Tgt _) | None -> None)
             | None -> ());
            Env.add x (Tgt node) env ));
    compile_scalar = (fun _ s -> Builder.Many (fun env -> eval_scalar ctx env s));
    compile_items = (fun _ e env -> eval_src ctx env e);
  }

(* --- The engine ------------------------------------------------------- *)

let cartesian_bindings ctx env (gens : Tgd.source_gen list) =
  (* Enumerate environments extending [env] with one item per generator,
     left to right (later generators may reference earlier variables). *)
  let rec go env = function
    | [] -> [ env ]
    | (g : Tgd.source_gen) :: rest ->
      let items = eval_src ctx env g.sexpr in
      List.concat_map (fun item -> go (Env.add g.svar (Src item) env) rest) items
  in
  go env gens

(* --- Planning ---------------------------------------------------------- *)

(* Estimated items of one evaluation of [e] under the [`Cost] policy,
   from per-tag cardinalities: a [Child t] step under a parent tagged
   [p] yields ~count(t)/count(p) items (ceil; at least 1 when [t]
   occurs at all, exactly 0 when it never does), attribute and value
   steps yield at most one. [var_tags] maps chain variables to the tag
   of the element they range over; a [Child t] under a variable of
   unknown tag falls back to the global count of [t] — an upper bound.
   Returns the estimate and the result's tag (for threading through
   [var_tags]). *)
let est_expr ctx var_tags (e : Term.expr) : int option * Xml.Symbol.t option =
  let stats = force_stats ctx in
  let cap = Clip_plan.est_cap in
  let rec go = function
    | Term.Root s -> (Some 1, Some (Xml.Symbol.intern s))
    | Term.Var x -> (Some 1, Option.join (List.assoc_opt x var_tags))
    | Term.Proj (e, step) ->
      let est, ptag = go e in
      (match (step : Path.step) with
       | Path.Attr _ | Path.Value -> (est, None)
       | Path.Child t ->
         let sym = Xml.Symbol.intern t in
         let ct = Xml.Stats.tag_count stats sym in
         let est' =
           if ct = 0 then Some 0
           else
             match est, ptag with
             | Some e0, Some p when Xml.Stats.tag_count stats p > 0 ->
               let cp = Xml.Stats.tag_count stats p in
               let fan = max 1 ((ct + cp - 1) / cp) in
               Some (min cap (e0 * fan))
             | Some e0, _ -> Some (min cap (max e0 1 * ct))
             | None, _ -> Some ct
         in
         (est', Some sym))
  in
  go e

let cond_of ctx scope (c : Tgd.comparison) =
  let pvars = Term.scalar_vars c.left @ Term.scalar_vars c.right in
  let orig = { Clip_plan.pvars; test = compile_holds ctx scope c } in
  match c.op with
  | Tgd.Eq | Tgd.In ->
    let keyed s =
      let keys =
        match compile_scalar ctx scope s with
        | Builder.One k ->
          fun fr -> (match k fr with Some a -> [ Clip_plan.Key.of_atom a ] | None -> [])
        | Builder.Many k -> fun fr -> List.map Clip_plan.Key.of_atom (k fr)
      in
      { Clip_plan.kvars = Term.scalar_vars s; keys }
    in
    Clip_plan.Eq { left = keyed c.left; right = keyed c.right; orig }
  | Tgd.Ne | Tgd.Lt | Tgd.Le | Tgd.Gt | Tgd.Ge -> Clip_plan.Other orig

(* Compile a mapping tree to physical plans. Planning needs only the
   statically known outer scope (and, under [`Cost], the instance
   statistics), so a compiled tree is a per-(policy, mapping) artifact:
   its closures — plans and rule bodies — capture the context and slot
   numbers but none of a run's state, which is what lets a {!Session}
   cache it across runs. [scope] threads through the generators, the
   target generators and the children in lexical order, each binding
   site taking a fresh slot of [layout]. [runs] estimates how often the
   plan runs per evaluation (its ancestors' chain estimates), for
   pricing a per-run join with the parent. *)
let rec plan_mapping ctx layout policy ?runs scope var_tags (m : Tgd.t) =
  let gens_rev, var_tags', scope' =
    List.fold_left
      (fun (acc, vt, scope) (g : Tgd.source_gen) ->
        let est, tag =
          match policy with
          | `Force -> (None, None)
          | `Cost -> est_expr ctx vt g.sexpr
        in
        let slot = layout.nsrc in
        layout.nsrc <- slot + 1;
        let gen =
          {
            Clip_plan.var = g.svar;
            deps = Term.expr_vars g.sexpr;
            est;
            eval = compile_src ctx scope g.sexpr;
            bind =
              (fun fr item ->
                fr.src.(slot) <- item;
                fr);
          }
        in
        (gen :: acc, (g.svar, tag) :: vt, (g.svar, S slot) :: scope))
      ([], var_tags, scope) m.foralls
  in
  let pplan =
    Clip_plan.plan ~policy ?runs ~bound:(List.map fst scope) ~gens:(List.rev gens_rev)
      ~conds:(List.map (cond_of ctx scope') m.cond) ()
  in
  let runs = Clip_plan.inner_runs ~runs pplan in
  let pbody, scope'' = Builder.compile (frame_ops ctx layout) ~outer:scope scope' m in
  {
    pm = m;
    pplan;
    pbody;
    pchildren = List.map (plan_mapping ctx layout policy ?runs scope'' var_tags') m.children;
  }

let plan_tree ctx policy m =
  let layout = { nsrc = 0; ntgt = 0 } in
  let tree = plan_mapping ctx layout policy ~runs:1 [] [] m in
  { tree; slots = layout }

(* Can evaluating this tree list some element's children twice? Within
   a chain {!Clip_plan.revisit_prone} answers; across nesting, a child
   chain runs once per parent binding, so its first generator
   re-enumerates the same elements whenever it does not read the
   parent chain's innermost variable — unless it opens a run-scoped
   probe, whose segment is enumerated once per run. Only then can the
   lazy tag index's memoised groupings ever be reused. *)
let rec tree_revisits ~outer_last (p : planned) =
  let stages = (p.pplan : (_, _) Clip_plan.t).stages in
  let nst = Array.length stages in
  let first_indep =
    nst > 0
    &&
    match outer_last with
    | None -> false
    | Some v ->
      (match stages.(0) with
       | Clip_plan.Probe { scope = Clip_plan.Per_run _; _ } -> false
       | st -> not (List.mem v (Clip_plan.stage_gens st).(0).Clip_plan.deps))
  in
  let last =
    if nst = 0 then outer_last
    else begin
      let gens = Clip_plan.stage_gens stages.(nst - 1) in
      Some gens.(Array.length gens - 1).Clip_plan.var
    end
  in
  first_indep
  || Clip_plan.revisit_prone p.pplan
  || List.exists (tree_revisits ~outer_last:last) p.pchildren

(* Documents smaller than this never amortise index groupings; [`Auto]
   leaves the index off below the threshold even for revisit-prone
   plans. *)
let index_threshold = 256

(* Documents smaller than this don't repay even the plan layer itself:
   every join the cost model could pick is over segments of a handful
   of nodes, so [`Auto] runs the direct interpreter outright. *)
let naive_threshold = 128

(* --- Sessions ---------------------------------------------------------- *)

(* A session pins one source document and keeps everything that is
   per-document rather than per-run: the evaluation context (whose
   lazy index and statistics then survive across runs) and the
   compiled plan trees, keyed by (policy, mapping). Mapping values are
   pure data, so structural hashing is sound; a mapping containing a
   NaN constant never hits the cache (NaN <> NaN) and is simply
   re-planned. *)
type session = {
  sctx : ctx;
  splans : (bool * Tgd.t, compiled) Hashtbl.t; (* key: (cost-policy?, mapping) *)
  (* One-slot physical-identity fast path in front of [splans]: a
     caller re-running the same mapping value skips the structural
     hash and deep equality, which on small documents costs as much as
     the run itself. *)
  mutable slast : (bool * Tgd.t * compiled) option;
}

module Session = struct
  type t = session

  let create source =
    { sctx = make_ctx source; splans = Hashtbl.create 8; slast = None }
  let source s = s.sctx.source
  let stats s = force_stats s.sctx
end

let execute ?(limits = Clip_diag.Limits.default) ?(minimum_cardinality = true)
    ?(plan = `Auto) ?(ctl = Clip_run.Control.none)
    ?session ?steps_out ?obs ?record ~source ~target_root (m : Tgd.t) =
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
  (* One unconditional control poll before any work makes an
     already-lapsed deadline (clip run --timeout-ms 0) or a pre-set
     cancel flag deterministic regardless of the 64-step amortisation. *)
  if not (Clip_run.Control.is_none ctx.ctl) then check_control ctx;
  Clip_fault.hit ~obs Clip_fault.Site.tgd_execute;
  let bld = Builder.create ~min_card:minimum_cardinality ~target_root () in
  (* The naive interpreter, kept as the differential-testing oracle for
     the plan-based path below: source generators, conditions and the
     rule bodies' scalars all run through the interpreted
     [eval_src]/[eval_scalar]. *)
  let rec eval_mapping env (t : binding Env.t Builder.tree) =
    Builder.pre_instantiate bld t.trule env;
    let bindings = cartesian_bindings ctx env t.tm.foralls in
    List.iter
      (fun env ->
        tick ctx;
        if List.for_all (holds ctx env) t.tm.cond then
          Builder.emit bld t.trule (fun env -> List.iter (eval_mapping env) t.tchildren) env)
      bindings
  in
  let naive () =
    eval_mapping Env.empty
      (Builder.compile_tree (env_ops ctx record)
         ~bind_src:(fun scope x -> (x, `Src) :: scope)
         [] m)
  in
  (* The plan-based path: compile each mapping's universal part once
     (conditions pushed down, equality conditions turned into hash
     joins where profitable), then stream bindings into the same
     per-binding body the naive interpreter runs. With a session the
     compiled tree is fetched from (or added to) the per-document
     cache instead of recompiled. *)
  let planned_for policy =
    let build () = plan_tree ctx policy m in
    match session with
    | Some s when s.sctx == ctx ->
      let cost = match policy with `Cost -> true | `Force -> false in
      (match s.slast with
       | Some (c, m', p) when c = cost && m' == m ->
         Clip_obs.memo_hit ctx.obs;
         p
       | _ ->
         let p =
           let key = (cost, m) in
           match Hashtbl.find_opt s.splans key with
           | Some p ->
             Clip_obs.memo_hit ctx.obs;
             p
           | None ->
             let p = build () in
             Hashtbl.add s.splans key p;
             p
         in
         s.slast <- Some (cost, m, p);
         p)
    | _ -> build ()
  in
  (* The run-scoped hash tables: a nested mapping joined to its parent
     builds its table once here, not once per parent binding. *)
  let run = Clip_plan.Run.create () in
  let rec eval_planned fr (p : planned) =
    Builder.pre_instantiate bld p.pbody fr;
    Clip_plan.execute ?obs:ctx.obs ~run p.pplan
      ~tick:(fun () -> tick ctx)
      ~env:fr
      ~emit:
        (Builder.emit bld p.pbody (fun fr ->
             List.iter (eval_planned fr) p.pchildren))
  in
  let run_planned (c : compiled) =
    eval_planned
      {
        src = Array.make c.slots.nsrc (Value.Node source);
        tgt = Array.make c.slots.ntgt (Builder.root bld);
        record;
      }
      c.tree
  in
  (match plan with
   | `Naive ->
     ctx.index <- None;
     naive ()
   | `Indexed ->
     ctx.index <- Some (force_index ctx);
     run_planned (planned_for `Force)
   | `Auto ->
     if Xml.Stats.node_count (force_stats ctx) < naive_threshold then begin
       ctx.index <- None;
       naive ()
     end
     else begin
       let p = planned_for `Cost in
       (* The tag index pays only when some element's children are
          listed twice and the document is big enough to amortise the
          groupings; otherwise leave it off and scan. *)
       let use_index =
         tree_revisits ~outer_last:None p.tree
         && Xml.Stats.node_count (force_stats ctx) >= index_threshold
       in
       ctx.index <- (if use_index then Some (force_index ctx) else None);
       run_planned p
     end);
  Builder.root bld

let reraise_legacy ds =
  let d = match ds with d :: _ -> d | [] -> assert false in
  raise (Error d.Clip_diag.message)

let run_result ?limits ?minimum_cardinality ?plan ?ctl ?session ?steps_out
    ?obs ~source ~target_root m =
  Clip_diag.guard (fun () ->
    Builder.bnode_to_node
      (execute ?limits ?minimum_cardinality ?plan ?ctl ?session ?steps_out
         ?obs ~source ~target_root m))

let run ?limits ?minimum_cardinality ?plan ?ctl ?session ?steps_out ?obs
    ~source ~target_root m =
  match
    run_result ?limits ?minimum_cardinality ?plan ?ctl ?session ?steps_out
      ?obs ~source ~target_root m
  with
  | Ok n -> n
  | Error ds -> reraise_legacy ds

(* --- EXPLAIN ----------------------------------------------------------- *)

(* Static plan rendering: everything here mirrors the dispatch in
   [execute] — same thresholds, same policies, same planner — but only
   plans, never evaluates, so the output is deterministic and free of
   timings (golden-testable). *)
let explain ?(plan = `Auto) ?session ~source (m : Tgd.t) : string =
  let ctx =
    match session with
    | Some s when s.sctx.source == source -> s.sctx
    | _ -> make_ctx source
  in
  let b = Buffer.create 512 in
  let nodes = Xml.Stats.node_count (force_stats ctx) in
  Printf.bprintf b "backend: tgd\nplan: %s\ndocument: %d nodes\n"
    (match plan with `Naive -> "naive" | `Indexed -> "indexed" | `Auto -> "auto")
    nodes;
  let chain (m : Tgd.t) =
    match m.foralls with
    | [] -> "(no source generators)"
    | gens ->
      "for "
      ^ String.concat ", "
          (List.map
             (fun (g : Tgd.source_gen) ->
               Printf.sprintf "%s in %s" g.svar (Term.expr_to_string g.sexpr))
             gens)
  in
  let conds (m : Tgd.t) =
    match m.cond with
    | [] -> ""
    | cs ->
      " where "
      ^ String.concat " and "
          (List.map
             (fun (c : Tgd.comparison) ->
               Printf.sprintf "%s %s %s"
                 (Term.scalar_to_string c.left)
                 (Tgd.cmp_op_to_string c.op)
                 (Term.scalar_to_string c.right))
             cs)
  in
  let rule_header path m =
    Printf.bprintf b "rule %s: %s%s\n"
      (if String.equal path "" then "/" else path)
      (chain m) (conds m)
  in
  let rec naive_rules path (m : Tgd.t) =
    rule_header path m;
    if m.foralls <> [] then
      Buffer.add_string b
        "  every generator: nested-loop scan; conditions checked innermost\n";
    List.iteri
      (fun i c -> naive_rules (Printf.sprintf "%s/%d" path i) c)
      m.children
  in
  let rec planned_rules path (p : planned) =
    rule_header path p.pm;
    if p.pm.foralls <> [] then
      Printf.bprintf b "  plan: %s\n" (Clip_plan.describe p.pplan);
    Buffer.add_string b (Clip_plan.explain p.pplan);
    List.iteri
      (fun i c -> planned_rules (Printf.sprintf "%s/%d" path i) c)
      p.pchildren
  in
  (match plan with
   | `Naive ->
     Buffer.add_string b "strategy: naive interpreter (forced)\n";
     naive_rules "" m
   | `Indexed ->
     Buffer.add_string b
       "strategy: physical plans, forced hash joins, tag index on\n";
     planned_rules "" (plan_tree ctx `Force m).tree
   | `Auto ->
     if nodes < naive_threshold then begin
       Printf.bprintf b
         "strategy: direct interpreter (%d nodes, below the %d-node planning threshold)\n"
         nodes naive_threshold;
       naive_rules "" m
     end
     else begin
       let p = (plan_tree ctx `Cost m).tree in
       let revisits = tree_revisits ~outer_last:None p in
       let use_index = revisits && nodes >= index_threshold in
       Printf.bprintf b
         "strategy: physical plans, cost-based joins; tag index %s\n"
         (if use_index then "on (revisit-prone plan)"
          else if revisits then
            Printf.sprintf "off (document below the %d-node index threshold)"
              index_threshold
          else "off (straight-line plan, no element revisits)");
       planned_rules "" p
     end);
  Buffer.contents b

type trace_entry = {
  target_path : int list;
  sources : Xml.Node.t list;
}

(* Lineage is recorded only here: a side table keyed by build-node id
   collects, each time a target generator creates or re-reaches an
   element, the source elements bound at that moment (deduplicated by
   identity). Untraced runs pass no recorder and pay nothing. *)
let run_traced_unguarded ?limits ?minimum_cardinality ?plan ?ctl ?session
    ?steps_out ?obs ~source ~target_root m =
  let lineage = Hashtbl.create 64 in
  let record (node : Builder.bnode) =
    let seen, sources =
      match Hashtbl.find_opt lineage node.Builder.id with
      | Some entry -> entry
      | None ->
        let entry = (Xml.Index.Tbl.create 8, ref []) in
        Hashtbl.add lineage node.Builder.id entry;
        entry
    in
    fun e ->
      if not (Xml.Index.Tbl.mem seen e) then begin
        Xml.Index.Tbl.add seen e ();
        sources := e :: !sources
      end
  in
  let root =
    execute ?limits ?minimum_cardinality ?plan ?ctl ?session ?steps_out ?obs
      ~record ~source ~target_root m
  in
  let trace = ref [] in
  let rec walk path (b : Builder.bnode) =
    let sources =
      match Hashtbl.find_opt lineage b.Builder.id with
      | Some (_, sources) -> List.rev_map (fun e -> Xml.Node.Element e) !sources
      | None -> []
    in
    trace := { target_path = List.rev path; sources } :: !trace;
    List.iteri (fun i c -> walk (i :: path) c) (List.rev b.Builder.bchildren)
  in
  walk [] root;
  (Builder.bnode_to_node root, List.rev !trace)

let run_traced_result ?limits ?minimum_cardinality ?plan ?ctl ?session
    ?steps_out ?obs ~source ~target_root m =
  Clip_diag.guard (fun () ->
    run_traced_unguarded ?limits ?minimum_cardinality ?plan ?ctl ?session
      ?steps_out ?obs ~source ~target_root m)

let run_traced ?limits ?minimum_cardinality ?plan ?ctl ?session ?steps_out
    ?obs ~source ~target_root m =
  match
    run_traced_result ?limits ?minimum_cardinality ?plan ?ctl ?session
      ?steps_out ?obs ~source ~target_root m
  with
  | Ok r -> r
  | Error ds -> reraise_legacy ds
