module Xml = Clip_xml
module Path = Clip_schema.Path
module Value = Clip_xquery.Value

let error fmt =
  Printf.ksprintf
    (fun s -> Clip_diag.fail (Clip_diag.error ~code:Clip_diag.Codes.tgd_eval s))
    fmt

(* The state of one run is its {!Meter}: the source document, its
   instance statistics and tag index (each built on first use), the
   counter record and the step budget that bounds runaway mappings
   (CLIP-LIM-004); each source-expression or scalar evaluation ticks
   one step, so deep cross products hit the budget instead of hanging.
   The meter's [index] is set at run start to the index ([`Indexed],
   or [`Auto] when indexing is judged to pay) or left [None]. *)
module Meter = Clip_xquery.Meter

type ctx = Meter.t

let tick = Meter.tick

(* Lineage: [record node] adds source elements to the lineage of
   target element [node]. *)
type recorder = Builder.bnode -> Xml.Node.element -> unit

(* A run's environment: one slot per binding site of the mapping tree,
   source and target slots in separate arrays. [plan_mapping] resolves
   every variable occurrence to its slot at plan time, so a binding is
   an array write and a lookup an array read. A frame is allocated per
   [execute]; plans hold slot numbers, never a frame. Every binding
   site has its own slot, so a name re-bound by a child rule or a later
   generator shadows the outer binding without overwriting it. *)
type frame = {
  src : Value.item array;
  tgt : Builder.bnode array;
  record : recorder option;
}

(* A compile-time scope: the names in scope with the slot each binding
   resolves to, innermost first, so lookup finds the innermost binding.
   [layout] numbers the slots per plan tree. *)
type slot = S of int | T of int
type scope = (string * slot) list
type layout = { mutable nsrc : int; mutable ntgt : int }

let rec resolve x : scope -> slot option = function
  | [] -> None
  | (y, slot) :: rest -> if String.equal x y then Some slot else resolve x rest

(* Lineage: each time a target generator binds, the source elements
   bound in its scope are recorded — every name once, at its innermost
   binding, in [String.compare] order, skipping names whose innermost
   binding is a target variable. [lineage_sources] lists those source
   slots once, at compile time, and [record_lineage] reads them per
   binding. *)
let lineage_sources (scope : scope) : int list =
  List.filter_map
    (fun x -> match resolve x scope with Some (S k) -> Some k | Some (T _) | None -> None)
    (List.sort_uniq String.compare (List.map fst scope))

let record_lineage (record : recorder) node sources (src : Value.item array) =
  let add = record node in
  List.iter
    (fun k ->
      match src.(k) with
      | Value.Node (Xml.Node.Element e) -> add e
      | Value.Node (Xml.Node.Text _) | Value.Atomic _ -> ())
    sources

(* A mapping tree with each universal part compiled to a physical plan
   (condition pushdown + hash joins, see {!Clip_plan}) and each node's
   per-binding work compiled to a {!Builder.rule}. Planning only needs
   the statically known outer scope, so the tree is compiled once per
   [execute]. *)
type planned = {
  pm : Tgd.t;
  pplan : (frame, Value.item) Clip_plan.t;
  pbody : frame Builder.rule;
  pchildren : planned list;
}

(* A planned tree with the slots of its frames. *)
type compiled = { tree : planned; slots : layout }

let scalar_functions = Builder.scalar_functions

(* --- Compiled evaluation ----------------------------------------------- *)

(* [compile_src]/[compile_scalar] turn an expression into a closure
   over frames once per plan: variables are resolved to slots, tags
   interned and every step dispatched at compile time. The closures
   tick once per source expression or scalar evaluated, count every
   child step and fail with the interpreter's messages, in the order
   an expression-by-expression walk meets them; the reference
   interpreter in test/tgd_oracle.ml pins those sites. *)

(* The one item a root or a variable denotes. *)
let compile_root (ctx : ctx) s : frame -> Value.item =
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
      | Value.Node (Xml.Node.Element e) -> Meter.child_step ctx e sym
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
let frame_ops ctx layout : (frame, scope) Builder.ops =
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
        let sources = lineage_sources scope in
        ( (x, T i) :: scope,
          fun fr node ->
            (match fr.record with
             | Some record -> record_lineage record node sources fr.src
             | None -> ());
            fr.tgt.(i) <- node;
            fr ));
    compile_scalar = compile_scalar ctx;
    compile_items = compile_src ctx;
  }

(* --- Planning ---------------------------------------------------------- *)

(* Estimated items of one evaluation of [e] under the [`Cost] policy,
   from per-tag cardinalities ({!Meter.est_child}); attribute and value
   steps yield at most one. [var_tags] maps chain variables to the tag
   of the element they range over. Returns the estimate and the
   result's tag (for threading through [var_tags]). *)
let est_expr ctx var_tags (e : Term.expr) : int option * Xml.Symbol.t option =
  let rec go = function
    | Term.Root s -> (Some 1, Some (Xml.Symbol.intern s))
    | Term.Var x -> (Some 1, Option.join (List.assoc_opt x var_tags))
    | Term.Proj (e, step) ->
      (match (step : Path.step) with
       | Path.Attr _ | Path.Value -> (fst (go e), None)
       | Path.Child t -> Meter.est_child ctx (go e) t)
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
   statistics); the closures — plans and rule bodies — capture the
   context and slot numbers, and a frame is allocated per run of the
   tree. [scope] threads through the generators, the
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

let execute ?(limits = Clip_diag.Limits.default) ?(minimum_cardinality = true)
    ?(plan = `Auto) ?ctl ?obs ?record ~source ~target_root (m : Tgd.t) =
  let ctx =
    Meter.create ~max_steps:limits.Clip_diag.Limits.max_eval_steps
      ?counters:obs ?ctl ~what:"mapping" source
  in
  Meter.enter ctx Clip_fault.Site.tgd_execute;
  let bld = Builder.create ~min_card:minimum_cardinality ~target_root () in
  (* Compile each mapping's universal part once (conditions pushed
     down, equality conditions turned into hash joins where they pay),
     then stream bindings into the rule's compiled per-binding body. *)
  let c =
    match plan with
    | `Indexed ->
      ctx.index <- Some (Meter.force_index ctx);
      plan_tree ctx `Force m
    | `Auto ->
      let c = plan_tree ctx `Cost m in
      (* The tag index pays only when some element's children are
         listed twice and the document is big enough to amortise the
         groupings; otherwise leave it off and scan. *)
      if
        tree_revisits ~outer_last:None c.tree
        && Xml.Stats.node_count (Meter.force_stats ctx) >= Meter.index_threshold
      then ctx.index <- Some (Meter.force_index ctx);
      c
  in
  (* The run-scoped hash tables: a nested mapping joined to its parent
     builds its table once here, not once per parent binding. *)
  let run = Clip_plan.Run.create () in
  let rec eval_planned fr (p : planned) =
    Builder.pre_instantiate bld p.pbody fr;
    Clip_plan.execute ~obs:ctx.counters ~run p.pplan
      ~tick:(fun () -> tick ctx)
      ~env:fr
      ~emit:
        (Builder.emit bld p.pbody (fun fr ->
             List.iter (eval_planned fr) p.pchildren))
  in
  eval_planned
    {
      src = Array.make c.slots.nsrc (Value.Node source);
      tgt = Array.make c.slots.ntgt (Builder.root bld);
      record;
    }
    c.tree;
  Builder.root bld

let run_result ?limits ?minimum_cardinality ?plan ?ctl ?obs ~source
    ~target_root m =
  Clip_diag.guard (fun () ->
    Builder.bnode_to_node
      (execute ?limits ?minimum_cardinality ?plan ?ctl ?obs ~source
         ~target_root m))

(* --- EXPLAIN ----------------------------------------------------------- *)

(* Static plan rendering: everything here mirrors the dispatch in
   [execute] — same index threshold, same policies, same planner — but only
   plans, never evaluates, so the output is deterministic and free of
   timings (golden-testable). *)
let explain ?(plan = `Auto) ~source (m : Tgd.t) : string =
  let ctx = Meter.create ~what:"mapping" source in
  let b = Buffer.create 512 in
  let nodes = Xml.Stats.node_count (Meter.force_stats ctx) in
  Printf.bprintf b "backend: tgd\nplan: %s\ndocument: %d nodes\n"
    (match plan with `Indexed -> "indexed" | `Auto -> "auto")
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
   | `Indexed ->
     Buffer.add_string b
       "strategy: physical plans, forced hash joins, tag index on\n";
     planned_rules "" (plan_tree ctx `Force m).tree
   | `Auto ->
     let p = (plan_tree ctx `Cost m).tree in
     let revisits = tree_revisits ~outer_last:None p in
     let use_index = revisits && nodes >= Meter.index_threshold in
     Printf.bprintf b
       "strategy: physical plans, cost-based joins; tag index %s\n"
       (if use_index then "on (revisit-prone plan)"
        else if revisits then
          Printf.sprintf "off (document below the %d-node index threshold)"
            Meter.index_threshold
        else "off (straight-line plan, no element revisits)");
     planned_rules "" p);
  Buffer.contents b

type trace_entry = {
  target_path : int list;
  sources : Xml.Node.t list;
}

(* Lineage is recorded only here: a side table keyed by build-node id
   collects, each time a target generator creates or re-reaches an
   element, the source elements bound at that moment (deduplicated by
   identity). Untraced runs pass no recorder and pay nothing. *)
let run_traced_result ?limits ?minimum_cardinality ?plan ?ctl ?obs ~source
    ~target_root m =
  Clip_diag.guard @@ fun () ->
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
    execute ?limits ?minimum_cardinality ?plan ?ctl ?obs ~record ~source
      ~target_root m
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
