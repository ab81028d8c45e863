module Xml = Clip_xml
module Path = Clip_schema.Path

let error fmt =
  Printf.ksprintf
    (fun s -> Clip_diag.fail (Clip_diag.error ~code:Clip_diag.Codes.tgd_eval s))
    fmt

(* The state of one run is its {!Meter}: the source document, its
   instance statistics (built on first use), the counter record and
   the step budget that bounds runaway mappings (CLIP-LIM-004); each
   source-expression or scalar evaluation ticks one step, so deep
   cross products hit the budget instead of hanging. *)
module Meter = Clip_xquery.Meter

type ctx = Meter.t

let tick = Meter.tick

(* The lineage of one traced run, in one structure: every (target
   node, source element) pair a binding records, appended in recording
   order. Each pair links to the previous pair of its node, and
   [last] maps a node's id — dense within the run, see {!Builder.bnode}
   — to its latest pair, so recording a pair is a few array writes and
   a node's pairs are read without a search. Repeats are dropped when
   the trace is read. *)
module Lineage = struct
  type t = {
    mutable last : int array;  (** node id -> its latest pair, or [-1] *)
    mutable prev : int array;  (** pair -> the previous pair of its node, or [-1] *)
    mutable src : Xml.Node.element array;  (** pair -> its source element *)
    mutable len : int;
  }

  let create () = { last = [||]; prev = [||]; src = [||]; len = 0 }

  let grow a len fill =
    let b = Array.make (max 64 (2 * len)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  let add t b (e : Xml.Node.element) =
    let k = t.len in
    if k = Array.length t.prev then begin
      t.prev <- grow t.prev k (-1);
      t.src <- grow t.src k e
    end;
    if b >= Array.length t.last then t.last <- grow t.last b (-1);
    t.prev.(k) <- t.last.(b);
    t.src.(k) <- e;
    t.last.(b) <- k;
    t.len <- k + 1

  (* The sources of node [b], each once, in the order first recorded.
     A short list is checked against what it kept so far; a long one
     through an identity table. The scan alone is quadratic on a large
     group's sources; a table alone costs more than the scan on the
     nodes with two or three sources that make up most traces. *)
  let sources t b : Xml.Node.t list =
    let all = ref [] and n = ref 0 in
    let k = ref (if b < Array.length t.last then t.last.(b) else -1) in
    while !k >= 0 do
      all := t.src.(!k) :: !all;
      incr n;
      k := t.prev.(!k)
    done;
    let seen = if !n > 8 then Some (Xml.Index.Tbl.create 16) else None in
    let rec keep kept = function
      | [] -> List.rev_map (fun e -> Xml.Node.Element e) kept
      | e :: rest ->
        let fresh =
          match seen with
          | None -> not (List.memq e kept)
          | Some seen ->
            (not (Xml.Index.Tbl.mem seen e))
            &&
            (Xml.Index.Tbl.add seen e ();
             true)
        in
        keep (if fresh then e :: kept else kept) rest
    in
    keep [] !all
end

(* A run's environment: one slot per binding site of the mapping tree,
   source and target slots in separate arrays. [plan_mapping] resolves
   every variable occurrence to its slot at plan time, so a binding is
   an array write and a lookup an array read. One frame serves a run;
   plans hold slot numbers, never a frame. Every binding site has its
   own slot, so a name re-bound by a child rule or a later generator
   shadows the outer binding without overwriting it. A source slot
   holds the node bound there; an attribute or value a generator
   ranges over is bound as a text node, which every source step and
   scalar treats as the atom it holds. *)
type frame = {
  src : Xml.Node.t array;
  tgt : Builder.bnode array;
  lineage : Lineage.t option;
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
let lineage_sources (scope : scope) : int array =
  Array.of_list
    (List.filter_map
       (fun x -> match resolve x scope with Some (S k) -> Some k | Some (T _) | None -> None)
       (List.sort_uniq String.compare (List.map fst scope)))

let record_lineage lineage (node : Builder.bnode) sources (src : Xml.Node.t array) =
  Array.iter
    (fun k ->
      match src.(k) with
      | Xml.Node.Element e -> Lineage.add lineage node.id e
      | Xml.Node.Text _ -> ())
    sources

(* A mapping tree with each universal part compiled to a physical plan
   (condition pushdown + hash joins, see {!Clip_plan}) and each node's
   per-binding work compiled to a {!Builder.rule}. Planning only needs
   the statically known outer scope, so the tree is compiled once per
   [execute]. *)
type planned = {
  pm : Tgd.t;
  pplan : (frame, Xml.Node.t) Clip_plan.t;
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
   push their results to a callback, or return a scalar's one atom,
   instead of building a list; they tick once per source expression or
   scalar evaluated, count every child step and fail with the
   interpreter's messages, in the order an expression-by-expression
   walk meets them; the reference interpreter in test/tgd_oracle.ml
   pins those sites. *)

(* The node a path starts from: a source slot, or a closure that
   checks the source root or raises the diagnostic of a name that is
   not a source variable. It does not tick: the path ticks for it. *)
type head = Slot of int | Head of (frame -> Xml.Node.t)

let compile_head (ctx : ctx) scope (e : Term.expr) : head =
  match Term.head e with
  | Term.Root s ->
    Head
      (fun _ ->
        match ctx.source with
        | Xml.Node.Element root when String.equal root.tag s -> ctx.source
        | Xml.Node.Element root ->
          error "source root is <%s>, the mapping expects <%s>" root.tag s
        | Xml.Node.Text _ -> error "source document root is a text node")
  | Term.Var x ->
    (match resolve x scope with
     | Some (S i) -> Slot i
     | Some (T _) ->
       Head (fun _ -> error "variable %s is a target variable in a source position" x)
     | None -> Head (fun _ -> error "unbound source variable %s" x))
  | Term.Proj _ -> assert false (* [Term.head] never returns a projection *)

let node_of head fr = match head with Slot i -> fr.src.(i) | Head f -> f fr

(* [compile_walk ctx steps ~node ~atom] — a function [walk k n] that
   follows [steps] from node [n] with no list built: a child step
   pushes each match on to the next step as the scan meets it, and
   the results go to [node k] (a node after the last step) or [atom k]
   (the atom of a final attribute or value step). Steps after an
   attribute or value step have no node to start from and yield
   nothing. *)
let compile_walk ctx steps ~(node : 'k -> Xml.Node.t -> unit) ~(atom : 'k -> Xml.Atom.t -> unit)
    : 'k -> Xml.Node.t -> unit =
  let rec go : Path.step list -> 'k -> Xml.Node.t -> unit = function
    | [] -> node
    | Path.Child tag :: rest ->
      let sym = Xml.Symbol.intern tag and next = go rest in
      fun k n ->
        (match n with
         | Xml.Node.Element e -> Meter.child_step ctx e sym next k
         | Xml.Node.Text _ -> ())
    | [ Path.Attr name ] ->
      fun k n ->
        (match n with
         | Xml.Node.Element e ->
           let a = Xml.Node.attr_or e name Builder.none in
           if a != Builder.none then atom k a
         | Xml.Node.Text _ -> ())
    | [ Path.Value ] ->
      fun k n ->
        (match n with
         | Xml.Node.Element e ->
           let a = Xml.Node.text_value_or e Builder.none in
           if a != Builder.none then atom k a
         | Xml.Node.Text _ -> ())
    | (Path.Attr _ | Path.Value) :: _ :: _ -> fun _ _ -> ()
  in
  go steps

(* A source expression — a root or a variable and its steps — pushing
   its results to [k]. It ticks once per projection and once for its
   head, plus [extra] for an enclosing scalar, all before the head is
   read and the first step taken, as the nested evaluation of
   [Proj (Proj (x, s1), s2)] does. *)
let compile_path ?(extra = 0) ctx scope (e : Term.expr) ~node ~atom : frame -> 'k -> unit =
  let head = compile_head ctx scope e and steps = Term.steps e in
  let n = extra + List.length steps + 1 and walk = compile_walk ctx steps ~node ~atom in
  fun fr k ->
    Meter.ticks ctx n;
    walk k (node_of head fr)

(* The items of a source expression: nodes, and the atom of a final
   attribute or value step as a text node. *)
let compile_src ctx scope e : frame -> (Xml.Node.t -> unit) -> unit =
  compile_path ctx scope e ~node:(fun k n -> k n) ~atom:(fun k a -> k (Xml.Node.Text a))

(* A generator's items. Its callback runs the rest of the chain, which
   can fail, between two pushes, so every step the expression takes is
   counted before the first item is pushed, as when the items were
   listed first: a path with one child step counts it in full before
   pushing ({!Meter.child_step}), and a longer one lists its items
   first. *)
let compile_gen ctx scope e : frame -> (Xml.Node.t -> unit) -> unit =
  let src = compile_src ctx scope e in
  let rec child_steps = function
    | Path.Child _ :: rest -> 1 + child_steps rest
    | (Path.Attr _ | Path.Value) :: _ | [] -> 0
  in
  if child_steps (Term.steps e) <= 1 then src
  else fun fr k ->
    let items = ref [] in
    src fr (fun n -> items := n :: !items);
    List.iter k (List.rev !items)

(* The atom a leaf scalar reads from its node: the node's own (an
   element by its string value), an attribute's, or the text's. *)
type leaf = Self | Attr of string | Value

let leaf_atom leaf (n : Xml.Node.t) =
  match leaf, n with
  | Self, n -> Builder.atomize_node n
  | Attr name, Xml.Node.Element e -> Xml.Node.attr_or e name Builder.none
  | Value, Xml.Node.Element e -> Xml.Node.text_value_or e Builder.none
  | (Attr _ | Value), Xml.Node.Text _ -> Builder.none

(* A scalar that reads at most one atom straight off its head — [x],
   [x.@a], [x.value] — and the ticks it takes: one for the scalar, one
   per projection, one for the head. *)
let leaf_of ctx scope (s : Term.scalar) =
  match s with
  | Term.E e ->
    let leaf =
      match Term.steps e with
      | [] -> Some (Self, 2)
      | [ Path.Attr name ] -> Some (Attr name, 3)
      | [ Path.Value ] -> Some (Value, 3)
      | _ :: _ -> None
    in
    Option.map (fun (leaf, n) -> (compile_head ctx scope e, leaf, n)) leaf
  | Term.Const _ | Term.Fn _ -> None

(* A scalar ticks once, then as its expression does. A leaf scalar is a
   [One] that reads its atom in place; a path with child steps
   ([x.c.value]) is a [Many] whose walk pushes each atom where it ends.
   Constants and function applications are [One]s. *)
let rec compile_scalar ctx scope (s : Term.scalar) : frame Builder.scalar =
  match s, leaf_of ctx scope s with
  | _, Some (head, leaf, n) ->
    Builder.One
      (fun fr ->
        Meter.ticks ctx n;
        leaf_atom leaf (node_of head fr))
  | Term.E e, None ->
    Builder.Many
      (compile_path ~extra:1 ctx scope e
         ~node:(fun k n -> k (Builder.atomize_node n))
         ~atom:(fun k a -> k a))
  | Term.Const a, None ->
    Builder.One
      (fun _ ->
        tick ctx;
        a)
  | Term.Fn (name, args), None ->
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
        fn (List.map (fun arg -> arg fr) args))

(* Both sides are evaluated in full, left first; the comparison holds
   when some pair of their atoms compares true (exists semantics). *)
let compile_holds ctx scope (c : Tgd.comparison) : frame -> bool =
  let cmp = Builder.compare_atoms c.op in
  match compile_scalar ctx scope c.left, compile_scalar ctx scope c.right with
  | Builder.One left, Builder.One right ->
    fun fr ->
      let a = left fr in
      let b = right fr in
      a != Builder.none && b != Builder.none && cmp a b
  | left, right ->
    let module Sink = Clip_plan.Sink in
    let left = Builder.push left and right = Builder.push right in
    let ls = Sink.create () and rs = Sink.create () in
    fun fr ->
      Sink.fill ls left fr;
      Sink.fill rs right fr;
      if ls.n = 1 && rs.n = 1 then cmp ls.first rs.first
      else begin
        let rs = Sink.atoms rs in
        List.exists (fun a -> List.exists (cmp a) rs) (Sink.atoms ls)
      end

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
            (match fr.lineage with
             | Some lineage -> record_lineage lineage node sources fr.src
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
      { Clip_plan.kvars = Term.scalar_vars s; keys = Builder.push (compile_scalar ctx scope s) }
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
            eval = compile_gen ctx scope g.sexpr;
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

let execute ?(limits = Clip_diag.Limits.default) ?(minimum_cardinality = true)
    ?(plan = `Auto) ?ctl ?obs ?lineage ~source ~target_root (m : Tgd.t) =
  let ctx =
    Meter.create ~max_steps:limits.Clip_diag.Limits.max_eval_steps
      ?counters:obs ?ctl ~what:"mapping" source
  in
  Meter.enter ctx;
  let bld = Builder.create ~min_card:minimum_cardinality ~target_root () in
  (* Compile each mapping's universal part once (conditions pushed
     down, equality conditions turned into hash joins where they pay),
     then stream bindings into the rule's compiled per-binding body. *)
  let c = plan_tree ctx (Clip_plan.policy_of plan) m in
  (* The run-scoped hash tables: a nested mapping joined to its parent
     builds its table once here, not once per parent binding. Each
     node's loop — its executor, its emit and its children's loops —
     is built once here, not once per parent binding. *)
  let run = Clip_plan.Run.create () in
  let tick () = tick ctx in
  let rec loop (p : planned) : frame -> unit =
    let children = List.map loop p.pchildren in
    let rec run_children fr = function
      | [] -> ()
      | child :: rest ->
        child fr;
        run_children fr rest
    in
    let emit = Builder.emit bld p.pbody (fun fr -> run_children fr children) in
    let exec = Clip_plan.executor ~obs:ctx.counters ~run p.pplan ~tick ~emit in
    fun fr ->
      Builder.pre_instantiate bld p.pbody fr;
      exec fr
  in
  loop c.tree
    {
      src = Array.make c.slots.nsrc source;
      tgt = Array.make c.slots.ntgt (Builder.root bld);
      lineage;
    };
  Builder.root bld

let run_result ?limits ?minimum_cardinality ?plan ?ctl ?obs ~source
    ~target_root m =
  Clip_diag.guard (fun () ->
    Builder.bnode_to_node
      (execute ?limits ?minimum_cardinality ?plan ?ctl ?obs ~source
         ~target_root m))

(* --- EXPLAIN ----------------------------------------------------------- *)

(* Static plan rendering: everything here mirrors the dispatch in
   [execute] — same policies, same planner — but only plans, never
   evaluates, so the output is deterministic and free of timings
   (golden-testable). *)
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
  Buffer.add_string b (Clip_plan.strategy plan);
  planned_rules "" (plan_tree ctx (Clip_plan.policy_of plan) m).tree;
  Buffer.contents b

type trace_entry = {
  target_path : int list;
  sources : Xml.Node.t list;
}

(* Lineage is recorded only here: one run-wide {!Lineage} collects,
   each time a target generator creates or re-reaches an element, the
   source elements bound at that moment; each target element's are
   deduplicated by identity when the trace is read. Untraced runs pass
   none and pay nothing. *)
let run_traced_result ?limits ?minimum_cardinality ?plan ?ctl ?obs ~source
    ~target_root m =
  Clip_diag.guard @@ fun () ->
  let lineage = Lineage.create () in
  let root =
    execute ?limits ?minimum_cardinality ?plan ?ctl ?obs ~lineage ~source
      ~target_root m
  in
  let trace = ref [] in
  let rec walk path (b : Builder.bnode) =
    trace := { target_path = List.rev path; sources = Lineage.sources lineage b.Builder.id } :: !trace;
    List.iteri (fun i c -> walk (i :: path) c) (List.rev b.Builder.bchildren)
  in
  walk [] root;
  (Builder.bnode_to_node root, List.rev !trace)
