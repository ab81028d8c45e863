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
(* Per-run columnar view of the source document: [Cnone] runs the
   boxed-tree paths; [Cnaive] sweeps the sibling-chain arrays with
   naive-scan counting (the columnar twin of the unindexed scan);
   [Cindexed] probes the memoised id-vector index. *)
type cview =
  | Cnone
  | Cnaive of Xml.Index.docidx
  | Cindexed of Xml.Index.docidx

type ctx = {
  source : Xml.Node.t;
  mutable index : Xml.Index.t option;
  mutable xindex : Xml.Index.t option; (* resettable memo, see [force_index] *)
  mutable stats : Xml.Stats.t option; (* resettable memo, see [force_stats] *)
  mutable cview : cview; (* per-run view, set by [execute] like [index] *)
  mutable xdoc : (Xml.Doc.t * Xml.Index.docidx) option;
      (* resettable memo: the converted columnar document and its
         id-vector index — per-document, so a session amortises the
         conversion across runs *)
  steps : int ref;
  mutable max_steps : int;
  mutable obs : Clip_obs.sink;
      (* per-run counter sink, set by [execute]; explicit state — the
         evaluator never reaches for an ambient sink *)
  mutable ctl : Clip_run.Control.t;
      (* per-run deadline/cancellation view, polled by [tick] *)
  sbuf_a : Xml.Index.idbuf;
  sbuf_b : Xml.Index.idbuf;
      (* scratch id buffers for the fused projection path, ping-ponged
         between levels. Owning them here makes the steady state
         allocation-free; sound because the fused path never re-enters
         source evaluation while a buffer is live (the base expression
         is evaluated before the first buffer fills, and level
         expansion calls only index sweeps and counters). *)
}

let make_ctx source =
  {
    source;
    index = None;
    xindex = None;
    stats = None;
    cview = Cnone;
    xdoc = None;
    steps = ref 0;
    max_steps = max_int;
    obs = Clip_obs.none;
    ctl = Clip_run.Control.none;
    sbuf_a = Xml.Index.idbuf_make ();
    sbuf_b = Xml.Index.idbuf_make ();
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

(* The columnar document and its index share one memo slot: the
   conversion is the expensive half, and the index ([build_doc], the
   fault boundary) is O(1) on top of it. *)
let force_doc ctx =
  match ctx.xdoc with
  | Some d -> d
  | None ->
    let doc = Xml.Doc.of_node ctx.source in
    let d = (doc, Xml.Index.build_doc doc) in
    ctx.xdoc <- Some d;
    d

let force_stats ctx =
  match ctx.stats with
  | Some s -> s
  | None ->
    let s =
      (* When the columnar document already exists, collect with the
         array sweep; {!Xml.Stats.collect_doc} agrees exactly with the
         tree walk, so which one ran is unobservable. *)
      match ctx.xdoc with
      | Some (doc, _) -> Xml.Stats.collect_doc doc
      | None -> Xml.Stats.collect ctx.source
    in
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

(* Environments bind source variables to items and target variables to
   build nodes (the shared {!Builder} target-construction core). *)
type binding = Src of Value.item | Tgt of Builder.bnode

module Env = Map.Make (String)

(* A mapping tree with each universal part compiled to a physical plan
   (condition pushdown + hash joins, see {!Clip_plan}) and each node's
   per-binding work compiled to a {!Builder.rule}. Planning only needs
   the statically known set of outer variables, so the tree is compiled
   once per [execute], or once per session. *)
type planned = {
  pm : Tgd.t;
  pplan : (binding Env.t, Value.item) Clip_plan.t;
  pbody : binding Env.t Builder.rule;
  pchildren : planned list;
}

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

(* The columnar twin of the naive scan: one sweep down the
   sibling-chain arrays, visiting every child (texts included) like the
   boxed scan — same [nodes_scanned] count, same matches, no
   memoisation. *)
let doc_scan_child_step ctx (doc : Xml.Doc.t) id sym =
  let tagi = (sym : Xml.Symbol.t :> int) in
  let matches = ref [] and n = ref 0 in
  let c = ref doc.Xml.Doc.first_child.(id) in
  while !c >= 0 do
    incr n;
    if doc.Xml.Doc.tags.(!c) = tagi then
      matches := doc.Xml.Doc.nodes.(!c) :: !matches;
    c := doc.Xml.Doc.next_sibling.(!c)
  done;
  Clip_obs.scanned ctx.obs !n;
  List.rev_map (fun nd -> Value.Node nd) !matches

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
    (match ctx.cview with
     | Cindexed d ->
       let id = Xml.Doc.find_id (Xml.Index.doc_of_index d) e in
       if id >= 0 then begin
         let items =
           Xml.Index.doc_children_map ?obs:ctx.obs d id sym ~f:(fun n ->
               Value.Node n)
         in
         if Clip_obs.enabled ctx.obs then
           Clip_obs.scanned ctx.obs (List.length items);
         items
       end
       else begin
         (* An element constructed during evaluation: not part of the
            converted document. Probe the boxed index (lazy, O(1)
            build) so foreign elements do exactly the work — probes,
            hits, matches-only scans — the boxed-tree indexed path
            reports for them. *)
         let matches =
           Xml.Index.children_by_tag ?obs:ctx.obs (force_index ctx) e sym
         in
         if Clip_obs.enabled ctx.obs then
           Clip_obs.scanned ctx.obs (List.length matches);
         List.map (fun n -> Value.Node n) matches
       end
     | Cnaive d ->
       let doc = Xml.Index.doc_of_index d in
       let id = Xml.Doc.find_id doc e in
       if id >= 0 then doc_scan_child_step ctx doc id sym
       else scan_child_step ctx e sym
     | Cnone -> tree_child_step ctx e sym)
  | Value.Node (Xml.Node.Element e), Path.Attr name ->
    (match Xml.Node.attr e name with Some a -> [ Value.Atomic a ] | None -> [])
  | Value.Node (Xml.Node.Element e), Path.Value ->
    let columnar =
      match ctx.cview with
      | Cnaive d | Cindexed d ->
        (* O(1) read of the precomputed text value instead of a walk
           over the children list. *)
        let doc = Xml.Index.doc_of_index d in
        let id = Xml.Doc.find_id doc e in
        if id >= 0 then Some (Xml.Doc.text_value_of doc id) else None
      | Cnone -> None
    in
    (match columnar with
     | Some (Some a) -> [ Value.Atomic a ]
     | Some None -> []
     | None ->
       (match Xml.Node.text_value e with Some a -> [ Value.Atomic a ] | None -> []))
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
  | Term.Proj ((Term.Proj _ as inner), step) as proj ->
    (* chains of ≥ 2 steps amortise the fused path's setup; a lone
       step is cheaper through the per-item fast path below *)
    (match ctx.cview with
     | Cnaive d | Cindexed d -> eval_proj_fused ctx env d proj
     | Cnone ->
       List.concat_map (fun item -> step_items ctx item step) (eval_src ctx env inner))
  | Term.Proj (inner, step) ->
    List.concat_map (fun item -> step_items ctx item step) (eval_src ctx env inner)

(* Fused columnar projection: the whole [Proj] chain runs in node-id
   space — one interned symbol and one growable id buffer per level,
   boxing only the final level — instead of a dispatch, a symbol
   intern and an intermediate boxed list per item per level. Results
   and counters are exactly the generic recursion's: ticks fire once
   per [Proj] node before the base evaluates (the generic unwind
   order), every parent element counts one [child_step], and
   scans/probes go through {!Xml.Index.doc_append_children}'s shared
   counting rules. Any base item outside the document (an
   evaluator-built element, a text node, an atom) falls back to the
   per-item path for the whole chain. *)
and eval_proj_fused ctx env d (e0 : Term.expr) : Value.item list =
  let rec spine acc e =
    match e with Term.Proj (inner, s) -> spine (s :: acc) inner | base -> (base, acc)
  in
  let base, steps = spine [] e0 in
  (* the caller's [tick] covered the outermost node *)
  (match steps with [] -> () | _ :: rest -> List.iter (fun _ -> tick ctx) rest);
  let items = eval_src ctx env base in
  let doc = Xml.Index.doc_of_index d in
  let ok = ref true in
  let buf = ctx.sbuf_a in
  buf.Xml.Index.len <- 0;
  List.iter
    (fun it ->
      if !ok then
        match it with
        | Value.Node (Xml.Node.Element e) ->
          let id = Xml.Doc.find_id doc e in
          if id >= 0 then Xml.Index.idbuf_push buf id else ok := false
        | Value.Node (Xml.Node.Text _) | Value.Atomic _ -> ok := false)
    items;
  if not !ok then
    List.fold_left
      (fun its step -> List.concat_map (fun it -> step_items ctx it step) its)
      items steps
  else begin
    let naive = match ctx.cview with Cnaive _ -> true | _ -> false in
    let boxed (src : int array) n =
      let rec mk i acc =
        if i < 0 then acc
        else mk (i - 1) (Value.Node doc.Xml.Doc.nodes.(src.(i)) :: acc)
      in
      mk (n - 1) []
    in
    let rec levels (cur : Xml.Index.idbuf) (other : Xml.Index.idbuf) = function
      | [] -> boxed cur.Xml.Index.ids cur.Xml.Index.len
      | Path.Child tag :: rest ->
        let sym = Xml.Symbol.intern tag in
        let dst = other in
        dst.Xml.Index.len <- 0;
        let src = cur.Xml.Index.ids and n = cur.Xml.Index.len in
        for j = 0 to n - 1 do
          Clip_obs.child_step ctx.obs;
          Xml.Index.doc_append_children ?obs:ctx.obs d ~naive dst src.(j) sym
        done;
        levels dst cur rest
      | [ Path.Value ] ->
        let src = cur.Xml.Index.ids in
        let rec mk i acc =
          if i < 0 then acc
          else
            let tv = doc.Xml.Doc.text_value.(src.(i)) in
            mk (i - 1)
              (if tv >= 0 then Value.Atomic doc.Xml.Doc.atoms.(tv) :: acc else acc)
        in
        mk (cur.Xml.Index.len - 1) []
      | [ Path.Attr name ] ->
        let src = cur.Xml.Index.ids in
        let rec mk i acc =
          if i < 0 then acc
          else
            let acc =
              match doc.Xml.Doc.nodes.(src.(i)) with
              | Xml.Node.Element e ->
                (match Xml.Node.attr e name with
                 | Some a -> Value.Atomic a :: acc
                 | None -> acc)
              | Xml.Node.Text _ -> acc
            in
            mk (i - 1) acc
        in
        mk (cur.Xml.Index.len - 1) []
      | ((Path.Value | Path.Attr _) :: _ :: _) as all ->
        (* a leaf step mid-chain: box here and let the per-item path
           finish (it answers [] for atoms, like the generic walk) *)
        List.fold_left
          (fun its step -> List.concat_map (fun it -> step_items ctx it step) its)
          (boxed cur.Xml.Index.ids cur.Xml.Index.len)
          all
    in
    levels buf ctx.sbuf_b steps
  end

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
   once per plan: tags are interned and every step dispatched at
   compile time. The closures tick, count and fail exactly where
   [eval_src]/[eval_scalar] do, in the same order, so budgets, deadline
   polls and counters cannot tell the two apart. A cached plan outlives
   one run's representation, so each closure reads [ctx.cview] per call
   and hands columnar views to [eval_src]. *)
let rec compile_tree_src ctx (e : Term.expr) : binding Env.t -> Value.item list =
  match e with
  | Term.Root s ->
    let items = [ Value.Node ctx.source ] in
    fun _ ->
      tick ctx;
      (match ctx.source with
       | Xml.Node.Element root when String.equal root.tag s -> items
       | Xml.Node.Element root ->
         error "source root is <%s>, the mapping expects <%s>" root.tag s
       | Xml.Node.Text _ -> error "source document root is a text node")
  | Term.Var x ->
    fun env ->
      tick ctx;
      (match Env.find_opt x env with
       | Some (Src item) -> [ item ]
       | Some (Tgt _) -> error "variable %s is a target variable in a source position" x
       | None -> error "unbound source variable %s" x)
  | Term.Proj (inner, step) ->
    let inner = compile_tree_src ctx inner in
    let step : Value.item -> Value.item list =
      match step with
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
    in
    fun env ->
      tick ctx;
      (match inner env with
       | [ item ] -> step item
       | items -> List.concat_map step items)

let compile_src ctx (e : Term.expr) =
  let tree = compile_tree_src ctx e in
  fun env ->
    match ctx.cview with
    | Cnone -> tree env
    | Cnaive _ | Cindexed _ -> eval_src ctx env e

let rec compile_scalar ctx (s : Term.scalar) : binding Env.t -> Xml.Atom.t list =
  match s with
  | Term.E e ->
    let src = compile_src ctx e in
    fun env ->
      tick ctx;
      Builder.atomize_items (src env)
  | Term.Const a ->
    let atoms = [ a ] in
    fun _ ->
      tick ctx;
      atoms
  | Term.Fn (name, args) ->
    let fn = Builder.scalar_fn name in
    let args =
      List.map
        (fun arg ->
          let arg = compile_scalar ctx arg in
          fun env ->
            match arg env with
            | [ a ] -> a
            | [] -> error "%s: an argument evaluates to the empty sequence" name
            | _ -> error "%s: an argument evaluates to multiple values" name)
        args
    in
    fun env ->
      tick ctx;
      [ fn (List.map (fun arg -> arg env) args) ]

let compile_holds ctx (c : Tgd.comparison) =
  let left = compile_scalar ctx c.left and right = compile_scalar ctx c.right in
  let cmp = Builder.compare_atoms c.op in
  fun env ->
    let ls = left env in
    let rs = right env in
    List.exists (fun a -> List.exists (cmp a) rs) ls

(* The environment operations shared by every compiled rule body;
   [compile_scalar]/[compile_items] choose compiled or interpreted
   evaluation. *)
let body_ops ~compile_scalar ~compile_items =
  {
    Builder.lookup_tgt =
      (fun env x ->
        match Env.find_opt x env with
        | Some (Tgt b) -> Some b
        | Some (Src _) -> error "variable %s is a source variable in a target position" x
        | None -> None);
    bind_tgt = (fun env x b -> Env.add x (Tgt b) env);
    compile_scalar;
    compile_items;
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

let cond_of ctx (c : Tgd.comparison) =
  let pvars = Term.scalar_vars c.left @ Term.scalar_vars c.right in
  let orig = { Clip_plan.pvars; test = compile_holds ctx c } in
  match c.op with
  | Tgd.Eq | Tgd.In ->
    let keyed s =
      let scalar = compile_scalar ctx s in
      {
        Clip_plan.kvars = Term.scalar_vars s;
        keys = (fun env -> List.map Clip_plan.Key.of_atom (scalar env));
      }
    in
    Clip_plan.Eq { left = keyed c.left; right = keyed c.right; orig }
  | Tgd.Ne | Tgd.Lt | Tgd.Le | Tgd.Gt | Tgd.Ge -> Clip_plan.Other orig

(* Compile a mapping tree to physical plans. Planning needs only the
   statically known outer variables (and, under [`Cost], the instance
   statistics), so a compiled tree is a per-(policy, mapping) artifact:
   its closures — plans and rule bodies — capture the context but none
   of a run's builder state, which is what lets a {!Session} cache it
   across runs. [runs] estimates how often the plan runs per evaluation
   (its ancestors' chain estimates), for pricing a per-run join with the
   parent. *)
let rec plan_mapping ctx policy ?runs bound var_tags (m : Tgd.t) =
  let gens_rev, var_tags' =
    List.fold_left
      (fun (acc, vt) (g : Tgd.source_gen) ->
        let est, tag =
          match policy with
          | `Force -> (None, None)
          | `Cost -> est_expr ctx vt g.sexpr
        in
        let gen =
          {
            Clip_plan.var = g.svar;
            deps = Term.expr_vars g.sexpr;
            est;
            eval = compile_src ctx g.sexpr;
            bind = (fun env item -> Env.add g.svar (Src item) env);
          }
        in
        (gen :: acc, (g.svar, tag) :: vt))
      ([], var_tags) m.foralls
  in
  let pplan =
    Clip_plan.plan ~policy ?runs ~bound ~gens:(List.rev gens_rev)
      ~conds:(List.map (cond_of ctx) m.cond) ()
  in
  let runs = Clip_plan.inner_runs ~runs pplan in
  let bound' =
    bound
    @ List.map (fun (g : Tgd.source_gen) -> g.svar) m.foralls
    @ List.map (fun (g : Tgd.target_gen) -> g.tvar) m.exists
  in
  {
    pm = m;
    pplan;
    pbody =
      Builder.compile
        (body_ops ~compile_scalar:(compile_scalar ctx) ~compile_items:(compile_src ctx))
        m;
    pchildren = List.map (plan_mapping ctx policy ?runs bound' var_tags') m.children;
  }

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
  splans : (bool * Tgd.t, planned) Hashtbl.t; (* key: (cost-policy?, mapping) *)
  (* One-slot physical-identity fast path in front of [splans]: a
     caller re-running the same mapping value skips the structural
     hash and deep equality, which on small documents costs as much as
     the run itself. *)
  mutable slast : (bool * Tgd.t * planned) option;
}

module Session = struct
  type t = session

  let create source =
    { sctx = make_ctx source; splans = Hashtbl.create 8; slast = None }
  let source s = s.sctx.source
  let stats s = force_stats s.sctx
end

(* Documents smaller than this don't repay the one-off columnar
   conversion under [`Auto] representation; the boxed tree runs. *)
let columnar_threshold = 256

let execute ?(limits = Clip_diag.Limits.default) ?(minimum_cardinality = true)
    ?(plan = `Auto) ?(repr = (`Tree : Xml.Doc.repr)) ?(ctl = Clip_run.Control.none)
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
  let bld = Builder.create ?record ~min_card:minimum_cardinality ~target_root () in
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
      (Builder.compile_tree
         (body_ops ~compile_scalar:(fun s env -> eval_scalar ctx env s)
            ~compile_items:(fun e env -> eval_src ctx env e))
         m)
  in
  (* The plan-based path: compile each mapping's universal part once
     (conditions pushed down, equality conditions turned into hash
     joins where profitable), then stream bindings into the same
     per-binding body the naive interpreter runs. With a session the
     compiled tree is fetched from (or added to) the per-document
     cache instead of recompiled. *)
  let planned_for policy =
    let build () = plan_mapping ctx policy ~runs:1 [] [] m in
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
  (* Resolve the document representation for this run. Under columnar
     the boxed tag index is never built: all child steps go through
     the id-vector index (or the array-sweep naive scan), and the
     planned path runs the vectorized frontier executor. *)
  let columnar =
    match repr with
    | `Tree -> false
    | `Columnar -> true
    | `Auto -> Xml.Stats.node_count (force_stats ctx) >= columnar_threshold
  in
  let docidx () = snd (force_doc ctx) in
  (* The run-scoped hash tables: a nested mapping joined to its parent
     builds its table once here, not once per parent binding. *)
  let run = Clip_plan.Run.create () in
  let rec eval_planned ~outer env (p : planned) =
    Builder.pre_instantiate bld p.pbody env;
    (* Batch only where batching pays: the outermost plan of a mapping
       node, whose frontier actually widens over the document, and only
       when its builds are frontier-uniform (see {!Clip_plan.batchable}).
       Nested plans run once per outer tuple over singleton frontiers,
       where the batch machinery is pure per-invocation overhead — they
       keep the depth-first executor. *)
    let exec =
      if columnar && outer && Clip_plan.batchable p.pplan then
        Clip_plan.execute_batch
      else Clip_plan.execute
    in
    exec ?obs:ctx.obs ~run p.pplan
      ~tick:(fun () -> tick ctx)
      ~env
      ~emit:
        (Builder.emit bld p.pbody (fun env ->
             List.iter (eval_planned ~outer:false env) p.pchildren))
  in
  (match plan with
   | `Naive ->
     ctx.index <- None;
     ctx.cview <- (if columnar then Cnaive (docidx ()) else Cnone);
     naive ()
   | `Indexed ->
     if columnar then begin
       ctx.index <- None;
       ctx.cview <- Cindexed (docidx ())
     end
     else begin
       ctx.index <- Some (force_index ctx);
       ctx.cview <- Cnone
     end;
     eval_planned ~outer:true Env.empty (planned_for `Force)
   | `Auto ->
     if Xml.Stats.node_count (force_stats ctx) < naive_threshold then begin
       ctx.index <- None;
       ctx.cview <- (if columnar then Cnaive (docidx ()) else Cnone);
       naive ()
     end
     else begin
       let p = planned_for `Cost in
       (* The tag index pays only when some element's children are
          listed twice and the document is big enough to amortise the
          groupings; otherwise leave it off and scan. *)
       let use_index =
         tree_revisits ~outer_last:None p
         && Xml.Stats.node_count (force_stats ctx) >= index_threshold
       in
       if columnar then begin
         ctx.index <- None;
         ctx.cview <- (if use_index then Cindexed (docidx ()) else Cnaive (docidx ()))
       end
       else begin
         ctx.index <- (if use_index then Some (force_index ctx) else None);
         ctx.cview <- Cnone
       end;
       eval_planned ~outer:true Env.empty p
     end);
  Builder.root bld

let reraise_legacy ds =
  let d = match ds with d :: _ -> d | [] -> assert false in
  raise (Error d.Clip_diag.message)

let run_result ?limits ?minimum_cardinality ?plan ?repr ?ctl ?session ?steps_out
    ?obs ~source ~target_root m =
  Clip_diag.guard (fun () ->
    Builder.bnode_to_node
      (execute ?limits ?minimum_cardinality ?plan ?repr ?ctl ?session ?steps_out
         ?obs ~source ~target_root m))

let run ?limits ?minimum_cardinality ?plan ?repr ?ctl ?session ?steps_out ?obs
    ~source ~target_root m =
  match
    run_result ?limits ?minimum_cardinality ?plan ?repr ?ctl ?session ?steps_out
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
     planned_rules "" (plan_mapping ctx `Force ~runs:1 [] [] m)
   | `Auto ->
     if nodes < naive_threshold then begin
       Printf.bprintf b
         "strategy: direct interpreter (%d nodes, below the %d-node planning threshold)\n"
         nodes naive_threshold;
       naive_rules "" m
     end
     else begin
       let p = plan_mapping ctx `Cost ~runs:1 [] [] m in
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
let run_traced_unguarded ?limits ?minimum_cardinality ?plan ?repr ?ctl ?session
    ?steps_out ?obs ~source ~target_root m =
  let lineage = Hashtbl.create 64 in
  let record env (node : Builder.bnode) =
    let seen, sources =
      match Hashtbl.find_opt lineage node.Builder.id with
      | Some entry -> entry
      | None ->
        let entry = (Xml.Index.Tbl.create 8, ref []) in
        Hashtbl.add lineage node.Builder.id entry;
        entry
    in
    Env.iter
      (fun _ binding ->
        match binding with
        | Src (Value.Node (Xml.Node.Element e)) ->
          if not (Xml.Index.Tbl.mem seen e) then begin
            Xml.Index.Tbl.add seen e ();
            sources := e :: !sources
          end
        | Src (Value.Node (Xml.Node.Text _) | Value.Atomic _) | Tgt _ -> ())
      env
  in
  let root =
    execute ?limits ?minimum_cardinality ?plan ?repr ?ctl ?session ?steps_out ?obs
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

let run_traced_result ?limits ?minimum_cardinality ?plan ?repr ?ctl ?session
    ?steps_out ?obs ~source ~target_root m =
  Clip_diag.guard (fun () ->
    run_traced_unguarded ?limits ?minimum_cardinality ?plan ?repr ?ctl ?session
      ?steps_out ?obs ~source ~target_root m)

let run_traced ?limits ?minimum_cardinality ?plan ?repr ?ctl ?session ?steps_out
    ?obs ~source ~target_root m =
  match
    run_traced_result ?limits ?minimum_cardinality ?plan ?repr ?ctl ?session
      ?steps_out ?obs ~source ~target_root m
  with
  | Ok r -> r
  | Error ds -> reraise_legacy ds
