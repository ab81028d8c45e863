(* The reference interpreter for nested tgds: the operational reading
   of Sec. IV walked literally. Each rule enumerates the full Cartesian
   product of its source generators, left to right, into a name-keyed
   environment, checks every condition innermost, then runs the rule's
   body and its children per surviving binding. Nothing is planned,
   pushed down, joined or indexed, and no [Clip_plan] or
   [Clip_tgd.Eval] code runs: the target is built through
   [Clip_tgd.Builder]'s public API only, so byte identity with every
   backend is a check on the planned executors.

   The differential suites (plan, rel, shard, algebra, figures,
   extensions and the fuzz engine target) take their expected bytes
   from here. The interpreter ticks the step budget and counts
   [lim_ticks], [child_steps] and [nodes_scanned] into a counter
   record (the caller's, or a fresh one) at the sites the executors meter: one tick per source
   expression, scalar and enumerated binding, every child step a scan
   of all children. Lineage is read from the environment itself, so
   the lineage checks share no helper with the executor they check.
   Clarity over speed. *)

module Xml = Clip_xml
module Value = Clip_xquery.Value
module Builder = Clip_tgd.Builder
module Tgd = Clip_tgd.Tgd
module Term = Clip_tgd.Term
module Path = Clip_schema.Path

let error = Builder.error

type binding = Src of Value.item | Tgt of Builder.bnode

module Env = Map.Make (String)

type ctx = {
  source : Xml.Node.t;
  steps : int ref;
  max_steps : int;
  obs : Clip_obs.Counters.t;
}

let tick ctx =
  incr ctx.steps;
  ctx.obs.lim_ticks <- ctx.obs.lim_ticks + 1;
  if !(ctx.steps) > ctx.max_steps then
    Clip_diag.fail
      (Clip_diag.error ~code:Clip_diag.Codes.limit_eval_steps
         ~hints:
           [ "raise [limits.max_eval_steps] if the mapping is expected to be this large" ]
         (Printf.sprintf "evaluation exceeded the budget of %d steps" ctx.max_steps))

(* --- Source side --------------------------------------------------------- *)

let step_items ctx (item : Value.item) (step : Path.step) : Value.item list =
  match item, step with
  | Value.Node (Xml.Node.Element e), Path.Child tag ->
    ctx.obs.child_steps <- ctx.obs.child_steps + 1;
    ctx.obs.nodes_scanned <- ctx.obs.nodes_scanned + List.length e.children;
    List.filter_map
      (function
        | Xml.Node.Element c when String.equal c.tag tag ->
          Some (Value.Node (Xml.Node.Element c))
        | Xml.Node.Element _ | Xml.Node.Text _ -> None)
      e.children
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

(* Every environment extending [env] with one item per generator, left
   to right (later generators may read earlier variables). *)
let rec bindings ctx env = function
  | [] -> [ env ]
  | (g : Tgd.source_gen) :: rest ->
    List.concat_map
      (fun item -> bindings ctx (Env.add g.svar (Src item) env) rest)
      (eval_src ctx env g.sexpr)

(* --- Target side ----------------------------------------------------------- *)

(* Lineage: [record node e] adds source element [e] to the lineage of
   target element [node]. Each time a target generator binds, every
   source element of the environment is recorded, in [Env.iter] order:
   every name once, at its innermost binding. *)
type recorder = Builder.bnode -> Xml.Node.element -> unit

(* The rule-body operations: every name is looked up in the
   environment per binding, so the compile-time scope carries
   nothing. *)
let ops ctx (record : recorder option) : (binding Env.t, unit) Builder.ops =
  {
    Builder.lookup_tgt =
      (fun () x env ->
        match Env.find_opt x env with
        | Some (Tgt b) -> b
        | Some (Src _) -> error "variable %s is a source variable in a target position" x
        | None -> error "unbound target variable %s" x);
    bind_tgt =
      (fun () x ->
        ( (),
          fun env node ->
            Option.iter
              (fun record ->
                Env.iter
                  (fun _ -> function
                    | Src (Value.Node (Xml.Node.Element e)) -> record node e
                    | Src (Value.Node (Xml.Node.Text _) | Value.Atomic _) | Tgt _ -> ())
                  env)
              record;
            Env.add x (Tgt node) env ));
    compile_scalar = (fun () s -> Builder.Many (fun env k -> List.iter k (eval_scalar ctx env s)));
    compile_items =
      (fun () e env k ->
        List.iter
          (function Value.Node n -> k n | Value.Atomic a -> k (Xml.Node.Text a))
          (eval_src ctx env e));
  }

type tree = { tm : Tgd.t; rule : binding Env.t Builder.rule; children : tree list }

let rec compile ops (m : Tgd.t) =
  {
    tm = m;
    rule = fst (Builder.compile ops ~outer:() () m);
    children = List.map (compile ops) m.children;
  }

let execute ~limits ~minimum_cardinality ?(obs = Clip_obs.Counters.create ())
    ?record ~source ~target_root m =
  let ctx =
    { source; steps = ref 0; max_steps = limits.Clip_diag.Limits.max_eval_steps; obs }
  in
  let bld = Builder.create ~min_card:minimum_cardinality ~target_root () in
  let rec eval env t =
    Builder.pre_instantiate bld t.rule env;
    List.iter
      (fun env ->
        tick ctx;
        if List.for_all (holds ctx env) t.tm.cond then
          Builder.emit bld t.rule (fun env -> List.iter (eval env) t.children) env)
      (bindings ctx env t.tm.foralls)
  in
  eval Env.empty (compile (ops ctx record) m);
  Builder.root bld

(* --- Entry points ------------------------------------------------------------ *)

let run ?(limits = Clip_diag.Limits.default) ?(minimum_cardinality = true) ?obs ~source
    ~target_root m =
  Clip_diag.guard (fun () ->
      Builder.bnode_to_node
        (execute ~limits ~minimum_cardinality ?obs ~source ~target_root m))

(* The target and the lineage of every target element, in preorder:
   the source elements recorded for it, deduplicated, first
   recording first. *)
let run_traced ?(limits = Clip_diag.Limits.default) ?(minimum_cardinality = true)
    ~source ~target_root m =
  Clip_diag.guard @@ fun () ->
  let lineage = Hashtbl.create 64 in
  let record (node : Builder.bnode) (e : Xml.Node.element) =
    let sources =
      match Hashtbl.find_opt lineage node.Builder.id with
      | Some sources -> sources
      | None ->
        let sources = ref [] in
        Hashtbl.add lineage node.Builder.id sources;
        sources
    in
    if not (List.memq e !sources) then sources := e :: !sources
  in
  let root = execute ~limits ~minimum_cardinality ~record ~source ~target_root m in
  let rec walk path (b : Builder.bnode) =
    let sources =
      match Hashtbl.find_opt lineage b.Builder.id with
      | Some sources -> List.rev_map (fun e -> Xml.Node.Element e) !sources
      | None -> []
    in
    { Clip_tgd.Eval.target_path = List.rev path; sources }
    :: List.concat (List.mapi (fun i c -> walk (i :: path) c) (List.rev b.Builder.bchildren))
  in
  (Builder.bnode_to_node root, walk [] root)

(* A Clip mapping, compiled to its tgd, over a source document. *)
let run_mapping ?limits ?minimum_cardinality ?obs (m : Clip_core.Mapping.t) source =
  Result.bind (Clip_core.Compile.to_tgd_result m) (fun tgd ->
      run ?limits ?minimum_cardinality ?obs ~source ~target_root:m.target.root.name tgd)

let run_mapping_traced ?limits ?minimum_cardinality (m : Clip_core.Mapping.t) source =
  Result.bind (Clip_core.Compile.to_tgd_result m) (fun tgd ->
      run_traced ?limits ?minimum_cardinality ~source ~target_root:m.target.root.name tgd)

(* The oracle's output, for tests that expect the mapping to run. *)
let expect ?minimum_cardinality m source =
  match run_mapping ~limits:Clip_diag.Limits.unlimited ?minimum_cardinality m source with
  | Ok out -> out
  | Error ds -> failwith ("the reference interpreter failed: " ^ Clip_diag.render_list ds)
