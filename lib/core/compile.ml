module Path = Clip_schema.Path
module Schema = Clip_schema.Schema
module Tgd = Clip_tgd.Tgd
module Term = Clip_tgd.Term

exception Invalid of Validity.issue list

(* Compile-time errors carry a stable CLIP-CMP-* code; the legacy
   [to_tgd]/[to_tgd_unchecked] entry points re-raise them as [Failure]
   (their historical behaviour). *)
let cerror code fmt =
  Printf.ksprintf
    (fun s -> Clip_diag.fail (Clip_diag.error ~code ("compile: " ^ s)))
    fmt

let issue_to_diag (i : Validity.issue) =
  let severity =
    match i.severity with
    | Validity.Error -> Clip_diag.Error
    | Validity.Warning -> Clip_diag.Warning
  in
  Clip_diag.make ~severity ~code:(Clip_diag.Codes.validity i.code) i.message

(* A source binding in scope: the variable (None = the schema root
   itself) and the element path it ranges over. *)
type sbinding = { sb_var : string option; sb_path : Path.t }

type ctx = {
  sbindings : sbinding list; (* outermost first *)
  tvar : string option; (* innermost principal target variable *)
  tpath : Path.t; (* its target element path (root path when [tvar] is None) *)
}

type state = {
  mutable used : string list; (* variable names already taken *)
  source : Schema.t;
  target : Schema.t;
}

let fresh st hint =
  let base = if String.equal hint "" then "x" else hint in
  let rec try_name i =
    let name = if i = 0 then base else Printf.sprintf "%s%d" base (i + 1) in
    if List.exists (String.equal name) st.used then try_name (i + 1)
    else begin
      st.used <- name :: st.used;
      name
    end
  in
  try_name 0

let hint_of_path (p : Path.t) =
  match Path.last_step p with
  | Some (Path.Child name) when String.length name > 0 ->
    String.make 1 (Char.lowercase_ascii name.[0])
  | Some (Path.Child _ | Path.Attr _ | Path.Value) | None -> "x"

let target_hint (p : Path.t) =
  match Path.last_step p with
  | Some (Path.Child name) when String.length name > 0 ->
    String.make 1 (Char.lowercase_ascii name.[0]) ^ "'"
  | Some (Path.Child _ | Path.Attr _ | Path.Value) | None -> "y'"

(* The expression denoting [p] from binding [b]. *)
let expr_from (b : sbinding) (p : Path.t) =
  match b.sb_var with
  | None -> Some (Term.of_path p)
  | Some var -> Term.reroot ~var ~prefix:b.sb_path p

(* Deepest binding whose path prefixes [p] and satisfies [ok]. *)
let deepest_binding bindings ~ok p =
  List.fold_left
    (fun best b ->
      if Path.is_prefix b.sb_path p && ok b then
        match best with
        | Some prev
          when List.length prev.sb_path.Path.steps
               >= List.length b.sb_path.Path.steps ->
          best
        | Some _ | None -> Some b
      else best)
    None bindings

let operand_to_scalar st bindings (o : Mapping.operand) =
  match o with
  | Mapping.O_const a -> Term.Const a
  | Mapping.O_path (v, steps) ->
    if
      not
        (List.exists
           (fun b -> match b.sb_var with Some x -> String.equal x v | None -> false)
           bindings)
    then cerror Clip_diag.Codes.compile_unbound_var "unbound variable $%s" v;
    ignore st;
    Term.E (Term.proj (Term.Var v) steps)

(* Source generators for one incoming builder. Anchors only against the
   enclosing context's bindings (sibling inputs iterate independently —
   the "overall Cartesian product" reading of Sec. II-A), then emits one
   generator per repeating element crossed, ending with the input's own
   variable. Returns the generators and the bindings they introduce. *)
let compile_input st ~ctx_bindings (i : Mapping.input) =
  let root_binding = { sb_var = None; sb_path = Schema.root_path st.source } in
  let anchor =
    match deepest_binding (root_binding :: ctx_bindings) ~ok:(fun _ -> true) i.in_source with
    | Some b -> b
    | None ->
      cerror Clip_diag.Codes.compile_unanchored_input
        "input %s is not under the source root"
        (Path.to_string i.in_source)
  in
  let reps =
    Schema.repeating_strictly_between st.source ~above:anchor.sb_path
      ~below:i.in_source
  in
  let chain =
    if List.exists (Path.equal i.in_source) reps then reps else reps @ [ i.in_source ]
  in
  let n = List.length chain in
  let _, gens, bindings =
    List.fold_left
      (fun (prev, gens, bindings) p ->
        let is_last = List.length gens = n - 1 in
        let var =
          match i.in_var, is_last with
          | Some v, true ->
            st.used <- v :: st.used;
            v
          | (Some _ | None), _ -> fresh st (hint_of_path p)
        in
        let sexpr =
          match expr_from prev p with
          | Some e -> e
          | None -> assert false (* [prev] prefixes [p] along the chain *)
        in
        let b = { sb_var = Some var; sb_path = p } in
        (b, Tgd.source_gen var sexpr :: gens, b :: bindings))
      (anchor, [], []) chain
  in
  (List.rev gens, List.rev bindings)

(* Rewrite a value-mapping source leaf against its anchor binding. *)
let source_leaf_expr st bindings ~require_unrepeated leaf =
  let root_binding = { sb_var = None; sb_path = Schema.root_path st.source } in
  let ok b =
    (not require_unrepeated)
    || Schema.repeating_strictly_between st.source ~above:b.sb_path ~below:leaf = []
  in
  match
    deepest_binding (root_binding :: bindings) ~ok (Path.element_of leaf)
  with
  | Some b ->
    (match expr_from b leaf with
     | Some e -> e
     | None -> assert false)
  | None ->
    cerror Clip_diag.Codes.compile_unanchored_leaf
      "source %s has no anchor binding" (Path.to_string leaf)

let compile_value_mapping st bindings (vm : Mapping.value_mapping) ~tvar ~tpath =
  let target_expr =
    match Term.reroot ~var:tvar ~prefix:tpath vm.vm_target with
    | Some e -> e
    | None ->
      cerror Clip_diag.Codes.compile_bad_target
        "value-mapping target %s is not under %s"
        (Path.to_string vm.vm_target) (Path.to_string tpath)
  in
  match vm.vm_fn with
  | Mapping.Identity ->
    (match vm.vm_sources with
     | [ src ] ->
       Tgd.St_eq
         (target_expr, Term.E (source_leaf_expr st bindings ~require_unrepeated:true src))
     | _ ->
       cerror Clip_diag.Codes.compile_identity_arity
         "identity value mapping needs exactly one source")
  | Mapping.Constant a -> Tgd.St_eq (target_expr, Term.Const a)
  | Mapping.Scalar name ->
    let args =
      List.map
        (fun src -> Term.E (source_leaf_expr st bindings ~require_unrepeated:true src))
        vm.vm_sources
    in
    Tgd.St_eq (target_expr, Term.Fn (name, args))
  | Mapping.Aggregate kind ->
    (match vm.vm_sources with
     | [ src ] ->
       Tgd.Agg
         (target_expr, kind, source_leaf_expr st bindings ~require_unrepeated:false src)
     | _ ->
       cerror Clip_diag.Codes.compile_aggregate_arity
         "aggregate value mapping needs exactly one source")

(* Assertion for a driverless aggregate, scoped to the whole document. *)
let compile_root_aggregate (vm : Mapping.value_mapping) =
  match vm.vm_fn, vm.vm_sources with
  | Mapping.Aggregate kind, [ src ] ->
    Tgd.Agg (Term.of_path vm.vm_target, kind, Term.of_path src)
  | _ ->
    cerror Clip_diag.Codes.compile_no_driver "only aggregates may lack a driver"

(* CPT roots whose output nests strictly below another node's output
   compile as {e uncorrelated} submappings of that node: the paper's
   no-context-arc semantics ("all employees appear, repeated, within
   all departments"). [adopted] maps adopter node ids to such roots. *)
let adoption_map (m : Mapping.t) =
  let nodes = Mapping.all_nodes m in
  let rec subtree (n : Mapping.build_node) =
    n :: List.concat_map subtree n.bn_children
  in
  List.filter_map
    (fun (r : Mapping.build_node) ->
      match r.bn_output with
      | None -> None
      | Some out ->
        let in_subtree = subtree r in
        let candidates =
          List.filter
            (fun (n : Mapping.build_node) ->
              (not (List.memq n in_subtree))
              &&
              match n.bn_output with
              | Some o -> Path.is_prefix o out && not (Path.equal o out)
              | None -> false)
            nodes
        in
        let deepest =
          List.fold_left
            (fun best (n : Mapping.build_node) ->
              match best with
              | Some (b : Mapping.build_node) ->
                let depth x =
                  List.length (Option.get x.Mapping.bn_output).Path.steps
                in
                if depth n > depth b then Some n else best
              | None -> Some n)
            None candidates
        in
        (match deepest with
         | Some adopter -> Some (adopter.bn_id, r)
         | None -> None))
    m.roots

let rec compile_node st ctx ~vm_driver ~adopted (n : Mapping.build_node) : Tgd.t =
  (* 1. Source generators from the incoming builders. *)
  let gen_lists =
    List.map (compile_input st ~ctx_bindings:ctx.sbindings) n.bn_inputs
  in
  let foralls = List.concat_map fst gen_lists in
  let own_bindings = List.concat_map snd gen_lists in
  let bindings = ctx.sbindings @ own_bindings in
  (* 2. Filtering conditions. *)
  let cond =
    List.map
      (fun (p : Mapping.predicate) ->
        Tgd.cmp (operand_to_scalar st bindings p.p_left) p.p_op
          (operand_to_scalar st bindings p.p_right))
      n.bn_cond
  in
  (* 3. Target generators: completion wrappers for repeating target
     elements crossed on the way, then the principal generator. *)
  let exists, inner_tvar, inner_tpath =
    match n.bn_output with
    | None -> ([], ctx.tvar, ctx.tpath)
    | Some out ->
      let prefixes = Path.element_prefixes out in
      let intermediates =
        List.filter
          (fun p ->
            Path.is_prefix ctx.tpath p
            && (not (Path.equal ctx.tpath p))
            && (not (Path.equal out p))
            && Schema.is_repeating st.target p)
          prefixes
      in
      let completions, (tvar, tpath) =
        List.fold_left
          (fun (acc, (tvar, tpath)) p ->
            let texpr =
              match tvar with
              | None -> Term.of_path p
              | Some var ->
                (match Term.reroot ~var ~prefix:tpath p with
                 | Some e -> e
                 | None -> assert false)
            in
            let var = fresh st (target_hint p) in
            (Tgd.completion var texpr :: acc, (Some var, p)))
          ([], (ctx.tvar, ctx.tpath))
          intermediates
      in
      let completions = List.rev completions in
      let texpr =
        match tvar with
        | None -> Term.of_path out
        | Some var ->
          (match Term.reroot ~var ~prefix:tpath out with
           | Some e -> e
           | None ->
             cerror Clip_diag.Codes.compile_bad_nesting
               "output %s is not nested under context output %s"
               (Path.to_string out) (Path.to_string tpath))
      in
      let pvar = fresh st (target_hint out) in
      let principal =
        match n.bn_group_by with
        | [] -> Tgd.driven pvar texpr
        | keys ->
          let keys =
            List.map
              (fun ((v, steps) : Mapping.group_key) ->
                Term.E (Term.proj (Term.Var v) steps))
              keys
          in
          Tgd.grouped pvar texpr ~keys
      in
      (completions @ [ principal ], Some pvar, out)
  in
  (* 4. Value mappings driven by this node. *)
  let assertions =
    match inner_tvar, n.bn_output with
    | Some tvar, Some _ ->
      List.filter_map
        (fun (vm, driver) ->
          if driver == n then
            Some (compile_value_mapping st bindings vm ~tvar ~tpath:inner_tpath)
          else None)
        vm_driver
    | _ -> []
  in
  (* 5. Context arcs become submappings; adopted roots become
     uncorrelated submappings (fresh source scope, shared target). *)
  let child_ctx = { sbindings = bindings; tvar = inner_tvar; tpath = inner_tpath } in
  let children =
    List.map (compile_node st child_ctx ~vm_driver ~adopted) n.bn_children
  in
  let adoptees =
    List.filter_map
      (fun (id, r) -> if String.equal id n.bn_id then Some r else None)
      adopted
  in
  let adopted_children =
    List.map
      (fun r ->
        let ctx = { sbindings = []; tvar = inner_tvar; tpath = inner_tpath } in
        compile_node st ctx ~vm_driver ~adopted r)
      adoptees
  in
  Tgd.make ~foralls ~cond ~exists ~assertions
    ~children:(children @ adopted_children) ()

let compile_unchecked (m : Mapping.t) =
  let st =
    {
      used =
        List.concat_map Mapping.node_variables (Mapping.all_nodes m);
      source = m.source;
      target = m.target;
    }
  in
  let drivers = List.map (fun vm -> (vm, Validity.driver_of m vm)) m.values in
  let vm_driver =
    List.filter_map
      (fun (vm, driver) ->
        match driver with
        | Some d -> Some (vm, d)
        | None ->
          (match vm.Mapping.vm_fn with
           | Mapping.Aggregate _ -> None (* whole-document scope *)
           | Mapping.Identity | Mapping.Constant _ | Mapping.Scalar _ ->
             cerror Clip_diag.Codes.compile_no_driver
               "value mapping to %s has no driver builder"
               (Path.to_string vm.Mapping.vm_target)))
      drivers
  in
  let root_aggs =
    List.filter_map
      (fun ((vm : Mapping.value_mapping), driver) ->
        match vm.vm_fn, driver with
        | Mapping.Aggregate _, None -> Some vm
        | _ -> None)
      drivers
  in
  let ctx =
    {
      sbindings = [];
      tvar = None;
      tpath = Schema.root_path m.target;
    }
  in
  let adopted = adoption_map m in
  let adopted_roots = List.map snd adopted in
  let top_roots =
    List.filter (fun r -> not (List.memq r adopted_roots)) m.roots
  in
  let children =
    List.map (compile_node st ctx ~vm_driver ~adopted) top_roots
  in
  let assertions = List.map compile_root_aggregate root_aggs in
  match children, assertions with
  | [ only ], [] -> only
  | children, assertions -> Tgd.make ~assertions ~children ()

let to_tgd_unchecked_result m = Clip_diag.guard (fun () -> compile_unchecked m)

let to_tgd_unchecked m =
  match to_tgd_unchecked_result m with
  | Ok t -> t
  | Error ds ->
    let d = match ds with d :: _ -> d | [] -> assert false in
    failwith d.Clip_diag.message

let to_tgd_result m =
  let issues = Validity.check m in
  if List.exists (fun (i : Validity.issue) -> i.severity = Validity.Error) issues
  then Error (List.map issue_to_diag issues)
  else to_tgd_unchecked_result m

let to_tgd m =
  let issues = Validity.check m in
  if List.exists (fun (i : Validity.issue) -> i.severity = Validity.Error) issues then
    raise (Invalid issues);
  to_tgd_unchecked m
