module Path = Clip_schema.Path
module Tgd = Clip_tgd.Tgd
module Term = Clip_tgd.Term
module Ast = Clip_xquery.Ast

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let step_to_ast = function
  | Path.Child tag -> Ast.Child_step tag
  | Path.Attr name -> Ast.Attr_step name
  | Path.Value -> Ast.Text_step

let expr_to_ast (e : Term.expr) : Ast.expr =
  let steps = List.map step_to_ast (Term.steps e) in
  let base =
    match Term.head e with
    | Term.Root s -> Ast.Doc s
    | Term.Var x -> Ast.Var x
    | Term.Proj _ -> assert false
  in
  if steps = [] then base else Ast.path base steps

(* Rewrite a source expression so that variable [v] reads from
   [replacement v] instead (used by the grouping template to reroot
   member variables into tuple elements). *)
let rec rewrite_expr replace (e : Term.expr) : Ast.expr =
  match e with
  | Term.Root s -> Ast.Doc s
  | Term.Var x -> replace x
  | Term.Proj (b, s) -> Ast.path (rewrite_expr replace b) [ step_to_ast s ]

let rec scalar_to_ast ?(replace = fun x -> Ast.Var x) (s : Term.scalar) : Ast.expr =
  match s with
  | Term.E e -> rewrite_expr replace e
  | Term.Const a -> Ast.Literal a
  | Term.Fn (name, args) ->
    let args = List.map (scalar_to_ast ~replace) args in
    (match name, args with
     | "concat", args -> Ast.call "concat" args
     | "add", [ a; b ] -> Ast.Arith (Ast.Add, a, b)
     | "sub", [ a; b ] -> Ast.Arith (Ast.Sub, a, b)
     | "mul", [ a; b ] -> Ast.Arith (Ast.Mul, a, b)
     | "div", [ a; b ] -> Ast.Arith (Ast.Div, a, b)
     | "upper", [ a ] -> Ast.call "upper-case" [ a ]
     | "lower", [ a ] -> Ast.call "lower-case" [ a ]
     | name, args -> Ast.call name args)

let cmp_to_ast (op : Tgd.cmp_op) : Ast.cmp_op =
  match op with
  | Tgd.Eq | Tgd.In -> Ast.Eq
  | Tgd.Ne -> Ast.Ne
  | Tgd.Lt -> Ast.Lt
  | Tgd.Le -> Ast.Le
  | Tgd.Gt -> Ast.Gt
  | Tgd.Ge -> Ast.Ge

let where_of ?replace (cond : Tgd.comparison list) =
  let conjuncts =
    List.map
      (fun (c : Tgd.comparison) ->
        Ast.Cmp (cmp_to_ast c.op, scalar_to_ast ?replace c.left, scalar_to_ast ?replace c.right))
      cond
  in
  match conjuncts with
  | [] -> None
  | first :: rest -> Some (List.fold_left (fun acc c -> Ast.And (acc, c)) first rest)

(* --- Target templates --------------------------------------------------

   Attribute / text / constant-child structure accumulated from the
   assertions rooted at one target variable. *)

type template = {
  mutable tattrs : (string * Ast.expr) list; (* reversed *)
  mutable ttext : Ast.expr option;
  mutable tchildren : (string * template) list; (* constant singleton tags, reversed *)
  mutable tcontent : Ast.expr list; (* dynamic content (submapping FLWORs), reversed *)
}

let fresh_template () = { tattrs = []; ttext = None; tchildren = []; tcontent = [] }

let rec template_at tpl = function
  | [] -> tpl
  | Path.Child tag :: rest ->
    let child =
      match List.assoc_opt tag tpl.tchildren with
      | Some c -> c
      | None ->
        let c = fresh_template () in
        tpl.tchildren <- (tag, c) :: tpl.tchildren;
        c
    in
    template_at child rest
  | (Path.Attr _ | Path.Value) :: _ ->
    unsupported "a target path traverses a leaf step"

let template_set tpl steps value =
  match List.rev steps with
  | [] -> unsupported "a leaf assignment targets an element directly"
  | last :: rev_prefix ->
    let parent = template_at tpl (List.rev rev_prefix) in
    (match last with
     | Path.Attr name -> parent.tattrs <- (name, value) :: parent.tattrs
     | Path.Value -> parent.ttext <- Some value
     | Path.Child _ -> unsupported "a leaf assignment ends on an element step")

let rec template_to_content tpl : (string * Ast.expr) list * Ast.expr list =
  let attrs = List.rev tpl.tattrs in
  let text = match tpl.ttext with Some e -> [ e ] | None -> [] in
  let const_children =
    List.rev_map
      (fun (tag, child) ->
        let cattrs, ccontent = template_to_content child in
        Ast.elem ~attrs:cattrs tag ccontent)
      tpl.tchildren
  in
  (attrs, text @ const_children @ List.rev tpl.tcontent)

(* ------------------------------------------------------------------------ *)

type state = { mutable counter : int; var_tag : (string, string) Hashtbl.t }

let fresh_name st base =
  st.counter <- st.counter + 1;
  Printf.sprintf "%s_%d" base st.counter

(* The element tag a source generator ranges over (following variable
   aliases like [p2 ∈ p]). *)
let record_var_tag st (g : Tgd.source_gen) =
  let tag =
    match List.rev (Term.steps g.sexpr) with
    | Path.Child tag :: _ -> Some tag
    | (Path.Attr _ | Path.Value) :: _ -> None
    | [] ->
      (match Term.head g.sexpr with
       | Term.Var x -> Hashtbl.find_opt st.var_tag x
       | Term.Root _ | Term.Proj _ -> None)
  in
  match tag with
  | Some tag -> Hashtbl.replace st.var_tag g.svar tag
  | None -> unsupported "cannot determine the element tag of generator %s" g.svar

(* Split compiled exists lists: completion wrappers, then at most one
   principal generator. *)
let split_exists (m : Tgd.t) =
  let rec go completions = function
    | [] -> (List.rev completions, None)
    | ({ Tgd.mode = Tgd.Completion; _ } as g) :: rest -> go (g :: completions) rest
    | ({ Tgd.mode = Tgd.Driven | Tgd.Grouped _; _ } as g) :: rest ->
      if rest <> [] then
        unsupported "a principal target generator is not last in its mapping";
      (List.rev completions, Some g)
  in
  go [] m.exists

let last_child_tag (g : Tgd.target_gen) =
  match List.rev (Term.steps g.texpr) with
  | Path.Child tag :: _ -> tag
  | _ -> unsupported "target generator %s does not end on an element step" g.tvar

(* Assertions are distributed to the target variable they are rooted
   at; each contributes to that variable's template. *)
let distribute_assertions ?replace (m : Tgd.t) (templates : (string * template) list)
    ~root_template =
  List.iter
    (fun (a : Tgd.assertion) ->
      let target_expr, value =
        match a with
        | Tgd.St_eq (e, s) -> (e, scalar_to_ast ?replace s)
        | Tgd.Target_cond (e, Tgd.Eq, atom) -> (e, Ast.Literal atom)
        | Tgd.Target_cond (_, op, _) ->
          unsupported "non-equality target condition (%s)" (Tgd.cmp_op_to_string op)
        | Tgd.Agg (e, kind, arg) ->
          (e, Ast.call (Tgd.agg_kind_to_string kind) [ rewrite_expr
                (match replace with Some r -> r | None -> fun x -> Ast.Var x)
                arg ])
      in
      let tpl =
        match Term.head target_expr with
        | Term.Var x ->
          (match List.assoc_opt x templates with
           | Some tpl -> tpl
           | None -> unsupported "assertion rooted at foreign target variable %s" x)
        | Term.Root _ ->
          (match root_template with
           | Some tpl -> tpl
           | None -> unsupported "assertion rooted at the target root in a nested mapping")
        | Term.Proj _ -> assert false
      in
      template_set tpl (Term.steps target_expr) value)
    m.assertions

(* --- Placements -----------------------------------------------------------

   A mapping translates to {e placements}: pairs of (constant-tag steps
   relative to the enclosing target context, expression). The parent
   splices each placement into its template tree, so singleton
   intermediate tags and completion wrappers are shared — one constant
   tag per parent context, exactly the tgd engine's (and the paper's
   minimum-cardinality) semantics, even when several submappings or
   bindings contribute below the same tag. *)

let child_steps_of where steps =
  List.map
    (function
      | Path.Child _ as s -> s
      | Path.Attr _ | Path.Value -> unsupported "%s traverses a leaf step" where)
    steps

(* The constant-tag chain contributed by leading completion generators
   (each is rooted at the previous one, so their steps concatenate). *)
let completion_chain completions =
  List.concat_map
    (fun (g : Tgd.target_gen) ->
      child_steps_of "a completion generator" (Term.steps g.texpr))
    completions

let principal_prefix (g : Tgd.target_gen) =
  match List.rev (Term.steps g.texpr) with
  | _ :: rev -> child_steps_of "a principal generator" (List.rev rev)
  | [] -> []

let splice tpl placements =
  List.iter
    (fun (steps, expr) ->
      let node = template_at tpl steps in
      node.tcontent <- expr :: node.tcontent)
    placements

let rec translate_mapping st (m : Tgd.t) : (Path.step list * Ast.expr) list =
  let completions, principal = split_exists m in
  List.iter (record_var_tag st) m.foralls;
  let comp_steps = completion_chain completions in
  let clauses =
    List.map (fun (g : Tgd.source_gen) -> Ast.For (g.svar, expr_to_ast g.sexpr)) m.foralls
  in
  match principal with
  | Some ({ Tgd.mode = Tgd.Grouped { keys }; _ } as g) ->
    [ (comp_steps @ principal_prefix g, translate_grouped st m g keys) ]
  | Some ({ Tgd.mode = Tgd.Driven | Tgd.Completion; _ } as g) ->
    (* The principal element, carrying this mapping's assertions and
       its children's placements. *)
    let tpl = fresh_template () in
    distribute_assertions m [ (g.tvar, tpl) ] ~root_template:None;
    splice tpl (List.concat_map (translate_mapping st) m.children);
    let attrs, content = template_to_content tpl in
    let return = Ast.elem ~attrs (last_child_tag g) content in
    let expr =
      if clauses = [] && m.cond = [] then return
      else Ast.flwor ?where:(where_of m.cond) clauses return
    in
    [ (comp_steps @ principal_prefix g, expr) ]
  | None ->
    (* No element of its own: bubble the children's placements upward,
       wrapping each in this mapping's iteration (the constant tags
       stay outside the FLWOR — they are shared singletons). *)
    if m.assertions <> [] then
      unsupported
        "assertions in a mapping without a principal target generator are only \
         supported at the top level";
    let child_placements = List.concat_map (translate_mapping st) m.children in
    if clauses = [] && m.cond = [] then
      List.map (fun (steps, expr) -> (comp_steps @ steps, expr)) child_placements
    else
      List.map
        (fun (steps, expr) ->
          (comp_steps @ steps, Ast.flwor ?where:(where_of m.cond) clauses expr))
        child_placements

(* The paper's grouping template (Sec. VI). *)
and translate_grouped st (m : Tgd.t) (g : Tgd.target_gen) keys : Ast.expr =
  let ctx_var = fresh_name st "context" in
  let member = fresh_name st "m" in
  (* One tuple element per binding, wrapping every bound variable. *)
  let tuple =
    Ast.elem "tuple"
      (List.map
         (fun (sg : Tgd.source_gen) ->
           Ast.elem ("v-" ^ sg.svar) [ Ast.Var sg.svar ])
         m.foralls)
  in
  let ctx_flwor =
    Ast.flwor ?where:(where_of m.cond)
      (List.map (fun (sg : Tgd.source_gen) -> Ast.For (sg.svar, expr_to_ast sg.sexpr)) m.foralls)
      tuple
  in
  (* Reading a bound variable back out of a tuple element. *)
  let from_tuple base v =
    match Hashtbl.find_opt st.var_tag v with
    | Some tag -> Ast.path base [ Ast.Child_step ("v-" ^ v); Ast.Child_step tag ]
    | None -> Ast.Var v (* an outer-scope variable: still directly visible *)
  in
  let bound_here v =
    List.exists (fun (sg : Tgd.source_gen) -> String.equal sg.svar v) m.foralls
  in
  let replace_with base v = if bound_here v then from_tuple base v else Ast.Var v in
  (* Dimensions: one distinct-values per grouping attribute. *)
  let dims =
    List.mapi
      (fun i key ->
        let dim_var = fresh_name st (Printf.sprintf "dim%d" (i + 1)) in
        let key_var = fresh_name st (Printf.sprintf "key%d" (i + 1)) in
        let over_ctx =
          scalar_to_ast ~replace:(replace_with (Ast.Var ctx_var)) key
        in
        (dim_var, key_var, key, Ast.call "distinct-values" [ over_ctx ]))
      keys
  in
  let group_var = fresh_name st "group" in
  let group_where =
    match
      List.map
        (fun (_, key_var, key, _) ->
          Ast.Cmp
            ( Ast.Eq,
              scalar_to_ast ~replace:(replace_with (Ast.Var member)) key,
              Ast.Var key_var ))
        dims
    with
    | [] -> None
    | first :: rest -> Some (List.fold_left (fun acc c -> Ast.And (acc, c)) first rest)
  in
  let group_flwor =
    Ast.flwor ?where:group_where [ Ast.For (member, Ast.Var ctx_var) ] (Ast.Var member)
  in
  (* The group element: key-matching assertions read the key variable;
     aggregates and other scalars read through the group. *)
  let tpl = fresh_template () in
  let replace_in_group v =
    if bound_here v then from_tuple (Ast.Var group_var) v else Ast.Var v
  in
  let key_match s =
    List.find_map
      (fun (_, key_var, key, _) -> if key = s then Some (Ast.Var key_var) else None)
      dims
  in
  List.iter
    (fun (a : Tgd.assertion) ->
      let target_expr, value =
        match a with
        | Tgd.St_eq (e, s) ->
          let v =
            match key_match s with
            | Some kv -> kv
            | None ->
              Ast.call "distinct-values" [ scalar_to_ast ~replace:replace_in_group s ]
          in
          (e, v)
        | Tgd.Target_cond (e, Tgd.Eq, atom) -> (e, Ast.Literal atom)
        | Tgd.Target_cond (_, op, _) ->
          unsupported "non-equality target condition (%s)" (Tgd.cmp_op_to_string op)
        | Tgd.Agg (e, kind, arg) ->
          (e, Ast.call (Tgd.agg_kind_to_string kind) [ rewrite_expr replace_in_group arg ])
      in
      (match Term.head target_expr with
       | Term.Var x when String.equal x g.tvar -> ()
       | _ -> unsupported "group assertion rooted outside the group element");
      template_set tpl (Term.steps target_expr) value)
    m.assertions;
  (* Submappings run once per member, with the bound variables rebound
     from the tuple; their placements splice into the group template so
     intermediate singleton tags are shared per group. *)
  let lets =
    List.map
      (fun (sg : Tgd.source_gen) -> Ast.Let (sg.svar, from_tuple (Ast.Var member) sg.svar))
      m.foralls
  in
  splice tpl
    (List.map
       (fun (steps, expr) ->
         (steps, Ast.flwor (Ast.For (member, Ast.Var group_var) :: lets) expr))
       (List.concat_map (translate_mapping st) m.children));
  let attrs, content = template_to_content tpl in
  let return = Ast.elem ~attrs (last_child_tag g) content in
  (* With several grouping attributes the dimension loops enumerate the
     Cartesian product of key values; only combinations that actually
     occur form groups. *)
  Ast.flwor
    ~where:(Ast.call "exists" [ Ast.Var group_var ])
    (Ast.Let (ctx_var, ctx_flwor)
     :: List.map (fun (dim_var, _, _, d) -> Ast.Let (dim_var, d)) dims
     @ List.map (fun (dim_var, key_var, _, _) -> Ast.For (key_var, Ast.Var dim_var)) dims
     @ [ Ast.Let (group_var, group_flwor) ])
    return

let translate ~target_root (m : Tgd.t) =
  let st = { counter = 0; var_tag = Hashtbl.create 16 } in
  let root_tpl = fresh_template () in
  (* The synthetic top mapping may carry whole-document assertions
     (driverless aggregates) rooted at the target root. *)
  let placements =
    if m.foralls = [] && m.exists = [] then begin
      distribute_assertions m [] ~root_template:(Some root_tpl);
      List.concat_map (translate_mapping st) m.children
    end
    else
      translate_mapping st { m with assertions = m.assertions }
  in
  splice root_tpl placements;
  let attrs, content = template_to_content root_tpl in
  if attrs <> [] then unsupported "attributes on the target root are not expressible";
  Ast.elem target_root content

let translate_result ~target_root m =
  match translate ~target_root m with
  | q -> Ok q
  | exception Unsupported msg ->
    Error [ Clip_diag.error ~code:Clip_diag.Codes.xquery_gen_unsupported msg ]
