module Xml = Clip_xml


let error fmt =
  Printf.ksprintf
    (fun s -> Clip_diag.fail (Clip_diag.error ~code:Clip_diag.Codes.xquery_eval s))
    fmt

module Env = Map.Make (String)

(* Evaluation context of one run: its {!Meter} (the input document,
   its instance statistics, built on first use, the counter record and
   the step budget that bounds runaway queries, CLIP-LIM-004) and the
   FLWOR plan state. FLWOR blocks run through {!Clip_plan}.

   [plans] memoises compiled FLWOR plans for the run,
   keyed by the physical identity of the clause list — the same FLWOR
   block re-entered once per outer binding (the hot path of nested
   queries) then replans zero times — plus the outer-variable set,
   policy and run estimate, which all affect planning. *)
type ctx = {
  meter : Meter.t;
  plan : Clip_plan.mode;
  plans :
    (Ast.clause list
    * string list
    * bool
    * int option
    * (Value.t Env.t, Value.t) Clip_plan.t)
    list
    ref;
  run : Value.t Clip_plan.Run.t;
      (* the hash tables of run-scoped probes *)
  mutable runs : int option;
      (* estimated runs of the FLWOR block being entered: 1 at the top,
         times each enclosing block's chain estimate *)
}

(* Effective boolean value, with the multi-item case reported as a
   dynamic error instead of [Invalid_argument]. *)
let ebool v =
  match Value.effective_bool v with
  | b -> b
  | exception Invalid_argument m -> error "%s" m

let step_nodes ctx (item : Value.item) (step : Ast.step) : Value.t =
  match item, step with
  | Value.Node (Xml.Node.Element e), Ast.Child_step tag ->
    (* Intern once per step evaluation; per-child comparisons are then
       int compares instead of string equality. *)
    Meter.child_items ctx.meter e (Xml.Symbol.intern tag)
  | Value.Node (Xml.Node.Element e), Ast.Attr_step name ->
    (match Xml.Node.attr e name with
     | Some a -> [ Value.Atomic a ]
     | None -> [])
  | Value.Node (Xml.Node.Element e), Ast.Text_step ->
    List.filter_map
      (function Xml.Node.Text a -> Some (Value.Atomic a) | Xml.Node.Element _ -> None)
      e.children
  | (Value.Node (Xml.Node.Text _) | Value.Atomic _), _ -> []

let apply_steps ctx v steps =
  List.fold_left
    (fun items step -> List.concat_map (fun it -> step_nodes ctx it step) items)
    v steps

let compare_atoms op a b =
  let open Xml.Atom in
  let r =
    match op with
    | Ast.Eq -> equal a b
    | Ast.Ne -> not (equal a b)
    | Ast.Lt -> compare a b < 0
    | Ast.Le -> compare a b <= 0
    | Ast.Gt -> compare a b > 0
    | Ast.Ge -> compare a b >= 0
  in
  r

let numeric name v =
  match Xml.Atom.to_float v with
  | Some f -> f
  | None -> error "%s: non-numeric value %S" name (Xml.Atom.to_string v)

(* Estimated items of one evaluation of [e] under the [`Cost] policy,
   from per-tag cardinalities ({!Meter.est_child}); attribute and text
   steps yield at most one value. [var_tags] maps chain-local
   variables to (estimated items when enumerated, element tag);
   variables bound outside the chain are priced as single items of
   unknown tag. Returns the estimate and the result tag. *)
let est_flwor_expr ctx var_tags (e : Ast.expr) : int option * Xml.Symbol.t option =
  let rec go = function
    | Ast.Doc tag -> (Some 1, Some (Xml.Symbol.intern tag))
    | Ast.Var x ->
      (match List.assoc_opt x var_tags with
       | Some (est, tag) -> (est, tag)
       | None -> (Some 1, None))
    | Ast.Path (base, steps) ->
      List.fold_left
        (fun (est, ptag) step ->
          match (step : Ast.step) with
          | Ast.Attr_step _ | Ast.Text_step -> (est, None)
          | Ast.Child_step t -> Meter.est_child ctx.meter (est, ptag) t)
        (go base) steps
    | _ -> (None, None)
  in
  go e

let rec eval ctx env (e : Ast.expr) : Value.t =
  Meter.tick ctx.meter;
  match e with
  | Ast.Var x ->
    (match Env.find_opt x env with
     | Some v -> v
     | None -> error "unbound variable $%s" x)
  | Ast.Doc tag ->
    (match ctx.meter.source with
     | Xml.Node.Element e when String.equal e.tag tag -> Value.of_node ctx.meter.source
     | Xml.Node.Element e ->
       error "input document root is <%s>, query expects <%s>" e.tag tag
     | Xml.Node.Text _ -> error "input document root is a text node")
  | Ast.Literal a -> Value.of_atom a
  | Ast.Path (base, steps) -> apply_steps ctx (eval ctx env base) steps
  | Ast.Seq es -> List.concat_map (eval ctx env) es
  | Ast.Elem { tag; attrs; content } ->
    let attrs =
      List.filter_map
        (fun (name, e) ->
          match Value.atomize (eval ctx env e) with
          | [] -> None
          | [ a ] -> Some (name, a)
          | many ->
            Some
              ( name,
                Xml.Atom.String
                  (String.concat " " (List.map Xml.Atom.to_string many)) ))
        attrs
    in
    let children =
      List.concat_map
        (fun e ->
          List.map
            (function
              | Value.Node n -> n
              | Value.Atomic a -> Xml.Node.text a)
            (eval ctx env e))
        content
    in
    Value.of_node (Xml.Node.elem ~attrs tag children)
  | Ast.Flwor f -> eval_flwor ctx env f.clauses f.where f.return
  | Ast.If (c, t, e) ->
    if ebool (eval ctx env c) then eval ctx env t
    else eval ctx env e
  | Ast.Cmp (op, l, r) ->
    let ls = Value.atomize (eval ctx env l) in
    let rs = Value.atomize (eval ctx env r) in
    let holds = List.exists (fun a -> List.exists (compare_atoms op a) rs) ls in
    Value.of_atom (Xml.Atom.Bool holds)
  | Ast.And (l, r) ->
    Value.of_atom
      (Xml.Atom.Bool
         (ebool (eval ctx env l)
          && ebool (eval ctx env r)))
  | Ast.Or (l, r) ->
    Value.of_atom
      (Xml.Atom.Bool
         (ebool (eval ctx env l)
          || ebool (eval ctx env r)))
  | Ast.Arith (op, l, r) ->
    let one side e =
      match Value.atomize (eval ctx env e) with
      | [ a ] -> a
      | [] -> error "arithmetic on the empty sequence (%s operand)" side
      | _ -> error "arithmetic on a multi-item sequence (%s operand)" side
    in
    let a = one "left" l and b = one "right" r in
    let result =
      match op, a, b with
      | Ast.Add, Xml.Atom.Int x, Xml.Atom.Int y -> Xml.Atom.Int (x + y)
      | Ast.Sub, Xml.Atom.Int x, Xml.Atom.Int y -> Xml.Atom.Int (x - y)
      | Ast.Mul, Xml.Atom.Int x, Xml.Atom.Int y -> Xml.Atom.Int (x * y)
      | op, a, b ->
        let x = numeric "arithmetic" a and y = numeric "arithmetic" b in
        (match op with
         | Ast.Add -> Xml.Atom.Float (x +. y)
         | Ast.Sub -> Xml.Atom.Float (x -. y)
         | Ast.Mul -> Xml.Atom.Float (x *. y)
         | Ast.Div ->
           if y = 0. then error "division by zero" else Xml.Atom.Float (x /. y))
    in
    Value.of_atom result
  | Ast.Call (name, args) -> eval_call ctx env name args

(* Compile one FLWOR block to a physical plan: the clause chain
   becomes a generator chain ([for] enumerates the items of its
   sequence, [let] a single whole-sequence item), the [where] splits
   into conjuncts pushed to their earliest position
   ([ebool (And (a, b)) = ebool a && ebool b], so the split is exact)
   and equality conjuncts become hash-join candidates. Purely static —
   the closures capture [ctx] but nothing is evaluated here — which is
   what lets [explain] below reuse it without running the query. *)
and flwor_plan ctx ~policy ?runs ~bound clauses where =
  let cost = match policy with `Cost -> true | `Force -> false in
  let gens_rev, _ =
    List.fold_left
      (fun (acc, vt) (clause : Ast.clause) ->
        match clause with
        | Ast.For (x, e) ->
          let est, tag =
            if cost then est_flwor_expr ctx vt e else (None, None)
          in
          let gen =
            {
              Clip_plan.var = x;
              deps = Ast.free_vars e;
              est;
              eval = (fun env f -> List.iter (fun it -> f [ it ]) (eval ctx env e));
              bind = (fun env v -> Env.add x v env);
            }
          in
          (* The for-variable itself ranges over single items. *)
          (gen :: acc, (x, (Some 1, tag)) :: vt)
        | Ast.Let (x, e) ->
          let seq_est =
            if cost then est_flwor_expr ctx vt e else (None, None)
          in
          let gen =
            {
              Clip_plan.var = x;
              deps = Ast.free_vars e;
              est = Some 1 (* binds the whole sequence as one item *);
              eval = (fun env f -> f (eval ctx env e));
              bind = (fun env v -> Env.add x v env);
            }
          in
          (gen :: acc, (x, seq_est) :: vt))
      ([], []) clauses
  in
  let rec conjuncts = function
    | Ast.And (a, b) -> conjuncts a @ conjuncts b
    | w -> [ w ]
  in
  let cond_of w =
    let orig =
      { Clip_plan.pvars = Ast.free_vars w; test = (fun env -> ebool (eval ctx env w)) }
    in
    match w with
    | Ast.Cmp (Ast.Eq, l, r) ->
      let keyed e =
        {
          Clip_plan.kvars = Ast.free_vars e;
          keys = (fun env f -> List.iter f (Value.atomize (eval ctx env e)));
        }
      in
      Clip_plan.Eq { left = keyed l; right = keyed r; orig }
    | _ -> Clip_plan.Other orig
  in
  let conds =
    match where with None -> [] | Some w -> List.map cond_of (conjuncts w)
  in
  Clip_plan.plan ~policy ?runs ~bound ~gens:(List.rev gens_rev) ~conds ()

(* Plan-based FLWOR evaluation: bindings stream into the [return] in
   the clause-by-clause enumeration order. *)
and eval_flwor ctx env clauses where return =
  let policy = Clip_plan.policy_of ctx.plan in
  let cost = match policy with `Cost -> true | `Force -> false in
  (* [Env.fold] lists keys in increasing order, so [bound] is
     deterministic for a given environment domain and usable as part
     of the memo key. *)
  let bound = Env.fold (fun x _ acc -> x :: acc) env [] in
  let runs = ctx.runs in
  let p =
    let rec find = function
      | [] -> None
      | (cs, b, c, r, p) :: rest ->
        if cs == clauses && c = cost && r = runs && List.equal String.equal b bound
        then Some p
        else find rest
    in
    match find !(ctx.plans) with
    | Some p ->
      ctx.meter.counters.memo_hits <- ctx.meter.counters.memo_hits + 1;
      p
    | None ->
      let p = flwor_plan ctx ~policy ?runs ~bound clauses where in
      ctx.plans := (clauses, bound, cost, runs, p) :: !(ctx.plans);
      p
  in
  let m = ctx.meter in
  let acc = ref [] in
  ctx.runs <- Clip_plan.inner_runs ~runs p;
  Clip_plan.execute ~obs:m.counters ~run:ctx.run p
    ~tick:(fun () -> Meter.tick m)
    ~env
    ~emit:(fun env -> acc := eval ctx env return :: !acc);
  ctx.runs <- runs;
  List.concat (List.rev !acc)

and eval_call ctx env name args =
  let arg i =
    match List.nth_opt args i with
    | Some e -> eval ctx env e
    | None -> error "%s: missing argument %d" name (i + 1)
  in
  let arity n =
    if List.length args <> n then
      error "%s: expected %d argument(s), got %d" name n (List.length args)
  in
  match name with
  | "count" ->
    arity 1;
    Value.of_atom (Xml.Atom.Int (List.length (arg 0)))
  | "sum" | "avg" | "min" | "max" ->
    arity 1;
    let xs = List.map (numeric name) (Value.atomize (arg 0)) in
    (match xs, name with
     | [], "sum" -> Value.of_atom (Xml.Atom.Int 0)
     | [], _ -> Value.empty
     | xs, "sum" -> Value.of_atom (Xml.Atom.Float (List.fold_left ( +. ) 0. xs))
     | xs, "avg" ->
       Value.of_atom
         (Xml.Atom.Float (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)))
     | x :: xs, "min" -> Value.of_atom (Xml.Atom.Float (List.fold_left min x xs))
     | x :: xs, _ -> Value.of_atom (Xml.Atom.Float (List.fold_left max x xs)))
  | "distinct-values" ->
    arity 1;
    (* The seen-set is keyed by normalised atoms ({!Clip_plan.Key}
       agrees with [Xml.Atom.equal]), so dedup is O(n) instead of the
       former O(n²) list scan. First occurrences are kept, in order. *)
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun a ->
        let k = Clip_plan.Key.of_atom a in
        if Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some (Value.Atomic a)
        end)
      (Value.atomize (arg 0))
  | "concat" ->
    let parts =
      List.map
        (fun e ->
          String.concat "" (List.map Xml.Atom.to_string (Value.atomize (eval ctx env e))))
        args
    in
    Value.of_atom (Xml.Atom.String (String.concat "" parts))
  | "string" ->
    arity 1;
    (match arg 0 with
     | [] -> Value.of_atom (Xml.Atom.String "")
     | [ item ] -> Value.of_atom (Xml.Atom.String (Value.string_value item))
     | _ -> error "string: a sequence of more than one item")
  | "number" ->
    arity 1;
    (match Value.atomize (arg 0) with
     | [ a ] ->
       (* Unlike arithmetic, number() also parses numeric strings. *)
       let a =
         match a with Xml.Atom.String s -> Xml.Atom.of_string s | a -> a
       in
       Value.of_atom (Xml.Atom.Float (numeric "number" a))
     | _ -> error "number: expected exactly one item")
  | "empty" ->
    arity 1;
    Value.of_atom (Xml.Atom.Bool (arg 0 = []))
  | "exists" ->
    arity 1;
    Value.of_atom (Xml.Atom.Bool (arg 0 <> []))
  | "not" ->
    arity 1;
    Value.of_atom (Xml.Atom.Bool (not (ebool (arg 0))))
  | name -> error "unknown function %s#%d" name (List.length args)

let make_ctx ?max_steps ?obs ?ctl ?(plan = `Auto) input =
  {
    meter = Meter.create ?max_steps ?counters:obs ?ctl ~what:"query" input;
    plan;
    plans = ref [];
    run = Clip_plan.Run.create ();
    runs = Some 1;
  }

(* Static plan rendering for every FLWOR block of a query, numbered in
   preorder. Mirrors [eval_flwor] — same policies, same planner — but
   never evaluates, so the output is deterministic (golden-testable). *)
let explain ?(plan = `Auto) ~input (expr : Ast.expr) : string =
  let ctx = make_ctx input in
  let b = Buffer.create 512 in
  let nodes = Xml.Stats.node_count (Meter.force_stats ctx.meter) in
  Printf.bprintf b "backend: xquery\nplan: %s\ndocument: %d nodes\n"
    (match plan with `Indexed -> "indexed" | `Auto -> "auto")
    nodes;
  Buffer.add_string b (Clip_plan.strategy plan);
  let policy = Clip_plan.policy_of plan in
  let counter = ref 0 in
  (* [runs] mirrors [ctx.runs] during evaluation: a block nested
     anywhere in another runs once per binding of the outer chain. *)
  let rec walk runs bound (e : Ast.expr) =
    let walk' = walk runs in
    match e with
    | Ast.Var _ | Ast.Doc _ | Ast.Literal _ -> ()
    | Ast.Path (base, _) -> walk' bound base
    | Ast.Seq es -> List.iter (walk' bound) es
    | Ast.Elem { attrs; content; _ } ->
      List.iter (fun (_, e) -> walk' bound e) attrs;
      List.iter (walk' bound) content
    | Ast.If (c, t, e) ->
      walk' bound c;
      walk' bound t;
      walk' bound e
    | Ast.Cmp (_, l, r) | Ast.And (l, r) | Ast.Or (l, r) | Ast.Arith (_, l, r) ->
      walk' bound l;
      walk' bound r
    | Ast.Call (_, args) -> List.iter (walk' bound) args
    | Ast.Flwor { clauses; where; return } ->
      incr counter;
      let header =
        String.concat ", "
          (List.map
             (function
               | Ast.For (x, e) ->
                 Printf.sprintf "for $%s in %s" x (Pretty.expr_to_string e)
               | Ast.Let (x, e) ->
                 Printf.sprintf "let $%s := %s" x (Pretty.expr_to_string e))
             clauses)
      in
      Printf.bprintf b "flwor #%d: %s%s\n" !counter header
        (match where with
         | None -> ""
         | Some w -> " where " ^ Pretty.expr_to_string w);
      let p = flwor_plan ctx ~policy ?runs ~bound clauses where in
      Printf.bprintf b "  plan: %s\n" (Clip_plan.describe p);
      Buffer.add_string b (Clip_plan.explain p);
      let walk = walk (Clip_plan.inner_runs ~runs p) in
      let bound' =
        List.fold_left
          (fun bd clause ->
            match (clause : Ast.clause) with
            | Ast.For (x, e) | Ast.Let (x, e) ->
              walk bd e;
              x :: bd)
          bound clauses
      in
      (match where with Some w -> walk bound' w | None -> ());
      walk bound' return
  in
  walk (Some 1) [] expr;
  Buffer.contents b

let with_ctx ?ctl ?obs plan limits input f =
  let ctx =
    make_ctx ~max_steps:limits.Clip_diag.Limits.max_eval_steps ?obs ?ctl ~plan
      input
  in
  Meter.enter ctx.meter;
  f ctx

let run_result ?(limits = Clip_diag.Limits.default) ?(plan = `Auto) ?ctl ?obs
    ~input expr =
  Clip_diag.guard (fun () ->
    with_ctx ?ctl ?obs plan limits input (fun ctx -> eval ctx Env.empty expr))

let run_document_result ?(limits = Clip_diag.Limits.default) ?(plan = `Auto)
    ?ctl ?obs ~input expr =
  Clip_diag.guard (fun () ->
    with_ctx ?ctl ?obs plan limits input (fun ctx ->
      match eval ctx Env.empty expr with
      | [ Value.Node (Xml.Node.Element _ as n) ] -> n
      | v ->
        error "query result is not a single element: %s"
          (Format.asprintf "%a" Value.pp v)))
