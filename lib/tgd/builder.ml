module Xml = Clip_xml
module Path = Clip_schema.Path
module Value = Clip_xquery.Value

let error fmt =
  Printf.ksprintf
    (fun s -> Clip_diag.fail (Clip_diag.error ~code:Clip_diag.Codes.tgd_eval s))
    fmt

(* Mutable target tree under construction. [bsym] is the tag's symbol,
   resolved when the rule was compiled, so building an element interns
   nothing. [bcompletions] memoises the node's completion children by
   tag: completion tags come from the target schema, so the list stays
   short and a scan beats hashing. *)
type bnode = {
  id : int;
  bsym : Xml.Symbol.t;
  mutable battrs : (string * Xml.Atom.t) list; (* reversed *)
  mutable btext : Xml.Atom.t option;
  mutable bchildren : bnode list; (* reversed *)
  mutable bcompletions : bnode list;
}

(* Atomic so parallel batch runs ({!Clip_par}) can never hand two
   build nodes the same id — builder hash tables key on it. *)
let next_id = Atomic.make 0

let fresh_bnode bsym =
  {
    id = 1 + Atomic.fetch_and_add next_id 1;
    bsym;
    battrs = [];
    btext = None;
    bchildren = [];
    bcompletions = [];
  }

let rec bnode_to_node b =
  let children =
    List.rev_map (fun c -> bnode_to_node c) b.bchildren
  in
  let children =
    match b.btext with
    | Some a -> Xml.Node.text a :: children
    | None -> children
  in
  Xml.Node.elem_sym ~attrs:(List.rev b.battrs) b.bsym children

type t = {
  root : bnode;
  groups : (int * Xml.Symbol.t * Clip_plan.Key.t, bnode) Hashtbl.t;
  min_card : bool;
}

let create ~min_card ~target_root () =
  { root = fresh_bnode (Xml.Symbol.intern target_root); groups = Hashtbl.create 64; min_card }

let root bld = bld.root

let append_child parent child = parent.bchildren <- child :: parent.bchildren

let completion_child parent sym =
  let rec find = function
    | [] ->
      let b = fresh_bnode sym in
      append_child parent b;
      parent.bcompletions <- b :: parent.bcompletions;
      b
    | b :: rest -> if Xml.Symbol.equal b.bsym sym then b else find rest
  in
  find parent.bcompletions

let driven_child parent sym =
  let b = fresh_bnode sym in
  append_child parent b;
  b

let grouped_child bld parent sym key =
  match Hashtbl.find_opt bld.groups (parent.id, sym, key) with
  | Some b -> b
  | None ->
    let b = fresh_bnode sym in
    append_child parent b;
    Hashtbl.add bld.groups (parent.id, sym, key) b;
    b

let split_last = function
  | [] -> None
  | steps ->
    let rec go acc = function
      | [ last ] -> Some (List.rev acc, last)
      | s :: rest -> go (s :: acc) rest
      | [] -> None
    in
    go [] steps

(* [leaf_setter step] — assign an attribute or text value at [step],
   rejecting conflicting reassignment. *)
let leaf_setter (step : Path.step) : bnode -> Xml.Atom.t -> unit =
  let conflict b kind old atom =
    error "conflicting values for %s of <%s>: %s vs %s" kind (Xml.Symbol.name b.bsym)
      (Xml.Atom.to_string old) (Xml.Atom.to_string atom)
  in
  match step with
  | Path.Attr name ->
    fun b atom ->
      (match Xml.Node.assoc name b.battrs with
       | Some old ->
         if not (Xml.Atom.equal old atom) then conflict b ("@" ^ name) old atom
       | None -> b.battrs <- (name, atom) :: b.battrs)
  | Path.Value ->
    fun b atom ->
      (match b.btext with
       | Some old -> if not (Xml.Atom.equal old atom) then conflict b "text" old atom
       | None -> b.btext <- Some atom)
  | Path.Child _ ->
    fun _ _ -> error "a leaf assignment must end on an attribute or value step"

(* --- Scalar kernel ----------------------------------------------------- *)

let scalar_functions = [ "concat"; "add"; "sub"; "mul"; "div"; "upper"; "lower" ]

(* [scalar_fn name] — the function symbol [name], dispatched once; an
   unknown name raises only when the function is applied. *)
let scalar_fn name : Xml.Atom.t list -> Xml.Atom.t =
  let numeric a =
    match Xml.Atom.to_float a with
    | Some f -> f
    | None -> error "%s: non-numeric argument %s" name (Xml.Atom.to_string a)
  in
  let arith op args =
    match args with
    | [ a; b ] ->
      let x = numeric a and y = numeric b in
      let r = op x y in
      if Float.is_integer r && Float.abs r < 1e15 then
        Xml.Atom.Int (int_of_float r)
      else Xml.Atom.Float r
    | _ -> error "%s: expected 2 arguments, got %d" name (List.length args)
  in
  match name with
  | "concat" ->
    fun args -> Xml.Atom.String (String.concat "" (List.map Xml.Atom.to_string args))
  | "add" -> arith ( +. )
  | "sub" -> arith ( -. )
  | "mul" -> arith ( *. )
  | "div" ->
    arith (fun x y -> if y = 0. then error "div: division by zero" else x /. y)
  | "upper" | "lower" ->
    let f = if String.equal name "upper" then String.uppercase_ascii else String.lowercase_ascii in
    (function
      | [ a ] -> Xml.Atom.String (f (Xml.Atom.to_string a))
      | args -> error "%s: expected 1 argument, got %d" name (List.length args))
  | name -> fun _ -> error "unknown scalar function %s" name

let atomize_item = function
  | Value.Atomic a -> a
  | Value.Node (Xml.Node.Text a) -> a
  | Value.Node (Xml.Node.Element _) as item -> Xml.Atom.of_string (Value.string_value item)

let atomize_items items = List.map atomize_item items

let compare_atoms op a b =
  let open Xml.Atom in
  match (op : Tgd.cmp_op) with
  | Tgd.Eq | Tgd.In -> equal a b
  | Tgd.Ne -> not (equal a b)
  | Tgd.Lt -> compare a b < 0
  | Tgd.Le -> compare a b <= 0
  | Tgd.Gt -> compare a b > 0
  | Tgd.Ge -> compare a b >= 0

let aggregate kind (items : Value.item list) : Xml.Atom.t option =
  let numeric a =
    match Xml.Atom.to_float a with
    | Some f -> f
    | None -> error "aggregate: non-numeric value %s" (Xml.Atom.to_string a)
  in
  let condense f =
    match List.map numeric (atomize_items items) with
    | [] -> None
    | x :: xs ->
      let r = f x xs in
      if Float.is_integer r && Float.abs r < 1e15 then
        Some (Xml.Atom.Int (int_of_float r))
      else Some (Xml.Atom.Float r)
  in
  match (kind : Tgd.agg_kind) with
  | Tgd.Count -> Some (Xml.Atom.Int (List.length items))
  | Tgd.Sum ->
    (match condense (fun x xs -> List.fold_left ( +. ) x xs) with
     | None -> Some (Xml.Atom.Int 0)
     | some -> some)
  | Tgd.Avg ->
    condense (fun x xs ->
        List.fold_left ( +. ) x xs /. float_of_int (1 + List.length xs))
  | Tgd.Min -> condense (fun x xs -> List.fold_left min x xs)
  | Tgd.Max -> condense (fun x xs -> List.fold_left max x xs)

(* --- Compiled rule bodies ------------------------------------------- *)

(* The per-binding body every executor runs — instantiate a rule's
   target generators, then apply its assertions — compiled once per
   rule: target paths split and their heads resolved statically, scalar
   and item evaluation taken from the evaluator's own compiler through
   [ops]. Names are resolved by the executor at compile time, against a
   ['scope] threaded through the rule in lexical order: each target
   generator's head and grouping keys see the generators before it, the
   assertions see them all. Every error stays lazy and keeps its text:
   it is raised only when a binding reaches it, in the order the
   operational reading meets it. *)
type 'env scalar =
  | One of ('env -> Xml.Atom.t option)
  | Many of ('env -> Xml.Atom.t list)

type ('env, 'scope) ops = {
  lookup_tgt : 'scope -> string -> 'env -> bnode;
  bind_tgt : 'scope -> string -> 'scope * ('env -> bnode -> 'env);
  compile_scalar : 'scope -> Term.scalar -> 'env scalar;
  compile_items : 'scope -> Term.expr -> 'env -> Value.item list; (* aggregate arguments *)
}

(* The head of a target expression: the target root or a bound target
   variable. *)
let compile_head ops scope (e : Term.expr) : t -> 'env -> bnode =
  match Term.head e with
  | Term.Root s ->
    let sym = Xml.Symbol.intern s in
    fun bld _ -> if Xml.Symbol.equal sym bld.root.bsym then bld.root else error "unknown target root %s" s
  | Term.Var x ->
    let lookup = ops.lookup_tgt scope x in
    fun _ env -> lookup env
  | Term.Proj _ -> assert false (* [Term.head] never returns a projection *)

(* Intermediate child steps materialise as completion singletons. *)
let rec compile_descend : Path.step list -> bnode -> bnode = function
  | [] -> Fun.id
  | Path.Child tag :: rest ->
    let k = compile_descend rest and sym = Xml.Symbol.intern tag in
    fun b -> k (completion_child b sym)
  | (Path.Attr _ | Path.Value) :: _ -> fun _ -> error "target path traverses a leaf step"

(* A leaf assignment at the end of target expression [e]; [on_root]
   names the assignment when [e] has no step to assign. *)
let compile_leaf ops scope (e : Term.expr) ~on_root : t -> 'env -> Xml.Atom.t -> unit =
  let head = compile_head ops scope e in
  match split_last (Term.steps e) with
  | None ->
    fun bld env _ ->
      ignore (head bld env);
      error "%s targets the document root" on_root
  | Some (intermediate, last) ->
    let descend = compile_descend intermediate and set = leaf_setter last in
    fun bld env atom -> set (descend (head bld env)) atom

let single k ~empty ~many =
  match k with
  | One k -> fun env -> (match k env with Some a -> a | None -> empty ())
  | Many k ->
    fun env -> (match k env with [ a ] -> a | [] -> empty () | _ :: _ :: _ -> many ())

(* [bind] binds the generator's variable to the element it creates or
   reaches. *)
let compile_gen ops scope bind (g : Tgd.target_gen) : t -> 'env -> 'env =
  let head = compile_head ops scope g.texpr in
  match split_last (Term.steps g.texpr) with
  | None ->
    fun bld env ->
      ignore (head bld env);
      error "target generator %s binds the target root itself" g.tvar
  | Some (intermediate, last) ->
    let descend = compile_descend intermediate in
    let create : t -> 'env -> bnode -> bnode =
      match last, g.mode with
      | (Path.Attr _ | Path.Value), _ ->
        fun _ _ _ -> error "target generator %s ends on a leaf step" g.tvar
      | Path.Child tag, Tgd.Driven ->
        let sym = Xml.Symbol.intern tag in
        fun _ _ parent -> driven_child parent sym
      | Path.Child tag, Tgd.Completion ->
        let sym = Xml.Symbol.intern tag in
        fun bld _ parent ->
          if bld.min_card then completion_child parent sym else driven_child parent sym
      | Path.Child tag, Tgd.Grouped { keys } ->
        let sym = Xml.Symbol.intern tag in
        let keys =
          List.map
            (fun k ->
              single (ops.compile_scalar scope k)
                ~empty:(fun () -> error "grouping key evaluates to the empty sequence")
                ~many:(fun () -> error "grouping key evaluates to multiple values"))
            keys
        in
        fun bld env parent ->
          (* Keys are normalised so tgd grouping and the generated
             XQuery's value comparisons agree on mixed-type data. *)
          let key = List.map (fun k -> k env) keys in
          grouped_child bld parent sym (Clip_plan.Key.of_atoms key)
    in
    fun bld env -> bind env (create bld env (descend (head bld env)))

let compile_assertion ops scope (a : Tgd.assertion) : t -> 'env -> unit =
  match a with
  | Tgd.St_eq (e, s) ->
    let leaf = compile_leaf ops scope e ~on_root:"a leaf assignment" in
    let many () =
      error "value mapping %s = %s binds multiple values; aggregate or group first"
        (Term.expr_to_string e) (Term.scalar_to_string s)
    in
    (match ops.compile_scalar scope s with
     | One k ->
       fun bld env ->
         (match k env with
          | None -> () (* optional source data absent: nothing to copy *)
          | Some atom -> leaf bld env atom)
     | Many k ->
       fun bld env ->
         (match k env with
          | [] -> ()
          | [ atom ] -> leaf bld env atom
          | _ :: _ :: _ -> many ()))
  | Tgd.Target_cond (e, Tgd.Eq, atom) ->
    let leaf = compile_leaf ops scope e ~on_root:"a target condition" in
    fun bld env -> leaf bld env atom
  | Tgd.Target_cond (_, (Tgd.Ne | Tgd.Lt | Tgd.Le | Tgd.Gt | Tgd.Ge | Tgd.In), _) ->
    fun _ _ -> error "only equality target conditions are enforceable at build time"
  | Tgd.Agg (e, kind, arg) ->
    let items = ops.compile_items scope arg in
    let leaf = compile_leaf ops scope e ~on_root:"an aggregate" in
    fun bld env ->
      (match aggregate kind (items env) with
       | None -> ()
       | Some atom -> leaf bld env atom)

type 'env rule = {
  pre : (t -> 'env -> 'env) list; (* the leading completion generators *)
  gens : (t -> 'env -> 'env) list;
  asserts : (t -> 'env -> unit) list;
}

(* Target generators compiled in lexical order from [scope]; returns
   the extended scope. *)
let compile_gens ops scope (gens : Tgd.target_gen list) =
  let scope, gens_rev =
    List.fold_left
      (fun (scope, acc) (g : Tgd.target_gen) ->
        let scope', bind = ops.bind_tgt scope g.tvar in
        (scope', compile_gen ops scope bind g :: acc))
      (scope, []) gens
  in
  (scope, List.rev gens_rev)

(* The leading completion generators run once per parent context,
   before any of the rule's universal variables is bound, so they are
   compiled a second time in [outer]: the scope the rule is entered in. *)
let compile ops ~outer scope (m : Tgd.t) =
  let scope, gens = compile_gens ops scope m.exists in
  let rec leading (exists : Tgd.target_gen list) =
    match exists with
    | ({ Tgd.mode = Tgd.Completion; _ } as g) :: exists -> g :: leading exists
    | _ -> []
  in
  ( {
      pre = snd (compile_gens ops outer (leading m.exists));
      gens;
      asserts = List.map (compile_assertion ops scope) m.assertions;
    },
    scope )

(* Leading completion generators are the paper's constant tags: they
   exist once per parent context even when no binding survives, so
   instantiate them before enumerating bindings. (They only depend
   on outer variables; memoisation makes the per-binding
   re-instantiation in [emit] a no-op.) *)
let pre_instantiate bld rule env =
  match rule.pre with
  | [] -> ()
  | pre -> if bld.min_card then ignore (List.fold_left (fun env g -> g bld env) env pre)

let emit bld rule children env =
  let env = List.fold_left (fun env g -> g bld env) env rule.gens in
  List.iter (fun a -> a bld env) rule.asserts;
  children env
