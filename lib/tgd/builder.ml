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

let make_bnode id bsym =
  { id; bsym; battrs = []; btext = None; bchildren = []; bcompletions = [] }

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

(* [nodes] is the id of the last node created: ids are 1, 2, ... in
   creation order within one instance, so a run can index arrays by
   them; nothing compares ids across instances. *)
type t = {
  root : bnode;
  mutable nodes : int;
  groups : (int * Xml.Symbol.t * Clip_plan.Key.t, bnode) Hashtbl.t;
  min_card : bool;
}

let create ~min_card ~target_root () =
  {
    root = make_bnode 1 (Xml.Symbol.intern target_root);
    nodes = 1;
    groups = Hashtbl.create 64;
    min_card;
  }

let fresh_bnode bld bsym =
  bld.nodes <- bld.nodes + 1;
  make_bnode bld.nodes bsym

let root bld = bld.root

let append_child parent child = parent.bchildren <- child :: parent.bchildren

let completion_child bld parent sym =
  let rec find = function
    | [] ->
      let b = fresh_bnode bld sym in
      append_child parent b;
      parent.bcompletions <- b :: parent.bcompletions;
      b
    | b :: rest -> if Xml.Symbol.equal b.bsym sym then b else find rest
  in
  find parent.bcompletions

let driven_child bld parent sym =
  let b = fresh_bnode bld sym in
  append_child parent b;
  b

let grouped_child bld parent sym key =
  match Hashtbl.find_opt bld.groups (parent.id, sym, key) with
  | Some b -> b
  | None ->
    let b = fresh_bnode bld sym in
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

let atomize_node = function
  | Xml.Node.Text a -> a
  | Xml.Node.Element _ as n -> atomize_item (Value.Node n)

let compare_atoms op a b =
  let open Xml.Atom in
  match (op : Tgd.cmp_op) with
  | Tgd.Eq | Tgd.In -> equal a b
  | Tgd.Ne -> not (equal a b)
  | Tgd.Lt -> compare a b < 0
  | Tgd.Le -> compare a b <= 0
  | Tgd.Gt -> compare a b > 0
  | Tgd.Ge -> compare a b >= 0

(* An aggregate folded over the items its argument pushes. [count]
   counts them; the numeric kinds read each item's number into
   [acc.(0)] — the running sum, or the extreme so far — a float array
   cell, so no write boxes a float. The sum and the extremes fold from
   the first number, in order, as a left fold over the list of numbers
   would. The first non-numeric atom is kept in [bad] and reported when
   the result is read, after the whole enumeration, which is where the
   fold over a finished list met it. [push] is built once with the
   record. *)
type agg = {
  kind : Tgd.agg_kind;
  mutable count : int;
  acc : float array;
  mutable bad : Xml.Atom.t option;
  push : Xml.Node.t -> unit;
}

let agg kind =
  let rec a =
    {
      kind;
      count = 0;
      acc = [| 0. |];
      bad = None;
      push =
        (fun n ->
          a.count <- a.count + 1;
          match a.kind, a.bad with
          | Tgd.Count, _ | _, Some _ -> ()
          | (Tgd.Sum | Tgd.Avg | Tgd.Min | Tgd.Max), None ->
            let x =
              match atomize_node n with
              | Xml.Atom.Int i -> float_of_int i
              | Xml.Atom.Float f -> f
              | (Xml.Atom.String _ | Xml.Atom.Bool _) as bad ->
                a.bad <- Some bad;
                0.
            in
            if a.count = 1 then a.acc.(0) <- x
            else (
              match a.kind with
              | Tgd.Sum | Tgd.Avg -> a.acc.(0) <- a.acc.(0) +. x
              | Tgd.Min -> if not (a.acc.(0) <= x) then a.acc.(0) <- x
              | Tgd.Max -> if not (a.acc.(0) >= x) then a.acc.(0) <- x
              | Tgd.Count -> ()));
    }
  in
  a

let agg_result a : Xml.Atom.t option =
  let condense r =
    if Float.is_integer r && Float.abs r < 1e15 then Some (Xml.Atom.Int (int_of_float r))
    else Some (Xml.Atom.Float r)
  in
  match a.kind, a.bad with
  | Tgd.Count, _ -> Some (Xml.Atom.Int a.count)
  | _, Some bad -> error "aggregate: non-numeric value %s" (Xml.Atom.to_string bad)
  | Tgd.Sum, None -> if a.count = 0 then Some (Xml.Atom.Int 0) else condense a.acc.(0)
  | (Tgd.Min | Tgd.Max), None -> if a.count = 0 then None else condense a.acc.(0)
  | Tgd.Avg, None ->
    if a.count = 0 then None else condense (a.acc.(0) /. float_of_int a.count)

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
  | One of ('env -> Xml.Atom.t)
  | Many of ('env -> (Xml.Atom.t -> unit) -> unit)

(* What a [One] scalar returns for "no atom": a block of its own, so no
   atom of a document or a mapping is ever physically this one. *)
let none = Xml.Atom.String (String.make 1 '\000')

let push = function
  | One k ->
    fun env f ->
      let a = k env in
      if a != none then f a
  | Many k -> k

type ('env, 'scope) ops = {
  lookup_tgt : 'scope -> string -> 'env -> bnode;
  bind_tgt : 'scope -> string -> 'scope * ('env -> bnode -> 'env);
  compile_scalar : 'scope -> Term.scalar -> 'env scalar;
  compile_items : 'scope -> Term.expr -> 'env -> (Xml.Node.t -> unit) -> unit;
      (* aggregate arguments *)
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
let rec compile_descend : Path.step list -> t -> bnode -> bnode = function
  | [] -> fun _ b -> b
  | Path.Child tag :: rest ->
    let k = compile_descend rest and sym = Xml.Symbol.intern tag in
    fun bld b -> k bld (completion_child bld b sym)
  | (Path.Attr _ | Path.Value) :: _ -> fun _ _ -> error "target path traverses a leaf step"

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
    fun bld env atom -> set (descend bld (head bld env)) atom

let single k ~empty ~many =
  match k with
  | One k ->
    fun env ->
      let a = k env in
      if a == none then empty () else a
  | Many k ->
    let s = Clip_plan.Sink.create () in
    fun env ->
      Clip_plan.Sink.fill s k env;
      (match s.n with 0 -> empty () | 1 -> s.first | _ -> many ())

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
        fun bld _ parent -> driven_child bld parent sym
      | Path.Child tag, Tgd.Completion ->
        let sym = Xml.Symbol.intern tag in
        fun bld _ parent ->
          if bld.min_card then completion_child bld parent sym else driven_child bld parent sym
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
    fun bld env -> bind env (create bld env (descend bld (head bld env)))

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
         let atom = k env in
         (* optional source data absent: nothing to copy *)
         if atom != none then leaf bld env atom
     | Many k ->
       let atoms = Clip_plan.Sink.create () in
       fun bld env ->
         Clip_plan.Sink.fill atoms k env;
         (match atoms.n with
          | 0 -> ()
          | 1 -> leaf bld env atoms.first
          | _ -> many ()))
  | Tgd.Target_cond (e, Tgd.Eq, atom) ->
    let leaf = compile_leaf ops scope e ~on_root:"a target condition" in
    fun bld env -> leaf bld env atom
  | Tgd.Target_cond (_, (Tgd.Ne | Tgd.Lt | Tgd.Le | Tgd.Gt | Tgd.Ge | Tgd.In), _) ->
    fun _ _ -> error "only equality target conditions are enforceable at build time"
  | Tgd.Agg (e, kind, arg) ->
    let items = ops.compile_items scope arg in
    let leaf = compile_leaf ops scope e ~on_root:"an aggregate" in
    let a = agg kind in
    fun bld env ->
      a.count <- 0;
      a.bad <- None;
      items env a.push;
      (match agg_result a with
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

let rec run_gens bld env = function
  | [] -> env
  | g :: gens -> run_gens bld (g bld env) gens

let rec run_asserts bld env = function
  | [] -> ()
  | a :: asserts ->
    a bld env;
    run_asserts bld env asserts

(* Leading completion generators are the paper's constant tags: they
   exist once per parent context even when no binding survives, so
   instantiate them before enumerating bindings. (They only depend
   on outer variables; memoisation makes the per-binding
   re-instantiation in [emit] a no-op.) *)
let pre_instantiate bld rule env =
  match rule.pre with
  | [] -> ()
  | pre -> if bld.min_card then ignore (run_gens bld env pre)

let emit bld rule children env =
  let env = run_gens bld env rule.gens in
  run_asserts bld env rule.asserts;
  children env
