module Path = Clip_schema.Path
module Schema = Clip_schema.Schema
module Tgd = Clip_tgd.Tgd
module Term = Clip_tgd.Term
module Mapping = Clip_core.Mapping
module Validity = Clip_core.Validity
module Compile = Clip_core.Compile
module Engine = Clip_core.Engine
module Codes = Clip_diag.Codes

let aerror code fmt =
  Printf.ksprintf
    (fun s -> Clip_diag.fail (Clip_diag.error ~code ("compose: " ^ s)))
    fmt

(* === Binding simulation ================================================

   Composition instantiates [m1] builder chains inside a new mapping and
   must know, {e exactly}, which source binding the compiler will anchor
   every input and every value-mapping leaf against — a wrong anchor
   silently changes multiplicity (a self-join collapsing into a
   correlated scan, an iteration re-crossing a repetition). This module
   mirrors [Compile.compile_input] / [source_leaf_expr]: same
   deepest-prefix fold, same first-wins tie-break, same
   sibling-independent input anchoring. Every binding gets a stable
   address ([occ]) so the instantiation can state which binding it
   {e intended} and a verification pass can check the compiler agrees. *)

(* [Root] is the schema-root pseudo-binding; [B (node, input, pos)] is
   the [pos]-th generator of the builder chain compiled for the
   [input]-th incoming builder (0-based) of build node [node]. *)
type occ = Root | B of string * int * int

type binding = { o : occ; bpath : Path.t; bvar : string option }

type input_info = {
  ii_anchor : occ;
  ii_chain : (Path.t * occ) list; (* outermost first; last element = the input *)
}

type sim = {
  s_schema : Schema.t;
  s_root : binding;
  s_inputs : (string * int, input_info) Hashtbl.t;
  s_scope : (string, binding list) Hashtbl.t; (* ctx @ own, root excluded *)
}

(* Mirror of [Compile.deepest_binding]: deepest prefix wins, first wins
   on equal depth (the fold keeps [best] when depths tie). *)
let deepest_binding bindings ~ok p =
  List.fold_left
    (fun best b ->
      if Path.is_prefix b.bpath p && ok b then
        match best with
        | Some prev
          when List.length prev.bpath.Path.steps
               >= List.length b.bpath.Path.steps ->
          best
        | Some _ | None -> Some b
      else best)
    None bindings

let analyze (m : Mapping.t) =
  let sim =
    {
      s_schema = m.source;
      s_root = { o = Root; bpath = Schema.root_path m.source; bvar = None };
      s_inputs = Hashtbl.create 16;
      s_scope = Hashtbl.create 16;
    }
  in
  let rec node ctx (n : Mapping.build_node) =
    let own =
      List.concat
        (List.mapi
           (fun idx (i : Mapping.input) ->
             let anchor =
               match
                 deepest_binding (sim.s_root :: ctx) ~ok:(fun _ -> true)
                   i.in_source
               with
               | Some b -> b
               | None ->
                 aerror Codes.algebra_ambiguous
                   "input %s of node %s is not under the source root"
                   (Path.to_string i.in_source) n.bn_id
             in
             let reps =
               Schema.repeating_strictly_between m.source ~above:anchor.bpath
                 ~below:i.in_source
             in
             let chain =
               if List.exists (Path.equal i.in_source) reps then reps
               else reps @ [ i.in_source ]
             in
             let k = List.length chain in
             let bs =
               List.mapi
                 (fun pos p ->
                   {
                     o = B (n.bn_id, idx, pos);
                     bpath = p;
                     bvar = (if pos = k - 1 then i.in_var else None);
                   })
                 chain
             in
             Hashtbl.replace sim.s_inputs (n.bn_id, idx)
               { ii_anchor = anchor.o; ii_chain = List.map (fun b -> (b.bpath, b.o)) bs };
             bs)
           n.bn_inputs)
    in
    let scope = ctx @ own in
    Hashtbl.replace sim.s_scope n.bn_id scope;
    List.iter (node scope) n.bn_children
  in
  List.iter (node []) m.roots;
  sim

(* Mirror of [Compile.source_leaf_expr]'s anchor choice. *)
let anchor_leaf sim scope ~require_unrepeated leaf =
  let ok b =
    (not require_unrepeated)
    || Schema.repeating_strictly_between sim.s_schema ~above:b.bpath ~below:leaf
       = []
  in
  deepest_binding (sim.s_root :: scope) ~ok (Path.element_of leaf)

(* === Composition ====================================================== *)

(* Composed-side construction node: mutable so the walk can graft the
   principal output, conditions and children onto the innermost
   instantiated node after all chains of an [m2] node are in place. *)
type cnode = {
  c_id : string;
  c_inputs : Mapping.input list;
  mutable c_cond : Mapping.predicate list;
  mutable c_group : Mapping.group_key list;
  mutable c_output : Path.t option;
  mutable c_children : cnode list;
}

(* One instantiated [m1] context reachable from an [m2] binding: the
   producer node it copies and the environment mapping every [m1]
   binding occurrence on the copy's chain (and its inherited ancestors)
   to the composed occurrence and composed variable. Innermost entries
   last; lookups take the last match so re-instantiated self-join
   copies shadow outer ones. *)
type inst = {
  i_node : Mapping.build_node option; (* None = the document root *)
  i_env : (occ * (occ * string option)) list;
}

let lookup_env env o =
  List.fold_left (fun acc (o', v) -> if o' = o then Some v else acc) None env

type vm_expect = { ve_driver : string; ve_leaf : Path.t; ve_ru : bool; ve_occ : occ }

(* Tail of [full] strictly after the physically-equal node [p]. *)
let rec tail_after p = function
  | [] -> None
  | x :: rest -> if x == p then Some rest else tail_after p rest

let last xs = List.nth xs (List.length xs - 1)

let compose_exn (m1 : Mapping.t) (m2 : Mapping.t) =
  (* Operands must be valid, compilable mappings. *)
  (match Compile.to_tgd_result m1 with
   | Ok _ -> ()
   | Error ds -> Clip_diag.fail_all ds);
  (match Compile.to_tgd_result m2 with
   | Ok _ -> ()
   | Error ds -> Clip_diag.fail_all ds);
  if not (Schema.equal m1.target m2.source) then
    aerror Codes.algebra_schema_mismatch
      "the first mapping's target schema is not the second's source schema";
  let inter = m1.target in
  (* Unique producers: at most one builder output per intermediate
     element, in both operands (composition and driver resolution rely
     on it). *)
  let check_unique_outputs which (m : Mapping.t) =
    let outs =
      List.filter_map (fun (n : Mapping.build_node) -> n.bn_output)
        (Mapping.all_nodes m)
    in
    let rec dup = function
      | [] -> ()
      | p :: rest ->
        if List.exists (Path.equal p) rest then
          aerror Codes.algebra_ambiguous
            "%s mapping: two build nodes produce %s" which (Path.to_string p)
        else dup rest
    in
    dup outs
  in
  check_unique_outputs "first" m1;
  check_unique_outputs "second" m2;
  let producer q =
    List.find_opt
      (fun (n : Mapping.build_node) ->
        match n.bn_output with Some o -> Path.equal o q | None -> false)
      (Mapping.all_nodes m1)
  in
  let unique_vm q =
    match
      List.filter
        (fun (vm : Mapping.value_mapping) -> Path.equal vm.vm_target q)
        m1.values
    with
    | [ vm ] -> vm
    | [] ->
      aerror Codes.algebra_leaf
        "intermediate leaf %s is read but populated by no value mapping"
        (Path.to_string q)
    | _ :: _ ->
      aerror Codes.algebra_ambiguous
        "intermediate leaf %s is populated by more than one value mapping"
        (Path.to_string q)
  in
  let sim1 = analyze m1 in
  let sim2 = analyze m2 in
  let scope1 (n : Mapping.build_node) = Hashtbl.find sim1.s_scope n.bn_id in
  let scope2 (n : Mapping.build_node) = Hashtbl.find sim2.s_scope n.bn_id in
  (* Composed-side supplies and the expectation ledger the verification
     pass checks against the compiler's own choices. *)
  let next_node = ref 0 and next_var = ref 0 in
  let fresh_node () = incr next_node; Printf.sprintf "a%d" !next_node in
  let fresh_var () = incr next_var; Printf.sprintf "c%d" !next_var in
  let croots = ref [] in
  let expect_anchor : (string * int, occ) Hashtbl.t = Hashtbl.create 16 in
  let expect_vm : vm_expect list ref = ref [] in
  let root_inst = { i_node = None; i_env = [ (Root, (Root, None)) ] } in
  (* Info recorded per [m2] node once its chains are instantiated: the
     innermost composed node and the [m2]-binding environment in scope
     there. *)
  let node_info : (string, string * (occ * inst) list) Hashtbl.t =
    Hashtbl.create 16
  in
  (* Translate one [m1] predicate of node [x] under environment [env]. *)
  let translate_pred_m1 env (x : Mapping.build_node) (p : Mapping.predicate) =
    let tr = function
      | Mapping.O_const a -> Mapping.O_const a
      | Mapping.O_path (v, steps) ->
        (match
           List.find_opt
             (fun b -> b.bvar = Some v)
             (List.rev (scope1 x))
         with
         | None ->
           aerror Codes.algebra_ambiguous
             "variable $%s of node %s is not bound on its builder chain" v
             x.bn_id
         | Some b ->
           (match lookup_env env b.o with
            | Some (_, Some cv) -> Mapping.O_path (cv, steps)
            | Some (_, None) | None ->
              aerror Codes.algebra_ambiguous
                "no composed binding for $%s of node %s" v x.bn_id))
    in
    { Mapping.p_left = tr p.p_left; p_op = p.p_op; p_right = tr p.p_right }
  in
  let occ_path1 = function
    | Root -> sim1.s_root.bpath
    | B (nid, idx, pos) ->
      fst (List.nth (Hashtbl.find sim1.s_inputs (nid, idx)).ii_chain pos)
  in
  let occ_path2 = function
    | Root -> sim2.s_root.bpath
    | B (nid, idx, pos) ->
      fst (List.nth (Hashtbl.find sim2.s_inputs (nid, idx)).ii_chain pos)
  in
  (* The producers of one [m2] input chain, with the fragment checks:
     every iterated intermediate element must have a unique, grouping-
     free producer. *)
  let chain_producers chain =
    List.map
      (fun (q, m2occ) ->
        match producer q with
        | None ->
          if Schema.is_repeating inter q then
            aerror Codes.algebra_ambiguous
              "intermediate element %s has no producing build node"
              (Path.to_string q)
          else
            aerror Codes.algebra_multiplicity
              "the second mapping iterates %s, which no builder produces \
               (completion elements have no per-binding multiplicity)"
              (Path.to_string q)
        | Some p ->
          if p.bn_group_by <> [] then
            aerror Codes.algebra_grouping
              "intermediate element %s is produced by a grouping node; \
               unfolding would lose its memoisation"
              (Path.to_string q);
          (q, m2occ, p))
      chain
  in
  (* How one [m2] input unfolds.

     - [`Alias]: the generator re-binds the anchor's own element — a
       singleton. The composed input re-binds the producing iteration's
       innermost source binding instead; reads resolve through the
       anchor's existing instantiation.
     - [`Collapse]: the producing [m1] segment is a pure telescope
       (single-input, condition-free, grouping-free) whose combined
       generator chain is exactly what the compiler derives for its
       deepest source path. The whole segment becomes ONE composed
       input — crucially preserving the sibling-independence of [m2]'s
       inputs (sibling inputs must not anchor against each other).
     - [`Nested]: general segments (joins, filters) are instantiated as
       a nested spine of composed context nodes, one per [m1] node. *)
  let plan_input (ii : input_info) cenv =
    let anchor_inst =
      match List.assoc_opt ii.ii_anchor cenv with
      | Some i -> i
      | None -> assert false
    in
    match ii.ii_chain with
    | [ (q, m2occ) ]
      when ii.ii_anchor <> Root && Path.equal q (occ_path2 ii.ii_anchor) ->
      let x =
        match anchor_inst.i_node with
        | Some x -> x
        | None ->
          aerror Codes.algebra_ambiguous
            "re-binding %s: its instantiation has no producing builder"
            (Path.to_string q)
      in
      let m1occ =
        snd (last (Hashtbl.find sim1.s_inputs (x.bn_id, 0)).ii_chain)
      in
      let sp = occ_path1 m1occ in
      (match lookup_env anchor_inst.i_env m1occ with
       | Some (cocc, _) -> `Alias (m2occ, sp, cocc, m1occ, anchor_inst)
       | None ->
         aerror Codes.algebra_ambiguous
           "re-binding %s: no composed binding for its instantiation"
           (Path.to_string q))
    | chain ->
      let chain_prods = chain_producers chain in
      let _, _, pk = last chain_prods in
      let full = Validity.parent_chain m1 pk @ [ pk ] in
      let xs =
        match anchor_inst.i_node with
        | None -> full
        | Some p0 ->
          (match tail_after p0 full with
           | Some (_ :: _ as l) -> l
           | Some [] | None ->
             aerror Codes.algebra_ambiguous
               "builder chains for %s do not nest inside the binding context"
               (Path.to_string (fst (List.hd chain))))
      in
      (* every chain element's producer must lie on [xs], in order *)
      let rec order ns = function
        | [] -> ()
        | (q, _, p) :: rest ->
          (match tail_after p ns with
           | Some ns' -> order ns' rest
           | None ->
             aerror Codes.algebra_ambiguous
               "the builder producing %s is not on the unfolded chain"
               (Path.to_string q))
      in
      order xs chain_prods;
      List.iter
        (fun (x : Mapping.build_node) ->
          if x.bn_group_by <> [] then
            aerror Codes.algebra_grouping
              "build node %s groups its iteration; unfolding would lose \
               the memoisation"
              x.bn_id)
        xs;
      let telescope =
        List.for_all
          (fun (x : Mapping.build_node) ->
            List.length x.bn_inputs = 1 && x.bn_cond = [])
          xs
      in
      if telescope then begin
        let concat =
          List.concat_map
            (fun (x : Mapping.build_node) ->
              (Hashtbl.find sim1.s_inputs (x.bn_id, 0)).ii_chain)
            xs
        in
        let x1 = List.hd xs in
        let a1occ = (Hashtbl.find sim1.s_inputs (x1.bn_id, 0)).ii_anchor in
        let above = occ_path1 a1occ in
        let sp = fst (last concat) in
        let reps =
          Schema.repeating_strictly_between sim1.s_schema ~above ~below:sp
        in
        let auto =
          if List.exists (Path.equal sp) reps then reps else reps @ [ sp ]
        in
        let matches =
          List.length auto = List.length concat
          && List.for_all2 (fun a (p, _) -> Path.equal a p) auto concat
        in
        match lookup_env anchor_inst.i_env a1occ with
        | Some (cocc, _) when matches ->
          `Collapse (chain_prods, xs, anchor_inst, cocc, sp)
        | Some _ | None -> `Nested (chain_prods, xs, anchor_inst)
      end
      else `Nested (chain_prods, xs, anchor_inst)
  in
  (* One collapsed input of composed node [cid]: record the expected
     anchor, extend the instantiation environment along the combined
     chain, and register one instantiation per produced element. *)
  let apply_collapse ~cid ~idx ~var (chain_prods, xs, anchor_inst, cocc, sp) =
    Hashtbl.replace expect_anchor (cid, idx) cocc;
    let k =
      List.fold_left
        (fun acc (x : Mapping.build_node) ->
          acc + List.length (Hashtbl.find sim1.s_inputs (x.bn_id, 0)).ii_chain)
        0 xs
    in
    let env = ref anchor_inst.i_env in
    let adds = ref [] in
    let pos = ref 0 in
    List.iter
      (fun (x : Mapping.build_node) ->
        List.iter
          (fun (_, m1occ) ->
            let v = if !pos = k - 1 then Some var else None in
            env := !env @ [ (m1occ, (B (cid, idx, !pos), v)) ];
            incr pos)
          (Hashtbl.find sim1.s_inputs (x.bn_id, 0)).ii_chain;
        match
          List.find_opt
            (fun (q, _, _) ->
              match x.bn_output with Some o -> Path.equal o q | None -> false)
            chain_prods
        with
        | Some (_, m2occ, _) ->
          adds := (m2occ, { i_node = Some x; i_env = !env }) :: !adds
        | None -> ())
      xs;
    (Mapping.input ~var sp, List.rev !adds)
  in
  (* General instantiation: one composed context node per [m1] node of
     the segment, nested under [parent]. *)
  let instantiate_nested ~parent (chain_prods, xs, anchor_inst) =
    let env = ref anchor_inst.i_env in
    let parent = ref parent in
    let adds = ref [] in
    List.iter
      (fun (x : Mapping.build_node) ->
        let cid = fresh_node () in
        let cinputs =
          List.map
            (fun (i : Mapping.input) ->
              Mapping.input ~var:(fresh_var ()) i.in_source)
            x.bn_inputs
        in
        List.iteri
          (fun idx (ci : Mapping.input) ->
            let ii = Hashtbl.find sim1.s_inputs (x.bn_id, idx) in
            (match lookup_env !env ii.ii_anchor with
             | Some (cocc, _) -> Hashtbl.replace expect_anchor (cid, idx) cocc
             | None ->
               aerror Codes.algebra_ambiguous
                 "no composed binding for the anchor of node %s" x.bn_id);
            let k = List.length ii.ii_chain in
            List.iteri
              (fun pos (_, m1occ) ->
                let v = if pos = k - 1 then ci.in_var else None in
                env := !env @ [ (m1occ, (B (cid, idx, pos), v)) ])
              ii.ii_chain)
          cinputs;
        let cond = List.map (translate_pred_m1 !env x) x.bn_cond in
        let cn =
          {
            c_id = cid;
            c_inputs = cinputs;
            c_cond = cond;
            c_group = [];
            c_output = None;
            c_children = [];
          }
        in
        (match !parent with
         | Some p -> p.c_children <- p.c_children @ [ cn ]
         | None -> croots := !croots @ [ cn ]);
        parent := Some cn;
        match
          List.find_opt
            (fun (q, _, _) ->
              match x.bn_output with Some o -> Path.equal o q | None -> false)
            chain_prods
        with
        | Some (_, m2occ, _) ->
          adds := (m2occ, { i_node = Some x; i_env = !env }) :: !adds
        | None -> ())
      xs;
    (Option.get !parent, List.rev !adds)
  in
  (* Resolve a read of intermediate leaf [q_abs] whose binding
     instantiation is [inst]: the composed operand denoting the same
     value, expressible only when [m1] populates the leaf with a
     constant or an identity copy anchored at a named binding. *)
  let resolve_read_at inst q_abs =
    let vm1 = unique_vm q_abs in
    match vm1.vm_fn with
    | Mapping.Constant a -> Mapping.O_const a
    | Mapping.Identity ->
      let s = List.hd vm1.vm_sources in
      let pd =
        match Validity.driver_of m1 vm1 with
        | Some d -> d
        | None ->
          aerror Codes.algebra_leaf
            "intermediate leaf %s has no driving builder in the first mapping"
            (Path.to_string q_abs)
      in
      (match inst.i_node with
       | Some p when p == pd -> ()
       | Some _ | None ->
         aerror Codes.algebra_leaf
           "the value of %s is not written by the iteration that binds it"
           (Path.to_string q_abs));
      (match anchor_leaf sim1 (scope1 pd) ~require_unrepeated:true s with
       | None ->
         aerror Codes.algebra_leaf "source %s has no anchor in the first mapping"
           (Path.to_string s)
       | Some bs ->
         (match lookup_env inst.i_env bs.o with
          | Some (_, Some cv) ->
            (match Path.strip_prefix ~prefix:bs.bpath s with
             | Some steps -> Mapping.O_path (cv, steps)
             | None -> assert false)
          | Some (_, None) | None ->
            aerror Codes.algebra_leaf
              "the value of %s is anchored at an unnamed binding and cannot \
               be referenced in a condition"
              (Path.to_string q_abs)))
    | Mapping.Scalar _ | Mapping.Aggregate _ ->
      aerror Codes.algebra_leaf
        "the value of %s is computed by a function; conditions and grouping \
         keys cannot apply functions"
        (Path.to_string q_abs)
  in
  (* Resolve a condition / grouping-key read [$v.steps] of [m2] node [n]
     under binding environment [cenv]. *)
  let resolve_read cenv (n : Mapping.build_node) v steps =
    match List.find_opt (fun b -> b.bvar = Some v) (List.rev (scope2 n)) with
    | None ->
      aerror Codes.algebra_ambiguous
        "variable $%s of node %s is not bound on its builder chain" v n.bn_id
    | Some b ->
      let q_abs = Path.append b.bpath steps in
      (match Schema.find inter q_abs with
       | Some (Schema.Attr_ref _ | Schema.Value_ref _) -> ()
       | Some (Schema.Element_ref _) | None ->
         aerror Codes.algebra_leaf
           "condition operand %s is not an intermediate leaf"
           (Path.to_string q_abs));
      if
        Schema.repeating_strictly_between inter ~above:b.bpath ~below:q_abs
        <> []
      then
        aerror Codes.algebra_leaf
          "condition operand %s crosses a repetition below its binding"
          (Path.to_string q_abs);
      let inst =
        match List.assoc_opt b.o cenv with
        | Some i -> i
        | None -> assert false
      in
      resolve_read_at inst q_abs
  in
  let translate_pred_m2 cenv (n : Mapping.build_node) (p : Mapping.predicate) =
    let tr = function
      | Mapping.O_const a -> Mapping.O_const a
      | Mapping.O_path (v, steps) -> resolve_read cenv n v steps
    in
    { Mapping.p_left = tr p.p_left; p_op = p.p_op; p_right = tr p.p_right }
  in
  let translate_group_key cenv (n : Mapping.build_node)
      ((v, steps) : Mapping.group_key) =
    match resolve_read cenv n v steps with
    | Mapping.O_path (cv, st) -> (cv, st)
    | Mapping.O_const _ ->
      aerror Codes.algebra_leaf
        "grouping key $%s of node %s resolves to a constant, which a \
         grouping attribute cannot express"
        v n.bn_id
  in
  (* Walk [m2]'s CPT. When every input of a node unfolds as an alias or
     a collapsed telescope, the node maps to ONE composed node whose
     inputs mirror [m2]'s — preserving their sibling independence.
     Otherwise each input's segment is instantiated in sequence as a
     nested spine, and the innermost node carries the [m2] node's
     output, conditions and grouping. *)
  let rec walk parent cenv (n : Mapping.build_node) =
    let plans =
      List.mapi
        (fun idx _ -> plan_input (Hashtbl.find sim2.s_inputs (n.bn_id, idx)) cenv)
        n.bn_inputs
    in
    let mirrors =
      List.for_all
        (function `Alias _ | `Collapse _ -> true | `Nested _ -> false)
        plans
    in
    let inner, cenv' =
      if mirrors then begin
        let cid = fresh_node () in
        let adds = ref [] in
        let cinputs =
          List.mapi
            (fun idx plan ->
              let var = fresh_var () in
              match plan with
              | `Alias (m2occ, sp, cocc, m1occ, inst) ->
                Hashtbl.replace expect_anchor (cid, idx) cocc;
                (* reads anchored at the re-bound element use the alias
                   variable — the singleton denotes the same element *)
                let inst' =
                  {
                    inst with
                    i_env =
                      inst.i_env @ [ (m1occ, (B (cid, idx, 0), Some var)) ];
                  }
                in
                adds := !adds @ [ (m2occ, inst') ];
                Mapping.input ~var sp
              | `Collapse c ->
                let input, a = apply_collapse ~cid ~idx ~var c in
                adds := !adds @ a;
                input
              | `Nested _ -> assert false)
            plans
        in
        let cn =
          {
            c_id = cid;
            c_inputs = cinputs;
            c_cond = [];
            c_group = [];
            c_output = None;
            c_children = [];
          }
        in
        (match parent with
         | Some p -> p.c_children <- p.c_children @ [ cn ]
         | None -> croots := !croots @ [ cn ]);
        (cn, cenv @ !adds)
      end
      else begin
        let cur_parent = ref parent and cur_cenv = ref cenv in
        List.iter
          (fun plan ->
            match plan with
            | `Alias (m2occ, sp, cocc, m1occ, inst) ->
              let cid = fresh_node () in
              let var = fresh_var () in
              Hashtbl.replace expect_anchor (cid, 0) cocc;
              let inst' =
                {
                  inst with
                  i_env = inst.i_env @ [ (m1occ, (B (cid, 0, 0), Some var)) ];
                }
              in
              let cn =
                {
                  c_id = cid;
                  c_inputs = [ Mapping.input ~var sp ];
                  c_cond = [];
                  c_group = [];
                  c_output = None;
                  c_children = [];
                }
              in
              (match !cur_parent with
               | Some p -> p.c_children <- p.c_children @ [ cn ]
               | None -> croots := !croots @ [ cn ]);
              cur_parent := Some cn;
              cur_cenv := !cur_cenv @ [ (m2occ, inst') ]
            | `Collapse c ->
              let cid = fresh_node () in
              let input, adds = apply_collapse ~cid ~idx:0 ~var:(fresh_var ()) c in
              let cn =
                {
                  c_id = cid;
                  c_inputs = [ input ];
                  c_cond = [];
                  c_group = [];
                  c_output = None;
                  c_children = [];
                }
              in
              (match !cur_parent with
               | Some p -> p.c_children <- p.c_children @ [ cn ]
               | None -> croots := !croots @ [ cn ]);
              cur_parent := Some cn;
              cur_cenv := !cur_cenv @ adds
            | `Nested seg ->
              let inner, adds = instantiate_nested ~parent:!cur_parent seg in
              cur_parent := Some inner;
              cur_cenv := !cur_cenv @ adds)
          plans;
        (Option.get !cur_parent, !cur_cenv)
      end
    in
    inner.c_output <- n.bn_output;
    inner.c_cond <- inner.c_cond @ List.map (translate_pred_m2 cenv' n) n.bn_cond;
    inner.c_group <- List.map (translate_group_key cenv' n) n.bn_group_by;
    Hashtbl.replace node_info n.bn_id (inner.c_id, cenv');
    List.iter (walk (Some inner) cenv') n.bn_children
  in
  List.iter (walk None [ (Root, root_inst) ]) m2.roots;
  (* --- Value mappings -------------------------------------------------- *)
  (* Resolve intermediate leaf [q] read by a value mapping whose driver
     context is [m2] node [nd]: the substituted source function. *)
  let resolve_vm_leaf (nd : Mapping.build_node) cenv q =
    match anchor_leaf sim2 (scope2 nd) ~require_unrepeated:true q with
    | None ->
      aerror Codes.algebra_leaf "intermediate leaf %s has no anchor"
        (Path.to_string q)
    | Some bq ->
      let vm1 = unique_vm q in
      (match vm1.vm_fn with
       | Mapping.Constant a -> `Const a
       | Mapping.Aggregate _ ->
         aerror Codes.algebra_leaf
           "intermediate leaf %s is an aggregate in the first mapping; \
            aggregates do not substitute into value mappings"
           (Path.to_string q)
       | Mapping.Identity | Mapping.Scalar _ ->
         let pd =
           match Validity.driver_of m1 vm1 with
           | Some d -> d
           | None ->
             aerror Codes.algebra_leaf
               "intermediate leaf %s has no driving builder in the first \
                mapping"
               (Path.to_string q)
         in
         let inst =
           match List.assoc_opt bq.o cenv with
           | Some i -> i
           | None -> assert false
         in
         (match inst.i_node with
          | Some p when p == pd -> ()
          | Some _ | None ->
            aerror Codes.algebra_leaf
              "the value of %s is not written by the iteration that binds it"
              (Path.to_string q));
         let resolve_source s =
           match anchor_leaf sim1 (scope1 pd) ~require_unrepeated:true s with
           | None ->
             aerror Codes.algebra_leaf
               "source %s has no anchor in the first mapping" (Path.to_string s)
           | Some bs ->
             (match lookup_env inst.i_env bs.o with
              | Some (cocc, _) -> (s, cocc)
              | None ->
                aerror Codes.algebra_ambiguous
                  "no composed binding for the anchor of source %s"
                  (Path.to_string s))
         in
         (match vm1.vm_fn with
          | Mapping.Identity -> `Ident (resolve_source (List.hd vm1.vm_sources))
          | Mapping.Scalar f -> `Scalar (f, List.map resolve_source vm1.vm_sources)
          | Mapping.Constant _ | Mapping.Aggregate _ -> assert false))
  in
  let driver2 vm2 = Validity.driver_of m2 vm2 in
  let push_expects driver_cid srcs =
    List.iter
      (fun (s, cocc) ->
        expect_vm :=
          { ve_driver = driver_cid; ve_leaf = s; ve_ru = true; ve_occ = cocc }
          :: !expect_vm)
      srcs
  in
  (* Aggregate gate: the [m1] builder segment from the aggregation
     anchor's producer [a] down to [pd] must be a pure telescope —
     single-input, condition-free, grouping-free nodes, each anchored at
     the innermost binding of its predecessor — so that its combined
     iteration is exactly the repetitions a composed aggregate over the
     source schema crosses. Returns the composed occurrence the
     aggregate's source must anchor at. *)
  let telescope ~(anchor_inst : inst) (pd : Mapping.build_node) =
    let full = Validity.parent_chain m1 pd @ [ pd ] in
    let seg =
      match anchor_inst.i_node with
      | None -> full
      | Some a ->
        (match tail_after a full with
         | Some l -> l
         | None ->
           aerror Codes.algebra_ambiguous
             "aggregated builders do not nest inside the aggregation context")
    in
    if seg = [] then
      aerror Codes.algebra_leaf
        "aggregation over a leaf of the binding element itself does not \
         unfold";
    List.iter
      (fun (x : Mapping.build_node) ->
        if List.length x.bn_inputs <> 1 then
          aerror Codes.algebra_leaf
            "aggregated builder %s joins several inputs; unfolding would \
             change the aggregated multiset"
            x.bn_id;
        if x.bn_cond <> [] then
          aerror Codes.algebra_leaf
            "aggregated builder %s filters its iteration; a composed \
             aggregate cannot reproduce the filter"
            x.bn_id;
        if x.bn_group_by <> [] then
          aerror Codes.algebra_grouping
            "aggregated builder %s groups its iteration" x.bn_id)
      seg;
    let innermost_occ (x : Mapping.build_node) =
      let ii = Hashtbl.find sim1.s_inputs (x.bn_id, 0) in
      snd (List.nth ii.ii_chain (List.length ii.ii_chain - 1))
    in
    let rec check prev = function
      | [] -> ()
      | (x : Mapping.build_node) :: rest ->
        let ii = Hashtbl.find sim1.s_inputs (x.bn_id, 0) in
        (match prev, ii.ii_anchor with
         | None, Root -> ()
         | None, B _ ->
           aerror Codes.algebra_leaf
             "aggregated builder %s is not anchored at the aggregation \
              context"
             x.bn_id
         | Some (p : Mapping.build_node), B (nid, inp, pos) ->
           let last_of_input =
             let ii_p = Hashtbl.find sim1.s_inputs (p.bn_id, inp) in
             pos = List.length ii_p.ii_chain - 1
           in
           if not (String.equal nid p.bn_id && last_of_input) then
             aerror Codes.algebra_leaf
               "aggregated builder %s skips or re-crosses an iteration of %s"
               x.bn_id p.bn_id
         | Some _, Root ->
           aerror Codes.algebra_leaf
             "aggregated builder %s re-anchors at the document root" x.bn_id)
      ;
        check (Some x) rest
    in
    check anchor_inst.i_node seg;
    let x1 = List.hd seg in
    let e_occ =
      let ii = Hashtbl.find sim1.s_inputs (x1.bn_id, 0) in
      match lookup_env anchor_inst.i_env ii.ii_anchor with
      | Some (cocc, _) -> cocc
      | None ->
        aerror Codes.algebra_ambiguous
          "no composed binding for the aggregation context"
    in
    (seg, e_occ, innermost_occ)
  in
  let translate_vm (vm2 : Mapping.value_mapping) =
    match vm2.vm_fn with
    | Mapping.Constant a ->
      Mapping.value ~fn:(Mapping.Constant a) [] vm2.vm_target
    | Mapping.Identity ->
      let nd =
        match driver2 vm2 with Some d -> d | None -> assert false
      in
      let cid, cenv = Hashtbl.find node_info nd.bn_id in
      (match resolve_vm_leaf nd cenv (List.hd vm2.vm_sources) with
       | `Const a -> Mapping.value ~fn:(Mapping.Constant a) [] vm2.vm_target
       | `Ident (s, cocc) ->
         push_expects cid [ (s, cocc) ];
         Mapping.value ~fn:Mapping.Identity [ s ] vm2.vm_target
       | `Scalar (f, srcs) ->
         push_expects cid srcs;
         Mapping.value ~fn:(Mapping.Scalar f) (List.map fst srcs) vm2.vm_target)
    | Mapping.Scalar f2 ->
      let nd =
        match driver2 vm2 with Some d -> d | None -> assert false
      in
      let cid, cenv = Hashtbl.find node_info nd.bn_id in
      let srcs =
        List.map
          (fun q ->
            match resolve_vm_leaf nd cenv q with
            | `Ident (s, cocc) -> (s, cocc)
            | `Const _ | `Scalar _ ->
              aerror Codes.algebra_leaf
                "argument %s of %s is not an identity copy; nested value \
                 functions do not substitute"
                (Path.to_string q) f2)
          vm2.vm_sources
      in
      push_expects cid srcs;
      Mapping.value ~fn:(Mapping.Scalar f2) (List.map fst srcs) vm2.vm_target
    | Mapping.Aggregate k ->
      let q = List.hd vm2.vm_sources in
      let nd_opt = driver2 vm2 in
      let cid_opt, cenv, scope =
        match nd_opt with
        | Some nd ->
          let cid, cenv = Hashtbl.find node_info nd.bn_id in
          (Some cid, cenv, scope2 nd)
        | None -> (None, [ (Root, root_inst) ], [])
      in
      let a_q =
        match anchor_leaf sim2 scope ~require_unrepeated:false q with
        | Some b -> b
        | None -> assert false (* the root always prefixes *)
      in
      let anchor_inst =
        match List.assoc_opt a_q.o cenv with
        | Some i -> i
        | None -> assert false
      in
      (match Schema.find inter q with
       | Some (Schema.Element_ref _) ->
         (* count of produced elements: one per producer binding *)
         let pq =
           match producer q with
           | Some p -> p
           | None ->
             aerror Codes.algebra_multiplicity
               "counted element %s is produced by no builder"
               (Path.to_string q)
         in
         let seg, e_occ, _ = telescope ~anchor_inst pq in
         ignore seg;
         let src = (List.hd pq.bn_inputs).in_source in
         (match cid_opt with
          | Some cid ->
            expect_vm :=
              { ve_driver = cid; ve_leaf = src; ve_ru = false; ve_occ = e_occ }
              :: !expect_vm
          | None -> ());
         Mapping.value ~fn:(Mapping.Aggregate k) [ src ] vm2.vm_target
       | Some (Schema.Attr_ref _ | Schema.Value_ref _) ->
         let vm1 = unique_vm q in
         (match vm1.vm_fn with
          | Mapping.Identity ->
            let s = List.hd vm1.vm_sources in
            let pd =
              match Validity.driver_of m1 vm1 with
              | Some d -> d
              | None ->
                aerror Codes.algebra_leaf
                  "aggregated leaf %s has no driving builder"
                  (Path.to_string q)
            in
            let _, e_occ, innermost_occ = telescope ~anchor_inst pd in
            (* the copied source must vary with [pd]'s own iteration,
               or the aggregate would see deduplicated values *)
            (match anchor_leaf sim1 (scope1 pd) ~require_unrepeated:true s with
             | Some bs when bs.o = innermost_occ pd -> ()
             | Some _ | None ->
               aerror Codes.algebra_leaf
                 "aggregated leaf %s copies a value bound above its \
                  producing iteration"
                 (Path.to_string q));
            (match cid_opt with
             | Some cid ->
               expect_vm :=
                 { ve_driver = cid; ve_leaf = s; ve_ru = false; ve_occ = e_occ }
                 :: !expect_vm
             | None -> ());
            Mapping.value ~fn:(Mapping.Aggregate k) [ s ] vm2.vm_target
          | Mapping.Constant _ | Mapping.Scalar _ | Mapping.Aggregate _ ->
            aerror Codes.algebra_leaf
              "aggregated leaf %s is not an identity copy in the first \
               mapping"
              (Path.to_string q))
       | None -> assert false (* valid m2: vm sources resolve *))
  in
  let values = List.map translate_vm m2.values in
  (* --- Assembly and verification --------------------------------------- *)
  let rec build (c : cnode) =
    Mapping.node ~id:c.c_id ?output:c.c_output ~cond:c.c_cond
      ~group_by:c.c_group
      ~children:(List.map build c.c_children)
      c.c_inputs
  in
  (* Compile adopts a CPT root under the producer of a strict prefix of
     its output — but only keyed on the root's OWN output. A composed
     root that became a context spine (nested instantiation) with its
     output deeper down would silently lose that adoption, changing the
     target nesting; reject such shapes instead. *)
  let all_cnodes =
    let rec go c = c :: List.concat_map go c.c_children in
    List.concat_map go !croots
  in
  List.iter
    (fun r ->
      if r.c_output = None then begin
        let rec sub c = c :: List.concat_map sub c.c_children in
        let mine = sub r in
        let outs = List.filter_map (fun c -> c.c_output) mine in
        let adopter o =
          List.exists
            (fun c ->
              (not (List.memq c mine))
              &&
              match c.c_output with
              | Some o' -> Path.is_prefix o' o && not (Path.equal o' o)
              | None -> false)
            all_cnodes
        in
        if List.exists adopter outs then
          aerror Codes.algebra_ambiguous
            "an unfolded submapping would need adoption under another \
             builder's output, which composition cannot express"
      end)
    !croots;
  let composed =
    Mapping.make ~source:m1.source ~target:m2.target
      ~roots:(List.map build !croots) values
  in
  (* The compiler must agree with every anchoring the instantiation
     intended; a divergence means the unfolding changed multiplicity
     (e.g. a self-join aliasing an outer binding) and the pair is
     outside the fragment. *)
  let simc = analyze composed in
  Hashtbl.iter
    (fun key expected ->
      match Hashtbl.find_opt simc.s_inputs key with
      | Some ii when ii.ii_anchor = expected -> ()
      | Some _ | None ->
        aerror Codes.algebra_ambiguous
          "unfolded iterations alias: the compiler anchors an instantiated \
           input differently from the original mapping")
    expect_anchor;
  List.iter
    (fun ve ->
      let scope = Hashtbl.find simc.s_scope ve.ve_driver in
      match anchor_leaf simc scope ~require_unrepeated:ve.ve_ru ve.ve_leaf with
      | Some b when b.o = ve.ve_occ -> ()
      | Some _ | None ->
        aerror Codes.algebra_ambiguous
          "unfolded iterations alias: source %s anchors differently in the \
           composed mapping"
          (Path.to_string ve.ve_leaf))
    !expect_vm;
  (match Compile.to_tgd_result composed with
   | Ok _ -> ()
   | Error ds ->
     let first =
       match ds with d :: _ -> d.Clip_diag.message | [] -> "unknown"
     in
     aerror Codes.algebra_ambiguous
       "composed mapping failed validity re-check: %s" first);
  composed

let compose_result m1 m2 = Clip_diag.guard (fun () -> compose_exn m1 m2)

let compose m1 m2 =
  match compose_result m1 m2 with
  | Ok m -> m
  | Error ds -> Clip_diag.fail_all ds

let compose_chain_result = function
  | [] -> invalid_arg "Clip_algebra.compose_chain_result: empty chain"
  | first :: rest ->
    List.fold_left
      (fun acc m -> Result.bind acc (fun a -> compose_result a m))
      (Ok first) rest

(* === Containment ====================================================== *)

module SM = Map.Make (String)

let rec subst_expr th = function
  | Term.Root s -> Some (Term.Root s)
  | Term.Var x ->
    (match SM.find_opt x th with Some y -> Some (Term.Var y) | None -> None)
  | Term.Proj (e, s) ->
    Option.map (fun e -> Term.Proj (e, s)) (subst_expr th e)

let rec subst_scalar th = function
  | Term.E e -> Option.map (fun e -> Term.E e) (subst_expr th e)
  | Term.Const a -> Some (Term.Const a)
  | Term.Fn (f, args) ->
    let args = List.map (subst_scalar th) args in
    if List.for_all Option.is_some args then
      Some (Term.Fn (f, List.map Option.get args))
    else None

let subst_assertion th = function
  | Tgd.St_eq (e, s) ->
    (match subst_expr th e, subst_scalar th s with
     | Some e, Some s -> Some (Tgd.St_eq (e, s))
     | _ -> None)
  | Tgd.Target_cond (e, op, a) ->
    Option.map (fun e -> Tgd.Target_cond (e, op, a)) (subst_expr th e)
  | Tgd.Agg (e, k, arg) ->
    (match subst_expr th e, subst_expr th arg with
     | Some e, Some arg -> Some (Tgd.Agg (e, k, arg))
     | _ -> None)

(* Does rule [ra] cover rule [rb] — a variable mapping from [ra] into
   [rb] under which [ra]'s universal part is among [rb]'s, its
   conditions are among [rb]'s, the target chains coincide and its
   assertions include [rb]'s? Backtracks over generator matches. *)
let covers (ra : Tgd.rule) (rb : Tgd.rule) =
  let rec match_chain th = function
    | [], [] -> Some th
    | (ga : Tgd.target_gen) :: ras, (gb : Tgd.target_gen) :: rbs ->
      (match subst_expr th ga.texpr with
       | Some te when te = gb.texpr ->
         let mode_ok =
           match ga.mode, gb.mode with
           | Tgd.Driven, Tgd.Driven | Tgd.Completion, Tgd.Completion -> true
           | Tgd.Grouped { keys = ka }, Tgd.Grouped { keys = kb } ->
             List.length ka = List.length kb
             && List.for_all2
                  (fun x y ->
                    match subst_scalar th x with
                    | Some x -> x = y
                    | None -> false)
                  ka kb
           | (Tgd.Driven | Tgd.Completion | Tgd.Grouped _), _ -> false
         in
         if mode_ok then match_chain (SM.add ga.tvar gb.tvar th) (ras, rbs)
         else None
       | Some _ | None -> None)
    | _, _ -> None
  in
  let check_rest th =
    match match_chain th (ra.r_chain, rb.r_chain) with
    | None -> false
    | Some th ->
      List.for_all
        (fun (c : Tgd.comparison) ->
          match subst_scalar th c.left, subst_scalar th c.right with
          | Some l, Some r ->
            List.exists
              (fun (d : Tgd.comparison) ->
                d.op = c.op && d.left = l && d.right = r)
              rb.r_cond
          | _ -> false)
        ra.r_cond
      && List.for_all
           (fun ab ->
             List.exists
               (fun aa ->
                 match subst_assertion th aa with
                 | Some aa -> aa = ab
                 | None -> false)
               ra.r_assertions)
           rb.r_assertions
  in
  let rec match_gens th = function
    | [] -> check_rest th
    | (g : Tgd.source_gen) :: rest ->
      (match subst_expr th g.sexpr with
       | None -> false
       | Some se ->
         List.exists
           (fun (h : Tgd.source_gen) ->
             se = h.sexpr && match_gens (SM.add g.svar h.svar th) rest)
           rb.r_foralls)
  in
  List.length ra.r_chain = List.length rb.r_chain
  && match_gens SM.empty ra.r_foralls

let compile_rules m =
  match Compile.to_tgd_result m with
  | Ok t -> Tgd.rules t
  | Error ds -> Clip_diag.fail_all ds

let contains_exn (a : Mapping.t) (b : Mapping.t) =
  if
    not
      (Schema.equal a.source b.source && Schema.equal a.target b.target)
  then
    aerror Codes.algebra_schema_mismatch
      "containment compares mappings over the same schemas";
  let ra = compile_rules a and rb = compile_rules b in
  List.for_all (fun r_b -> List.exists (fun r_a -> covers r_a r_b) ra) rb

let contains_result a b = Clip_diag.guard (fun () -> contains_exn a b)

let equiv_result a b =
  match contains_result a b with
  | Ok false -> Ok false
  | Ok true -> contains_result b a
  | Error _ as e -> e

let contains a b =
  match contains_result a b with
  | Ok r -> r
  | Error ds -> Clip_diag.fail_all ds

let equiv a b =
  match equiv_result a b with
  | Ok r -> r
  | Error ds -> Clip_diag.fail_all ds

(* === Fused pipelines ================================================== *)

module Pipeline = struct
  type decision = Fused of Mapping.t | Staged of Clip_diag.t list

  let plan = function
    | [] -> invalid_arg "Clip_algebra.Pipeline.plan: empty chain"
    | [ m ] -> Fused m
    | first :: rest ->
      let rec go acc = function
        | [] -> Fused acc
        | m :: tl ->
          (match compose_result acc m with
           | Ok c -> go c tl
           | Error ds -> Staged ds)
      in
      go first rest

  let decision_note = function
    | Fused _ -> "fusion: fused into one composed mapping"
    | Staged ds ->
      let reason =
        match ds with
        | d :: _ -> Printf.sprintf "%s: %s" d.Clip_diag.code d.Clip_diag.message
        | [] -> "no diagnostics"
      in
      Printf.sprintf "fusion: staged (%s)" reason

  let run_result ?ctx ?limits ?backend ?minimum_cardinality ?plan:plan_mode
      ms source =
    match plan ms with
    | Fused m ->
      Engine.run_result ?ctx ?limits ?backend ?minimum_cardinality
        ?plan:plan_mode m source
    | Staged _ ->
      Engine.run_staged_result ?ctx ?limits ?backend ?minimum_cardinality
        ?plan:plan_mode ms source
end
