module Path = Clip_schema.Path
module Schema = Clip_schema.Schema
module Cardinality = Clip_schema.Cardinality

type severity = Error | Warning

type issue = { severity : severity; code : string; message : string }

let issue_to_string i =
  Printf.sprintf "%s [%s]: %s"
    (match i.severity with Error -> "error" | Warning -> "warning")
    i.code i.message

(* --- Binding computation ---------------------------------------------- *)

(* The deepest element path among [ctx] that prefixes [p]. [ctx] always
   contains the schema root, so this total. *)
let deepest_prefix ctx p =
  List.fold_left
    (fun best c ->
      if Path.is_prefix c p then
        match best with
        | Some b when List.length b.Path.steps >= List.length c.Path.steps -> best
        | Some _ | None -> Some c
      else best)
    None ctx

(* Element paths implicitly iterated when drawing a builder from
   [input] within context [anchor]: the repeating elements strictly
   below the anchor, plus the input element itself. *)
let implicit_chain schema ~anchor ~input =
  let reps = Schema.repeating_strictly_between schema ~above:anchor ~below:input in
  if List.exists (Path.equal input) reps then reps else reps @ [ input ]

(* The binding paths [acc] extended with those [node]'s inputs bind. *)
let add_bindings schema acc (node : Mapping.build_node) =
  List.fold_left
    (fun acc (i : Mapping.input) ->
      match deepest_prefix acc i.in_source with
      | None -> acc @ [ i.in_source ]
      | Some anchor ->
        let chain = implicit_chain schema ~anchor ~input:i.in_source in
        List.fold_left
          (fun acc p -> if List.exists (Path.equal p) acc then acc else acc @ [ p ])
          acc chain)
    acc node.bn_inputs

(* --- CPT navigation --------------------------------------------------- *)

(* Where a build node sits in its CPT: its ancestors, outermost first,
   and the source binding paths in scope at its parent ([outer]) and at
   the node itself ([inner]). *)
type scope = {
  node : Mapping.build_node;
  chain : Mapping.build_node list;
  outer : Path.t list;
  inner : Path.t list;
}

(* The scope of every node of [m], in preorder, each binding list
   extending its parent's. A node reachable twice keeps the scope of
   its first occurrence, the one a search from the roots finds. *)
let scopes (m : Mapping.t) =
  let rec go rev_chain outer acc (node : Mapping.build_node) =
    let inner = add_bindings m.source outer node in
    let acc =
      if List.exists (fun s -> s.node == node) acc then acc
      else { node; chain = List.rev rev_chain; outer; inner } :: acc
    in
    List.fold_left (go (node :: rev_chain) inner) acc node.bn_children
  in
  List.rev (List.fold_left (go [] [ Schema.root_path m.source ]) [] m.roots)

let scope_in scopes n = List.find_opt (fun s -> s.node == n) scopes

let parent_chain m n =
  match scope_in (scopes m) n with Some s -> s.chain | None -> []

let binding_paths (m : Mapping.t) (n : Mapping.build_node) =
  match scope_in (scopes m) n with
  | Some s -> s.inner
  | None -> add_bindings m.source [ Schema.root_path m.source ] n

(* The nearest output-bearing node of [chain], if any. *)
let nearest_output chain =
  List.fold_left
    (fun acc (node : Mapping.build_node) ->
      if Option.is_some node.bn_output then Some node else acc)
    None chain

let is_anchor schema ~binding ~leaf =
  Path.is_prefix binding (Path.element_of leaf)
  &&
  match Schema.repeating_strictly_between schema ~above:binding ~below:leaf with
  | [] -> true
  | _ :: _ -> false

let anchor_for schema ~bindings ~leaf =
  List.fold_left
    (fun best b ->
      if is_anchor schema ~binding:b ~leaf then
        match best with
        | Some p when List.length p.Path.steps >= List.length b.Path.steps -> best
        | Some _ | None -> Some b
      else best)
    None bindings

(* --- Driver computation ----------------------------------------------- *)

(* The driver among [nodes]: the node whose output is the deepest
   element prefix of the target leaf, the first such node on a tie. *)
let driver_among nodes (vm : Mapping.value_mapping) =
  let target_elem = Path.element_of (Path.element_of vm.vm_target) in
  let depth (n : Mapping.build_node) =
    match n.bn_output with Some out -> List.length out.steps | None -> -1
  in
  List.fold_left
    (fun best (n : Mapping.build_node) ->
      match n.bn_output, best with
      | Some out, _ when not (Path.is_prefix out target_elem) -> best
      | None, _ -> best
      | Some _, Some b when depth b >= depth n -> best
      | Some _, (Some _ | None) -> Some n)
    None nodes

let driver_of (m : Mapping.t) vm = driver_among (Mapping.all_nodes m) vm

(* --- The checks -------------------------------------------------------- *)

let check (m : Mapping.t) =
  let issues = ref [] in
  let add severity code fmt =
    Printf.ksprintf (fun message -> issues := { severity; code; message } :: !issues) fmt
  in
  let nodes = Mapping.all_nodes m in
  let scopes = scopes m in
  let chain_of n = match scope_in scopes n with Some s -> s.chain | None -> [] in

  (* Unique node labels. *)
  ignore
    (List.fold_left
       (fun seen (n : Mapping.build_node) ->
         if List.exists (String.equal n.bn_id) seen then
           add Error "duplicate-node" "two build nodes share the label %S" n.bn_id;
         n.bn_id :: seen)
       [] nodes);

  (* Per-node structural checks. *)
  List.iter
    (fun (n : Mapping.build_node) ->
      if List.is_empty n.bn_inputs then
        add Error "no-input" "build node %s has no incoming builder" n.bn_id;
      List.iter
        (fun (i : Mapping.input) ->
          match Schema.find_element m.source i.in_source with
          | Some _ -> ()
          | None ->
            add Error "bad-input" "build node %s: %s is not a source element"
              n.bn_id
              (Path.to_string i.in_source))
        n.bn_inputs;
      (match n.bn_output with
       | Some out ->
         (match Schema.find_element m.target out with
          | Some _ -> ()
          | None ->
            add Error "bad-output" "build node %s: %s is not a target element"
              n.bn_id (Path.to_string out))
       | None -> ());
      (* Variables usable in this node's label: its own inputs plus
         ancestors' inputs. *)
      let in_scope =
        List.concat_map Mapping.node_variables (chain_of n)
        @ Mapping.node_variables n
      in
      let check_var where v =
        if not (List.exists (String.equal v) in_scope) then
          add Error "unbound-var" "build node %s: %s references unbound variable $%s"
            n.bn_id where v
      in
      List.iter
        (fun (p : Mapping.predicate) ->
          let check_operand = function
            | Mapping.O_path (v, _) -> check_var "a condition" v
            | Mapping.O_const _ -> ()
          in
          check_operand p.p_left;
          check_operand p.p_right)
        n.bn_cond;
      List.iter (fun (v, _) -> check_var "a grouping attribute" v) n.bn_group_by)
    nodes;

  (* Safe builders. *)
  List.iter
    (fun (n : Mapping.build_node) ->
      match n.bn_output with
      | None -> ()
      | Some out ->
        (match Schema.find_element m.target out with
         | None -> () (* already reported *)
         | Some telem ->
           let ctx =
             match scope_in scopes n with
             | Some s -> s.outer
             | None -> [ Schema.root_path m.source ]
           in
           let input_multiple (i : Mapping.input) =
             match deepest_prefix ctx i.in_source with
             | None -> true
             | Some anchor ->
               not
                 (List.is_empty
                    (Schema.repeating_strictly_between m.source ~above:anchor
                       ~below:i.in_source))
           in
           let many =
             List.length n.bn_inputs > 1 || List.exists input_multiple n.bn_inputs
           in
           if many && not (Cardinality.is_repeating telem.card) then
             add Error "unsafe-builder"
               "build node %s: a repeating iteration feeds non-repeating target %s %s"
               n.bn_id (Path.to_string out)
               (Cardinality.to_string telem.card)))
    nodes;

  (* CPT alignment with the target schema. *)
  List.iter
    (fun (n : Mapping.build_node) ->
      match n.bn_output, nearest_output (chain_of n) with
      | Some out, Some anc ->
        let anc_out = Option.get anc.bn_output in
        if not (Path.is_prefix anc_out out && not (Path.equal anc_out out)) then
          add Error "cpt-misaligned"
            "build node %s: output %s is not nested below its context's output %s"
            n.bn_id (Path.to_string out) (Path.to_string anc_out)
      | (Some _ | None), _ -> ())
    nodes;

  (* Group keys resolve to source leaves under the tagged input. *)
  List.iter
    (fun (n : Mapping.build_node) ->
      List.iter
        (fun ((v, steps) : Mapping.group_key) ->
          let input =
            List.find_opt
              (fun (i : Mapping.input) ->
                match i.in_var with Some x -> String.equal x v | None -> false)
              n.bn_inputs
          in
          match input with
          | None -> () (* unbound-var already reported unless bound above *)
          | Some i ->
            let leaf = Path.append i.in_source steps in
            if not (Schema.mem m.source leaf) then
              add Error "bad-group-key"
                "build node %s: grouping attribute %s does not resolve" n.bn_id
                (Path.to_string leaf))
        n.bn_group_by)
    nodes;

  (* Value mappings. *)
  List.iter
    (fun (vm : Mapping.value_mapping) ->
      (* Named only when an issue is reported. *)
      let vm_name () = "value mapping to " ^ Path.to_string vm.vm_target in
      (match Schema.find m.target vm.vm_target with
       | Some (Schema.Attr_ref _ | Schema.Value_ref _) -> ()
       | Some (Schema.Element_ref _) | None ->
         add Error "bad-vm-target" "%s: the target is not a leaf of the target schema"
           (vm_name ()));
      let source_ok (p : Path.t) =
        match Schema.find m.source p, vm.vm_fn with
        | Some (Schema.Attr_ref _ | Schema.Value_ref _), _ -> true
        | Some (Schema.Element_ref _), Mapping.Aggregate Clip_tgd.Tgd.Count -> true
        | (Some (Schema.Element_ref _) | None), _ -> false
      in
      List.iter
        (fun p ->
          if not (source_ok p) then
            add Error "bad-vm-source" "%s: source %s does not resolve to a leaf"
              (vm_name ()) (Path.to_string p))
        vm.vm_sources;
      (match vm.vm_fn with
       | Mapping.Identity when List.length vm.vm_sources <> 1 ->
         add Error "bad-vm-arity" "%s: an identity value mapping needs exactly one source"
           (vm_name ())
       | Mapping.Constant _ when not (List.is_empty vm.vm_sources) ->
         add Error "bad-vm-arity" "%s: a constant value mapping takes no sources"
           (vm_name ())
       | Mapping.Aggregate _ when List.length vm.vm_sources <> 1 ->
         add Error "bad-vm-arity" "%s: an aggregate value mapping needs exactly one source"
           (vm_name ())
       | Mapping.Identity | Mapping.Constant _ | Mapping.Scalar _ | Mapping.Aggregate _
         -> ());
      (* Type compatibility for identity copies. *)
      (match vm.vm_fn, vm.vm_sources with
       | Mapping.Identity, [ src ] ->
         (match Schema.leaf_type m.source src, Schema.leaf_type m.target vm.vm_target with
          | Some st, Some tt
            when not (Clip_schema.Atomic_type.accepts tt (Clip_schema.Atomic_type.default_atom st)) ->
            add Warning "vm-type"
              "%s: copying a %s value into a %s leaf may not validate" (vm_name ())
              (Clip_schema.Atomic_type.to_string st) (Clip_schema.Atomic_type.to_string tt)
          | _ -> ())
       | _ -> ());
      (* Driver and anchors (aggregates are exempt, Sec. III-B). *)
      match vm.vm_fn with
      | Mapping.Aggregate _ -> ()
      | Mapping.Identity | Mapping.Constant _ | Mapping.Scalar _ ->
        (match driver_among nodes vm with
         | None ->
           if not (List.is_empty m.roots) then
             add Error "no-driver"
               "%s: no builder output lies on the path from the target leaf to the root"
               (vm_name ())
           else
             add Warning "no-driver"
               "%s: the mapping has no builders; use the generator to infer them"
               (vm_name ())
         | Some driver ->
           let bindings =
             match scope_in scopes driver with Some s -> s.inner | None -> []
           in
           List.iter
             (fun sv ->
               if Schema.mem m.source sv then
                 match anchor_for m.source ~bindings ~leaf:sv with
                 | Some _ -> ()
                 | None ->
                   add Error "unanchored-source"
                     "%s: source %s sits inside a repeating element not bounded by a builder"
                     (vm_name ()) (Path.to_string sv))
             vm.vm_sources))
    m.values;

  (* Underspecification (Sec. II-A): a mapping may leave parts of the
     target schema unpopulated — "not a problem" when those parts are
     optional (Fig. 3's [area]), but worth flagging when a {e required}
     leaf or child of a built element is produced by nothing. *)
  let produced_leaf leaf =
    List.exists
      (fun (vm : Mapping.value_mapping) -> Path.equal vm.vm_target leaf)
      m.values
  in
  let built_element p =
    List.exists
      (fun (n : Mapping.build_node) ->
        match n.bn_output with Some out -> Path.equal out p | None -> false)
      nodes
  in
  List.iter
    (fun (n : Mapping.build_node) ->
      match n.bn_output with
      | None -> ()
      | Some out ->
        (match Schema.find_element m.target out with
         | None -> ()
         | Some elem ->
           List.iter
             (fun (a : Schema.attribute) ->
               if a.attr_required && not (produced_leaf (Path.attr out a.attr_name))
               then
                 add Warning "underspecified"
                   "build node %s: required attribute %s is produced by no value \
                    mapping"
                   n.bn_id
                   (Path.to_string (Path.attr out a.attr_name)))
             elem.attrs;
           (match elem.value with
            | Some _ when not (produced_leaf (Path.value out)) ->
              add Warning "underspecified"
                "build node %s: the required text of %s is produced by no value \
                 mapping"
                n.bn_id (Path.to_string out)
            | Some _ | None -> ());
           List.iter
             (fun (c : Schema.element) ->
               let cp = Path.child out c.name in
               if
                 c.card.min > 0
                 && (not (Cardinality.is_repeating c.card))
                 && (not (built_element cp))
                 && not
                      (List.exists
                         (fun (vm : Mapping.value_mapping) ->
                           Path.is_prefix cp (Path.element_of vm.vm_target))
                         m.values)
               then
                 add Warning "underspecified"
                   "build node %s: required child %s is produced by nothing"
                   n.bn_id (Path.to_string cp))
             elem.children))
    nodes;

  let errors, warnings =
    List.partition (fun i -> i.severity = Error) (List.rev !issues)
  in
  errors @ warnings

let is_valid m = List.for_all (fun i -> i.severity <> Error) (check m)
