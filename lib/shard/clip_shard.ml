(* Single-document sharding: decide from the compiled tgd and the two
   schemas where a source instance may be cut into independently
   evaluable shard documents, cut it straight off a byte stream, and
   merge the per-shard target instances back into exactly the
   whole-document result.

   The analysis is deliberately conservative: {!plan} returns
   [Sharded] only when it can prove, from static structure alone, that
   per-shard evaluation + {!merge} reproduces the sequential
   whole-document output byte for byte; every doubt is a [Whole]
   fallback carrying a human-readable reason (surfaced by EXPLAIN).

   Safety argument, in brief (DESIGN.md "Streaming ingestion and
   sharding" carries the long form):

   - the {e cut} is the topmost repeating element (source schema
     cardinality) on the path of the {e first} universal generator of
     the unique quantified subtree root. Shards partition the cut
     element's occurrences in document order, so the outermost binding
     loop enumerates exactly the whole-document bindings, in order,
     shard by shard;
   - every other source-side path is either rooted in a bound variable
     (evaluated inside one binding, hence inside one shard) or a
     root-rooted path that stays outside the cut subtree — {e
     prologue} context, flagged [needs_prologue]: a shard cut off the
     byte stream does not carry it, so the engine evaluates such a
     mapping whole. A root-rooted path that re-enters the cut subtree
     anywhere else would see only the shard's slice, so it forces
     [Whole];
   - on the target side, elements created per binding ([Driven] mode)
     are disjoint across shards and concatenate in binding order,
     while completion-created elements (one per parent context) are
     re-created by every shard and must be {e unified} by the merge.
     The analysis computes the set of absolute target paths the merge
     must unify; a [group-by] attached to a shard-shared parent (its
     groups span shards) and a path both driven and completed force
     [Whole]. *)

module Path = Clip_schema.Path
module Schema = Clip_schema.Schema
module Tgd = Clip_tgd.Tgd
module Term = Clip_tgd.Term
module Node = Clip_xml.Node
module Atom = Clip_xml.Atom
module Stream = Clip_xml.Stream

type cut = {
  cut_path : Path.t;
  containers : string list;
  unit_tag : string;
  needs_prologue : bool;
  unify : string list;
}

type decision = Sharded of cut | Whole of string

exception Unsafe of string

let fallback fmt = Printf.ksprintf (fun s -> raise (Unsafe s)) fmt

(* --- Shardability analysis --------------------------------------------- *)

let rec scalar_exprs = function
  | Term.E e -> [ e ]
  | Term.Const _ -> []
  | Term.Fn (_, args) -> List.concat_map scalar_exprs args

(* The absolute schema path of a root-rooted expression; [None] for
   variable-rooted ones. *)
let expr_path e =
  match Term.head e with
  | Term.Root r ->
    (try Some (r, Path.make r (Term.steps e))
     with Invalid_argument _ -> None)
  | _ -> None

let split_last l =
  match List.rev l with
  | [] -> None
  | last :: rev_init -> Some (List.rev rev_init, last)

(* Resolution status of a target path: [Anchored] means it hangs at or
   below a per-binding ([Driven]) element — such subtrees are disjoint
   across shards and the merge never descends into them; [Spine rev]
   is an absolute element-tag chain below the target root (innermost
   first), shared across shards and subject to unification. *)
type tstatus = Anchored | Spine of string list

let join rev = String.concat "/" (List.rev rev)

let plan ~source ~target ?(minimum_cardinality = true) (tgd : Tgd.t) =
  try
    if not minimum_cardinality then
      fallback
        "the universal-solution ablation creates one element per mapped \
         value, which only the whole-document evaluation orders correctly";
    let sroot = (Schema.root_path source).Path.root in
    let troot = (Schema.root_path target).Path.root in
    (* 1. The unique quantified subtree root, reached through
       unquantified ancestors (which may only complete elements). *)
    let rec binding_root (n : Tgd.t) =
      if n.foralls <> [] then n
      else begin
        List.iter
          (fun (g : Tgd.target_gen) ->
            match g.mode with
            | Tgd.Completion -> ()
            | Tgd.Driven | Tgd.Grouped _ ->
              fallback
                "an unquantified mapping creates a fresh element per \
                 evaluation, which would duplicate per shard")
          n.exists;
        match n.children with
        | [ c ] -> binding_root c
        | [] -> fallback "the mapping quantifies over no repeated element"
        | _ :: _ :: _ ->
          fallback
            "multiple independent quantified submappings would interleave \
             their outputs across shards"
      end
    in
    let broot = binding_root tgd in
    (* 2. The cut: the first universal generator of the binding root
       must be a source-rooted path through a repeating element; the
       topmost repeating element on its chain is the shard unit. *)
    let first =
      match broot.foralls with g :: _ -> g | [] -> assert false
    in
    let cut_path =
      match expr_path first.sexpr with
      | Some (r, p) when String.equal r sroot ->
        let ep = Path.element_of p in
        (match
           List.find_opt
             (fun pre -> Schema.is_repeating source pre)
             (Path.element_prefixes ep)
         with
         | Some c -> c
         | None ->
           fallback
             "the outermost source loop (%s) iterates no repeated element"
             (Term.expr_to_string first.sexpr))
      | _ ->
        fallback "the outermost source loop is not rooted at the source schema"
    in
    (* 3. Source-side scan: no other path may enter the cut subtree;
       any surviving root-rooted path is prologue, which only the
       whole document carries. *)
    let needs_prologue = ref false in
    let check_source ~allow_cut e =
      match expr_path e with
      | None -> ()
      | Some (r, p) ->
        if String.equal r sroot then begin
          let ep = Path.element_of p in
          if Path.is_prefix cut_path ep then begin
            if not allow_cut then
              fallback
                "%s reads the repeated region outside the shard loop"
                (Term.expr_to_string e)
          end
          else needs_prologue := true
        end
    in
    let check_scalar s = List.iter (check_source ~allow_cut:false) (scalar_exprs s) in
    (* 4. Target-side scan: compute the unify set and reject shapes
       whose creation order or grouping spans shards. *)
    let unify = ref [] in
    let add_unify p = if not (List.mem p !unify) then unify := p :: !unify in
    let driven = ref [] in
    let add_driven p rank =
      match List.assoc_opt p !driven with
      | Some r when r <> rank ->
        fallback
          "two submappings both create <%s> elements; their creation order \
           interleaves across shards"
          p
      | Some _ -> ()
      | None -> driven := (p, rank) :: !driven
    in
    let child_tags steps =
      List.map
        (function
          | Path.Child t -> t
          | Path.Attr _ | Path.Value ->
            fallback "a target generator path ends in a leaf step")
        steps
    in
    let resolve env e =
      match Term.head e with
      | Term.Root r when String.equal r troot -> Spine []
      | Term.Root r -> fallback "a target path is rooted at %s, not the target schema" r
      | Term.Var v ->
        (match List.assoc_opt v env with
         | Some st -> st
         | None -> fallback "a target path is rooted in an unbound variable %s" v)
      | Term.Proj _ -> assert false
    in
    let process_gen rank env (g : Tgd.target_gen) =
      let base = resolve env g.texpr in
      match base with
      | Anchored -> (g.tvar, Anchored) :: env
      | Spine rev ->
        (match split_last (child_tags (Term.steps g.texpr)) with
         | None ->
           fallback "target generator %s binds the target root itself" g.tvar
         | Some (inter, last) ->
           (* Intermediate steps materialise as completion singletons. *)
           let rev =
             List.fold_left
               (fun rev t ->
                 let rev = t :: rev in
                 add_unify (join rev);
                 rev)
               rev inter
           in
           (match g.mode with
            | Tgd.Driven ->
              add_driven (join (last :: rev)) rank;
              (g.tvar, Anchored) :: env
            | Tgd.Completion ->
              let rev = last :: rev in
              add_unify (join rev);
              (g.tvar, Spine rev) :: env
            | Tgd.Grouped _ ->
              fallback
                "group-by under a shard-shared parent: its groups span shards"))
    in
    let process_write env e =
      match resolve env e with
      | Anchored -> ()
      | Spine rev ->
        (* Leading element steps of a leaf write are completion
           singletons; trailing leaf steps merge as attributes/text. *)
        let rec elements rev = function
          | Path.Child t :: rest ->
            let rev = t :: rev in
            add_unify (join rev);
            elements rev rest
          | (Path.Attr _ | Path.Value) :: _ | [] -> ()
        in
        elements rev (Term.steps e)
    in
    let rank = ref 0 in
    let rec walk env (n : Tgd.t) =
      incr rank;
      let r = !rank in
      List.iteri
        (fun i (g : Tgd.source_gen) ->
          check_source ~allow_cut:(n == broot && i = 0) g.sexpr)
        n.foralls;
      List.iter
        (fun (c : Tgd.comparison) ->
          check_scalar c.left;
          check_scalar c.right)
        n.cond;
      List.iter
        (fun (g : Tgd.target_gen) ->
          match g.mode with
          | Tgd.Grouped { keys } -> List.iter check_scalar keys
          | Tgd.Driven | Tgd.Completion -> ())
        n.exists;
      List.iter
        (function
          | Tgd.St_eq (_, s) -> check_scalar s
          | Tgd.Agg (_, _, arg) -> check_source ~allow_cut:false arg
          | Tgd.Target_cond _ -> ())
        n.assertions;
      let env = List.fold_left (process_gen r) env n.exists in
      List.iter
        (function
          | Tgd.St_eq (e, _) | Tgd.Target_cond (e, _, _) | Tgd.Agg (e, _, _) ->
            process_write env e)
        n.assertions;
      List.iter (walk env) n.children
    in
    walk [] tgd;
    List.iter
      (fun (p, _) ->
        if List.mem p !unify then
          fallback "<%s> is both completion-merged and created per binding" p)
      !driven;
    (* 5. The container chain above the unit. *)
    let prefixes = Path.element_prefixes cut_path in
    let tag_of p =
      match Path.last_step p with
      | Some (Path.Child t) -> t
      | Some (Path.Attr _ | Path.Value) | None -> p.Path.root
    in
    let tags = List.map tag_of prefixes in
    (match split_last tags with
     | Some (containers, unit_tag) ->
       Sharded
         {
           cut_path;
           containers;
           unit_tag;
           needs_prologue = !needs_prologue;
           unify = List.sort_uniq compare !unify;
         }
     | None -> Whole "the cut path is empty")
  with Unsafe reason -> Whole reason

let decision_note = function
  | Sharded c ->
    Printf.sprintf "sharding: cut at %s (unit <%s>%s)"
      (Path.to_string c.cut_path) c.unit_tag
      (if c.needs_prologue then ", the mapping reads the document prologue"
       else ", shards carry the container spine only")
  | Whole reason -> Printf.sprintf "sharding: whole-document fallback - %s" reason

(* --- Cutting a byte stream --------------------------------------------- *)

type step = Shard of Node.t | Fallback_doc of Node.t | Exhausted

type cutter = {
  csrc : Stream.source;
  ccut : cut;
  cbudget : int;
  (* one slot per container level: has the first match been entered /
     what were its attributes *)
  cmatched : bool array;
  cattrs : (string * Atom.t) list array;
  mutable clevel : int; (* matched-chain prefix currently open *)
  mutable copen : int; (* total open elements *)
  mutable cacc : Node.t list; (* current group, reversed *)
  mutable cacc_bytes : int;
  mutable cemitted : bool;
  mutable cdone : bool;
}

let cutter cut ~budget_bytes src =
  let n = List.length cut.containers in
  {
    csrc = src;
    ccut = cut;
    cbudget = max 1 budget_bytes;
    cmatched = Array.make (max 1 n) false;
    cattrs = Array.make (max 1 n) [];
    clevel = 0;
    copen = 0;
    cacc = [];
    cacc_bytes = 0;
    cemitted = false;
    cdone = false;
  }

let ncontainers c = List.length c.ccut.containers

(* The shard document: the matched container spine (attributes kept)
   wrapped around the group. Unmatched deeper containers simply yield
   a spine that stops early — the mapping then binds nothing, exactly
   like the whole document would. *)
let emit c group =
  let n = ncontainers c in
  let deepest =
    let rec go i = if i < n && c.cmatched.(i) then go (i + 1) else i in
    go 0
  in
  let rec wrap i =
    let tag = List.nth c.ccut.containers i in
    if i = deepest - 1 then
      Node.elem ~attrs:c.cattrs.(i) tag (if deepest = n then group else [])
    else Node.elem ~attrs:c.cattrs.(i) tag [ wrap (i + 1) ]
  in
  if deepest = 0 then Node.elem (List.hd c.ccut.containers) []
  else wrap 0

(* Skip a whole subtree (events balanced Start/End). The Start has
   already been consumed. *)
let skip_subtree c =
  let rec go depth =
    if depth = 0 then Ok ()
    else
      match Stream.next_result c.csrc with
      | Error ds -> Error ds
      | Ok None -> Ok () (* unreachable: the lexer errors first *)
      | Ok (Some (Stream.Start _)) -> go (depth + 1)
      | Ok (Some (Stream.End _)) -> go (depth - 1)
      | Ok (Some (Stream.Text _)) -> go depth
  in
  go 1

let rec next_shard c =
  if c.cdone then Ok Exhausted
  else
    match Stream.next_result c.csrc with
    | Error ds ->
      c.cdone <- true;
      Error ds
    | Ok None ->
      c.cdone <- true;
      if c.cacc <> [] || not c.cemitted then begin
        let shard = emit c (List.rev c.cacc) in
        c.cacc <- [];
        c.cacc_bytes <- 0;
        c.cemitted <- true;
        Ok (Shard shard)
      end
      else Ok Exhausted
    | Ok (Some (Stream.Text _)) -> next_shard c
    | Ok (Some (Stream.End _)) ->
      c.copen <- c.copen - 1;
      if c.clevel > c.copen then c.clevel <- c.copen;
      next_shard c
    | Ok (Some (Stream.Start { tag; attrs })) ->
      let n = ncontainers c in
      if
        c.copen = c.clevel && c.clevel < n
        && (not c.cmatched.(c.clevel))
        && String.equal tag (List.nth c.ccut.containers c.clevel)
      then begin
        c.cmatched.(c.clevel) <- true;
        c.cattrs.(c.clevel) <- attrs;
        c.clevel <- c.clevel + 1;
        c.copen <- c.copen + 1;
        next_shard c
      end
      else if
        c.copen = c.clevel && c.clevel = n && String.equal tag c.ccut.unit_tag
      then begin
        let p0 = Stream.pos c.csrc in
        match Stream.subtree_result c.csrc ~tag ~attrs with
        | Error ds ->
          c.cdone <- true;
          Error ds
        | Ok u ->
          let bytes =
            Stream.pos c.csrc - p0 + String.length tag + 2
          in
          c.cacc <- u :: c.cacc;
          c.cacc_bytes <- c.cacc_bytes + bytes;
          if c.cacc_bytes >= c.cbudget then begin
            let shard = emit c (List.rev c.cacc) in
            c.cacc <- [];
            c.cacc_bytes <- 0;
            c.cemitted <- true;
            Ok (Shard shard)
          end
          else next_shard c
      end
      else if c.copen = 0 then begin
        (* Root tag does not open the container chain: materialise the
           whole document and let the caller run it unsharded. *)
        match Stream.subtree_result c.csrc ~tag ~attrs with
        | Error ds ->
          c.cdone <- true;
          Error ds
        | Ok doc ->
          c.cdone <- true;
          (match Stream.next_result c.csrc with
           | Error ds -> Error ds
           | Ok (Some _) -> assert false
           | Ok None -> Ok (Fallback_doc doc))
      end
      else begin
        match skip_subtree c with
        | Error ds ->
          c.cdone <- true;
          Error ds
        | Ok () -> next_shard c
      end

(* --- Merging shard outputs --------------------------------------------- *)

(* Shard outputs concatenate on the unified spine: an element whose
   absolute path is in the unify set is created once per shard by
   completion semantics and must collapse to one element (attributes
   and text must agree — a disagreement means the whole-document run
   would have raised the same conflicting-assignment error); all other
   children are per-binding and append in shard order, which is
   document order of the bindings. First-occurrence positions
   reproduce the whole-document creation order because completion
   elements are created at their first contributing binding. *)
type mnode = {
  mtag : string;
  mutable mattrs : (string * Atom.t) list; (* reversed *)
  mutable mtext : Atom.t option;
  mutable mkids : mkid list; (* reversed *)
  mutable msingles : (string * mnode) list;
}

and mkid = Munified of mnode | Mleaf of Node.t

type merger = {
  munify : string list;
  mutable mroot : mnode option;
}

let merger ~unify = { munify = unify; mroot = None }

let merge_error fmt =
  Printf.ksprintf
    (fun s ->
      Clip_diag.fail
        (Clip_diag.error ~code:Clip_diag.Codes.tgd_eval
           ("shard merge: " ^ s)))
    fmt

let fresh_mnode tag = { mtag = tag; mattrs = []; mtext = None; mkids = []; msingles = [] }

let atom_eq (a : Atom.t) (b : Atom.t) = a = b

let rec merge_elem mg path (m : mnode) (e : Node.element) =
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name m.mattrs with
      | Some v0 ->
        if not (atom_eq v0 v) then
          merge_error "shards disagree on @%s of <%s>" name m.mtag
      | None -> m.mattrs <- (name, v) :: m.mattrs)
    e.Node.attrs;
  List.iter
    (fun child ->
      match child with
      | Node.Text a ->
        (match m.mtext with
         | None -> m.mtext <- Some a
         | Some a0 ->
           if not (atom_eq a0 a) then
             merge_error "shards disagree on the text of <%s>" m.mtag)
      | Node.Element ce ->
        let cpath =
          if String.equal path "" then ce.Node.tag
          else path ^ "/" ^ ce.Node.tag
        in
        if List.mem cpath mg.munify then begin
          match List.assoc_opt ce.Node.tag m.msingles with
          | Some cm -> merge_elem mg cpath cm ce
          | None ->
            let cm = fresh_mnode ce.Node.tag in
            m.msingles <- (ce.Node.tag, cm) :: m.msingles;
            m.mkids <- Munified cm :: m.mkids;
            merge_elem mg cpath cm ce
        end
        else m.mkids <- Mleaf child :: m.mkids)
    e.Node.children

let merge_into mg (shard_output : Node.t) =
  match shard_output with
  | Node.Text _ -> merge_error "a shard produced a bare text node"
  | Node.Element e ->
    let m =
      match mg.mroot with
      | Some m ->
        if not (String.equal m.mtag e.Node.tag) then
          merge_error "shards disagree on the target root tag";
        m
      | None ->
        let m = fresh_mnode e.Node.tag in
        mg.mroot <- Some m;
        m
    in
    merge_elem mg "" m e

let rec mnode_to_node (m : mnode) =
  let kids =
    List.rev_map
      (function Munified cm -> mnode_to_node cm | Mleaf n -> n)
      m.mkids
  in
  let kids = match m.mtext with None -> kids | Some a -> Node.text a :: kids in
  Node.elem ~attrs:(List.rev m.mattrs) m.mtag kids

let merged mg = Option.map mnode_to_node mg.mroot
