type symbols = {
  forall : string;
  exists : string;
  arrow : string;
  member : string;
  bottom : string;
}

let unicode_syms =
  { forall = "\xe2\x88\x80"; (* ∀ *)
    exists = "\xe2\x88\x83"; (* ∃ *)
    arrow = "\xe2\x86\x92"; (* → *)
    member = "\xe2\x88\x88"; (* ∈ *)
    bottom = "\xe2\x8a\xa5" (* ⊥ *) }

let ascii_syms =
  { forall = "forall"; exists = "exists"; arrow = "->"; member = "in"; bottom = "_|_" }

let render sy (m : Tgd.t) =
  let buf = Buffer.create 256 in
  let str = Buffer.add_string buf in
  let pad ind =
    for _ = 1 to ind do
      Buffer.add_char buf ' '
    done
  in
  let sep_list sep f xs =
    List.iteri
      (fun i x ->
        if i > 0 then str sep;
        f x)
      xs
  in
  let generator var expr =
    str var;
    Buffer.add_char buf ' ';
    str sy.member;
    Buffer.add_char buf ' ';
    str (Term.expr_to_string expr)
  in
  let comparison (c : Tgd.comparison) =
    str (Term.scalar_to_string c.left);
    Buffer.add_char buf ' ';
    str (Tgd.cmp_op_to_string c.op);
    Buffer.add_char buf ' ';
    str (Term.scalar_to_string c.right)
  in
  (* Body lines: group-by Skolems, then assertions. *)
  let skolem (g : Tgd.target_gen) keys () =
    str g.tvar;
    str " = group-by(";
    str sy.bottom;
    str ", [";
    sep_list ", " (fun k -> str (Term.scalar_to_string k)) keys;
    str "])"
  in
  let assertion (a : Tgd.assertion) () =
    match a with
    | Tgd.St_eq (e, s) ->
      str (Term.expr_to_string e);
      str " = ";
      str (Term.scalar_to_string s)
    | Tgd.Target_cond (e, op, atom) ->
      str (Term.expr_to_string e);
      Buffer.add_char buf ' ';
      str (Tgd.cmp_op_to_string op);
      Buffer.add_char buf ' ';
      str (Clip_xml.Atom.to_string atom)
    | Tgd.Agg (e, kind, arg) ->
      str (Term.expr_to_string e);
      str " = ";
      str (Tgd.agg_kind_to_string kind);
      Buffer.add_char buf '(';
      str (Term.expr_to_string arg);
      Buffer.add_char buf ')'
  in
  let rec go ind (m : Tgd.t) =
    pad ind;
    (match m.foralls with
     | [] -> str sy.arrow
     | foralls ->
       str sy.forall;
       Buffer.add_char buf ' ';
       sep_list ", " (fun (g : Tgd.source_gen) -> generator g.svar g.sexpr) foralls;
       (match m.cond with
        | [] -> ()
        | cs ->
          str " | ";
          sep_list ", " comparison cs);
       Buffer.add_char buf ' ';
       str sy.arrow);
    (match m.exists with
     | [] -> ()
     | exists ->
       Buffer.add_char buf ' ';
       str sy.exists;
       Buffer.add_char buf ' ';
       sep_list ", " (fun (g : Tgd.target_gen) -> generator g.tvar g.texpr) exists);
    let body =
      List.filter_map
        (fun (g : Tgd.target_gen) ->
          match g.mode with
          | Tgd.Grouped { keys } -> Some (skolem g keys)
          | Tgd.Driven | Tgd.Completion -> None)
        m.exists
      @ List.map assertion m.assertions
    in
    let has_children = not (List.is_empty m.children) in
    if has_children || not (List.is_empty body) then str " |";
    let last = List.length body - 1 in
    List.iteri
      (fun i line ->
        Buffer.add_char buf '\n';
        pad ind;
        str "  ";
        line ();
        if i < last || has_children then Buffer.add_char buf ',')
      body;
    let last = List.length m.children - 1 in
    List.iteri
      (fun i child ->
        Buffer.add_char buf '\n';
        pad ind;
        str "  [\n";
        go (ind + 3) child;
        Buffer.add_char buf ']';
        if i < last then Buffer.add_char buf ',')
      m.children
  in
  let fns =
    List.filter
      (fun f -> String.equal f "group-by" || Option.is_some (Tgd.agg_kind_of_string f))
      (Tgd.function_symbols m)
  in
  (match fns with
   | [] -> go 0 m
   | fns ->
     str sy.exists;
     Buffer.add_char buf ' ';
     sep_list ", " str fns;
     str " (\n";
     go 0 m;
     Buffer.add_char buf ')');
  Buffer.contents buf

let to_string ?(unicode = true) m =
  render (if unicode then unicode_syms else ascii_syms) m

let pp fmt m = Format.pp_print_string fmt (to_string m)
