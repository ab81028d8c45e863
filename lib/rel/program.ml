module Tgd = Clip_tgd.Tgd
module Term = Clip_tgd.Term
module Path = Clip_schema.Path

type t = {
  source_root : string;
  target_root : string;
  shape : Shape.t;
  tgd : Tgd.t;
}

let diag fmt =
  Printf.ksprintf
    (fun m ->
      Clip_diag.error ~code:Clip_diag.Codes.rel_not_relational
        ~hints:
          [
            "the rel backend needs a relational-shaped source (tables under \
             a bare root); use --backend tgd for nested sources";
          ]
        m)
    fmt

(* Every source generator must range over one whole table —
   [root.table] — for the plan's scans to be row-vector sweeps. The
   compiled tgd of a mapping over a relational-shaped schema always
   has this form (tables are the only repeating elements); a
   hand-built tgd that navigates differently is rejected here, before
   any evaluation. *)
let check_gens shape (m : Tgd.t) =
  let rec walk (m : Tgd.t) =
    let rec gens = function
      | [] -> Ok ()
      | (g : Tgd.source_gen) :: rest ->
        (match g.Tgd.sexpr with
         | Term.Proj (Term.Root r, Path.Child t)
           when String.equal r shape.Shape.root
                && List.mem t (Shape.table_names shape) ->
           gens rest
         | e ->
           Error
             [
               diag "generator %s ranges over %s, which is not a table of %s"
                 g.Tgd.svar (Term.expr_to_string e) shape.Shape.root;
             ])
    in
    match gens m.Tgd.foralls with
    | Error _ as e -> e
    | Ok () ->
      List.fold_left
        (fun acc c -> match acc with Error _ -> acc | Ok () -> walk c)
        (Ok ()) m.Tgd.children
  in
  walk m

let compile_result ~source ~target_root (tgd : Tgd.t) =
  match Shape.of_schema source with
  | Error reason ->
    Error [ diag "the source schema is not relational-shaped: %s" reason ]
  | Ok shape ->
    (match check_gens shape tgd with
     | Error _ as e -> e
     | Ok () ->
       Ok { source_root = shape.Shape.root; target_root; shape; tgd })
