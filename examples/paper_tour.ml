(* A guided tour of every mapping worked in the paper: for each figure,
   render the mapping, show the compiled tgd, run it on the Sec. I-A
   instance and compare with the output printed in the paper. Ends with
   the Sec. V generation story: Clio's defective baseline for Fig. 1
   and the extension's repair.

     dune exec examples/paper_tour.exe
*)

module S = Clip_scenarios
module Node = Clip_xml.Node

let rule title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Run a generated tgd directly on the tgd engine. *)
let run_tgd tgd =
  match
    Clip_tgd.Eval.run_result ~source:S.Deptdb.instance ~target_root:"target" tgd
  with
  | Ok out -> out
  | Error ds -> Clip_diag.fail_all ds

let () =
  rule "The source instance (Sec. I-A)";
  print_endline (Clip_xml.Printer.to_tree_string S.Deptdb.instance);

  List.iter
    (fun (sc : S.Figures.t) ->
      rule (Printf.sprintf "%s: %s" sc.name sc.title);
      print_endline (Clip_core.Engine.tgd_text ~unicode:false sc.mapping);
      let out =
        Clip_core.Engine.run ~minimum_cardinality:sc.minimum_cardinality sc.mapping
          S.Deptdb.instance
      in
      print_endline "";
      print_endline (Clip_xml.Printer.to_tree_string out);
      match sc.expected with
      | Some expected ->
        let ok =
          if sc.ordered then Node.equal out expected
          else Node.equal_unordered out expected
        in
        Printf.printf "\nmatches the paper's printed output: %b\n" ok
      | None -> print_endline "\n(the paper prints no instance for this variant)")
    S.Figures.all;

  rule "Sec. V: what Clio generates for the Fig. 1 value mappings";
  let baseline = Clip_clio.Generate.generate S.Figures.fig1_values in
  let out = run_tgd baseline in
  print_endline (Clip_xml.Printer.to_tree_string out);
  Printf.printf "\nreproduces the paper's defective output: %b\n"
    (Node.equal_unordered out S.Figures.fig1_clio_output);

  rule "Sec. V-B: the extension's repair";
  let repaired = Clip_clio.Generate.generate ~extension:true S.Figures.fig1_values in
  let out = run_tgd repaired in
  print_endline (Clip_xml.Printer.to_tree_string out);
  Printf.printf "\nmatches the Sec. I desired output: %b\n"
    (Node.equal_unordered out (Option.get S.Figures.fig5.expected))
