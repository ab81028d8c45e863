exception Parse_error of { line : int; column : int; message : string }

let error_to_string = function
  | Parse_error { line; column; message } ->
    Printf.sprintf "XML parse error at line %d, column %d: %s" line column message
  | e -> Printexc.to_string e

let parse_string_result ?limits s = Stream.parse_result (Stream.of_string ?limits s)

let parse_string ?limits s =
  match parse_string_result ?limits s with
  | Ok root -> root
  | Error ds ->
    let d = List.hd ds in
    let line, column =
      match d.Clip_diag.span with
      | Some sp -> (sp.Clip_diag.line, sp.Clip_diag.col)
      | None -> (1, 1)
    in
    raise (Parse_error { line; column; message = d.Clip_diag.message })

let parse_string_opt ?limits s =
  match parse_string_result ?limits s with Ok root -> Some root | Error _ -> None
