type severity = Error | Warning | Info

type span = {
  line : int;
  col : int;
  end_line : int;
  end_col : int;
  offset : int;
}

let span ?end_line ?end_col ?(offset = -1) ~line ~col () =
  let end_line = Option.value end_line ~default:line in
  let end_col =
    match end_col with
    | Some c -> c
    | None -> if end_line = line then col + 1 else col
  in
  { line; col; end_line; end_col; offset }

let span_of_offset src off =
  let off = max 0 (min off (String.length src)) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to off - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  span ~offset:off ~line:!line ~col:(off - !bol + 1) ()

type t = {
  severity : severity;
  code : string;
  message : string;
  span : span option;
  hints : string list;
}

let make ?(severity = Error) ?span ?(hints = []) ~code message =
  { severity; code; message; span; hints }

let error ?span ?hints ~code message = make ?span ?hints ~code message

let errorf ?span ?hints ~code fmt =
  Printf.ksprintf (fun message -> error ?span ?hints ~code message) fmt

let warning ?span ?hints ~code message =
  make ~severity:Warning ?span ?hints ~code message

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let to_string d =
  let where =
    match d.span with
    | Some s -> Printf.sprintf " at line %d, column %d" s.line s.col
    | None -> ""
  in
  Printf.sprintf "%s[%s]%s: %s" (severity_to_string d.severity) d.code where d.message

let nth_line src n =
  (* 1-based; [None] when the text has fewer lines. *)
  let len = String.length src in
  let rec start_of k i =
    if k <= 1 then Some i
    else
      match String.index_from_opt src i '\n' with
      | Some j when j + 1 <= len -> start_of (k - 1) (j + 1)
      | Some _ | None -> None
  in
  match start_of n 0 with
  | None -> None
  | Some i when i > len -> None
  | Some i ->
    let stop =
      match String.index_from_opt src i '\n' with Some j -> j | None -> len
    in
    Some (String.sub src i (stop - i))

let render ?src d =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "%s[%s]: %s" (severity_to_string d.severity) d.code d.message);
  (match d.span with
   | None -> ()
   | Some s ->
     Buffer.add_string buf (Printf.sprintf "\n  --> line %d, column %d" s.line s.col);
     (match src with
      | None -> ()
      | Some src ->
        (match nth_line src s.line with
         | None -> ()
         | Some text ->
           let gutter = string_of_int s.line in
           let pad = String.make (String.length gutter) ' ' in
           (* Tabs would misalign the caret; render them as one space. *)
           let text = String.map (fun c -> if c = '\t' then ' ' else c) text in
           let width =
             if s.end_line = s.line && s.end_col > s.col then s.end_col - s.col else 1
           in
           let col = max 1 (min s.col (String.length text + 1)) in
           (* Window very long lines (minified XML, generated input)
              around the caret so one diagnostic cannot dump the whole
              line to the terminal. *)
           let max_width = 120 in
           let text, col =
             if String.length text <= max_width then (text, col)
             else begin
               let start = max 0 (min (col - 1 - (max_width / 3)) (String.length text - max_width)) in
               let chunk = String.sub text start (min max_width (String.length text - start)) in
               let pre = if start > 0 then "..." else "" in
               let post = if start + max_width < String.length text then "..." else "" in
               (pre ^ chunk ^ post, col - start + String.length pre)
             end
           in
           let width = min width (String.length text - col + 2) in
           let width = max 1 width in
           Buffer.add_string buf (Printf.sprintf "\n %s |\n %s | %s" pad gutter text);
           Buffer.add_string buf
             (Printf.sprintf "\n %s | %s%s" pad
                (String.make (col - 1) ' ')
                (String.make width '^')))));
  List.iter (fun h -> Buffer.add_string buf (Printf.sprintf "\n  hint: %s" h)) d.hints;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let render_list ?src ds = String.concat "\n" (List.map (render ?src) ds)
let is_error d = d.severity = Error
let has_errors ds = List.exists is_error ds

let is_resource_limit d =
  String.length d.code >= 8 && String.equal (String.sub d.code 0 8) "CLIP-LIM"

exception Fail of t list

let fail d = raise (Fail [ d ])
let fail_all ds = raise (Fail ds)

let failf ?span ?hints ~code fmt =
  Printf.ksprintf (fun message -> fail (error ?span ?hints ~code message)) fmt

let guard f = match f () with v -> Ok v | exception Fail ds -> Error ds

module Codes = struct
  let xml_syntax = "CLIP-XML-001"
  let schema_lexical = "CLIP-SCH-001"
  let schema_syntax = "CLIP-SCH-002"
  let xsd_unsupported = "CLIP-SCH-003"
  let schema_invalid = "CLIP-SCH-004"
  let mapping_syntax = "CLIP-MAP-001"
  let xquery_syntax = "CLIP-XQ-001"
  let xquery_eval = "CLIP-XQ-002"
  let tgd_eval = "CLIP-TGD-001"
  let compile_unbound_var = "CLIP-CMP-001"
  let compile_unanchored_input = "CLIP-CMP-002"
  let compile_unanchored_leaf = "CLIP-CMP-003"
  let compile_bad_target = "CLIP-CMP-004"
  let compile_identity_arity = "CLIP-CMP-005"
  let compile_aggregate_arity = "CLIP-CMP-006"
  let compile_no_driver = "CLIP-CMP-007"
  let compile_bad_nesting = "CLIP-CMP-008"
  let xquery_gen_unsupported = "CLIP-XQG-001"
  let clio_vm_arity = "CLIP-GEN-001"
  let clio_not_expressible = "CLIP-GEN-002"
  let io_error = "CLIP-IO-001"
  let limit_input_bytes = "CLIP-LIM-001"
  let limit_xml_depth = "CLIP-LIM-002"
  let limit_recursion = "CLIP-LIM-003"
  let limit_eval_steps = "CLIP-LIM-004"
  let limit_deadline = "CLIP-LIM-005"
  let cancelled = "CLIP-LIM-006"
  let fault_permanent = "CLIP-FLT-002"
  let algebra_schema_mismatch = "CLIP-ALG-001"
  let algebra_grouping = "CLIP-ALG-002"
  let algebra_ambiguous = "CLIP-ALG-003"
  let algebra_leaf = "CLIP-ALG-004"
  let algebra_multiplicity = "CLIP-ALG-005"
  let rel_fk_arity = "CLIP-REL-001"
  let rel_fk_unknown = "CLIP-REL-002"
  let rel_not_relational = "CLIP-REL-003"
  let ablation_backend = "CLIP-ENG-001"
  let validity kind = "CLIP-VAL-" ^ kind
end

module Limits = struct
  type t = {
    max_input_bytes : int;
    max_xml_depth : int;
    max_parser_recursion : int;
    max_eval_steps : int;
  }

  let default =
    {
      max_input_bytes = 16 * 1024 * 1024;
      max_xml_depth = 800;
      max_parser_recursion = 400;
      max_eval_steps = 100_000_000;
    }

  let unlimited =
    {
      max_input_bytes = max_int;
      max_xml_depth = max_int;
      max_parser_recursion = max_int;
      max_eval_steps = max_int;
    }
end
