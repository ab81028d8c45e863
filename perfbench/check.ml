(* Output checks that share no code with the engine: element counts and
   attribute values are read off the printed bytes by plain string
   scanning, never through the XML parser or the tree the engine built. *)

let is_name_end c = c = ' ' || c = '>' || c = '/' || c = '\n' || c = '\t'

let matches_at s i pat =
  let m = String.length pat in
  let rec go k = k = m || (s.[i + k] = pat.[k] && go (k + 1)) in
  i + m <= String.length s && go 0

(* Positions just past every start tag [<tag] in [s]. *)
let start_tags s tag =
  let pat = "<" ^ tag in
  let n = String.length s and m = String.length pat in
  let rec go i acc =
    if i + m >= n then List.rev acc
    else if matches_at s i pat && is_name_end s.[i + m] then
      go (i + m) ((i + m) :: acc)
    else
      match String.index_from_opt s (i + 1) '<' with
      | Some j -> go j acc
      | None -> List.rev acc
  in
  match String.index_opt s '<' with Some i -> go i [] | None -> []

let count_tag s tag = List.length (start_tags s tag)

(* The value of attribute [name] inside the start tag beginning at [pos]. *)
let attr_at s pos name =
  let close = String.index_from s pos '>' in
  let pat = " " ^ name ^ "=\"" in
  let m = String.length pat in
  let rec find i =
    if i + m > close then None
    else if matches_at s i pat then
      let v = i + m in
      Some (String.sub s v (String.index_from s v '"' - v))
    else find (i + 1)
  in
  find pos

let counts_match out expected =
  List.filter_map
    (fun (tag, want) ->
      let got = count_tag out tag in
      if got = want then None
      else Some (Printf.sprintf "%d <%s> where %d expected" got tag want))
    expected

(* fig9: each department, in document order, carries its own project
   and employee counts. *)
let fig9_counts out ~projs ~emps =
  let depts = Array.of_list (start_tags out "department") in
  if Array.length depts <> Array.length projs then
    [ Printf.sprintf "%d departments, %d expected" (Array.length depts)
        (Array.length projs) ]
  else
    List.concat
      (List.init (Array.length depts) (fun i ->
           let want name n =
             match attr_at out depts.(i) name with
             | Some v when v = string_of_int n -> []
             | v ->
               [ Printf.sprintf "department %d: %s=%s, %d expected" i name
                   (Option.value v ~default:"absent") n ]
           in
           want "numProj" projs.(i) @ want "numEmps" emps.(i)))

let digest s = Digest.to_hex (Digest.string s)
