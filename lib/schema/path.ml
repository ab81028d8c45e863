type step =
  | Child of string
  | Attr of string
  | Value

type t = { root : string; steps : step list }

let make root steps = { root; steps }
let root name = { root = name; steps = [] }

(* Step equality and order, spelled out so that no step comparison
   goes through the polymorphic primitives. [compare_step] keeps
   [Stdlib.compare]'s order: the constant [Value] first, then [Child]
   before [Attr] (constructor order), then the names. *)
let equal_step a b =
  match a, b with
  | Child x, Child y | Attr x, Attr y -> String.equal x y
  | Value, Value -> true
  | (Child _ | Attr _ | Value), _ -> false

let compare_step a b =
  match a, b with
  | Value, Value -> 0
  | Value, (Child _ | Attr _) -> -1
  | (Child _ | Attr _), Value -> 1
  | Child x, Child y | Attr x, Attr y -> String.compare x y
  | Child _, Attr _ -> -1
  | Attr _, Child _ -> 1

let rec ends_on_leaf_steps = function
  | [] | [ Child _ ] -> false
  | [ (Attr _ | Value) ] -> true
  | _ :: rest -> ends_on_leaf_steps rest

let ends_on_leaf p = ends_on_leaf_steps p.steps

let past_leaf () =
  invalid_arg "Path: cannot extend a path past an attribute or value step"

let extend p step =
  let rec go = function
    | [] -> [ step ]
    | [ (Attr _ | Value) ] -> past_leaf ()
    | s :: rest -> s :: go rest
  in
  { p with steps = go p.steps }

let child p name = extend p (Child name)
let attr p name = extend p (Attr name)
let value p = extend p Value

let rec drop_last = function [] | [ _ ] -> [] | s :: rest -> s :: drop_last rest

let parent p =
  match p.steps with [] -> None | steps -> Some { p with steps = drop_last steps }

let is_leaf = ends_on_leaf

let rec last = function [] -> None | [ s ] -> Some s | _ :: rest -> last rest
let last_step p = last p.steps

(* The steps without a final leaf step; physically [steps] itself when
   they end on an element, so [element_of] allocates only for leaves. *)
let rec element_steps steps =
  match steps with
  | [] | [ Child _ ] -> steps
  | [ (Attr _ | Value) ] -> []
  | s :: rest ->
    let rest' = element_steps rest in
    if rest' == rest then steps else s :: rest'

let element_of p =
  let steps = element_steps p.steps in
  if steps == p.steps then p else { p with steps }

let element_prefixes p =
  let rec go rev_prefix acc = function
    | [] | [ (Attr _ | Value) ] -> List.rev acc
    | s :: rest ->
      let rev_prefix = s :: rev_prefix in
      go rev_prefix ({ p with steps = List.rev rev_prefix } :: acc) rest
  in
  go [] [ { p with steps = [] } ] p.steps

let rec steps_prefix a b =
  match a, b with
  | [], _ -> true
  | _, [] -> false
  | x :: a, y :: b -> equal_step x y && steps_prefix a b

let is_prefix a b = String.equal a.root b.root && steps_prefix a.steps b.steps

let strip_prefix ~prefix p =
  if not (String.equal prefix.root p.root) then None
  else
    let rec go pre steps =
      match pre, steps with
      | [], rest -> Some rest
      | x :: pre, y :: steps when equal_step x y -> go pre steps
      | _ :: _, _ -> None
    in
    go prefix.steps p.steps

let rec leaf_before_last = function
  | [] | [ _ ] -> false
  | (Attr _ | Value) :: _ :: _ -> true
  | Child _ :: rest -> leaf_before_last rest

let append p steps =
  match steps with
  | [] -> p
  | _ :: _ ->
    if ends_on_leaf p || leaf_before_last steps then past_leaf ();
    { p with steps = p.steps @ steps }

let step_to_string = function
  | Child n -> n
  | Attr n -> "@" ^ n
  | Value -> "value"

let to_string p =
  String.concat "." (p.root :: List.map step_to_string p.steps)

let of_string s =
  match String.split_on_char '.' s with
  | [] | [ "" ] -> Error "empty path"
  | root :: raw_steps ->
    if String.equal root "" then Error "empty path root"
    else begin
      let exception Bad of string in
      try
        let n = List.length raw_steps in
        let steps =
          List.mapi
            (fun i tok ->
              if String.equal tok "" then raise (Bad "empty path step")
              else if tok.[0] = '@' then begin
                if i <> n - 1 then raise (Bad "attribute step must be last");
                Attr (String.sub tok 1 (String.length tok - 1))
              end
              else if String.equal tok "value" then begin
                if i <> n - 1 then raise (Bad "value step must be last");
                Value
              end
              else Child tok)
            raw_steps
        in
        Ok { root; steps }
      with Bad m -> Error m
    end

let rec equal_steps a b =
  match a, b with
  | [], [] -> true
  | x :: a, y :: b -> equal_step x y && equal_steps a b
  | [], _ :: _ | _ :: _, [] -> false

let equal a b = String.equal a.root b.root && equal_steps a.steps b.steps

let rec compare_steps a b =
  match a, b with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a, y :: b ->
    let r = compare_step x y in
    if r <> 0 then r else compare_steps a b

let compare a b =
  let r = String.compare a.root b.root in
  if r <> 0 then r else compare_steps a.steps b.steps

let pp fmt p = Format.pp_print_string fmt (to_string p)
