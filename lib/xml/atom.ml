type t =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool

let string s = String s
let int i = Int i
let float f = Float f
let bool b = Bool b

(* Floats print in the shortest of 15, 16 or 17 significant digits that
   reads back as the same float, so a value never changes on its way
   through; integral floats print as integers (no OCaml "3." spelling). *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if Float.equal (float_of_string s) f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

let to_string = function
  | String s -> s
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | Bool b -> string_of_bool b

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\011' || c = '\012'
let is_digit c = c >= '0' && c <= '9'

(* The decimal digits s.[k..j-1] as an int, [None] on overflow; start
   with [acc] = 0. Accumulating negatively keeps [min_int] reachable. *)
let rec int_of_digits s k j ~neg acc =
  if k = j then
    if neg then Some acc else if acc = min_int then None else Some (-acc)
  else
    let d = Char.code s.[k] - 48 in
    if acc < (min_int + d) / 10 then None else int_of_digits s (k + 1) j ~neg ((acc * 10) - d)

(* One scan for the XML decimal and double lexical forms — an optional
   sign, digits with an optional fraction, an optional exponent — after
   optional leading whitespace. A plain integer is an [Int] (a [Float]
   when it overflows); a fraction, an exponent or leading whitespace
   makes a [Float]; [true]/[false] are [Bool]s. Everything else,
   including radix prefixes, digit separators and the INF/NaN spellings,
   stays a [String], so the value prints back unchanged. *)
(* Top-level rather than local to [of_string]: a local function
   capturing [s] is a closure allocated on every call, and every text
   and attribute value of a parsed document goes through here. *)
let rec skip_space s n i = if i < n && is_space s.[i] then skip_space s n (i + 1) else i
let rec skip_digits s n i = if i < n && is_digit s.[i] then skip_digits s n (i + 1) else i

let as_float s =
  let f = float_of_string s in
  if Float.is_finite f then Float f else String s

let of_string s =
  let n = String.length s in
  let lead = skip_space s n 0 in
  let digits = if lead < n && (s.[lead] = '+' || s.[lead] = '-') then lead + 1 else lead in
  let int_end = skip_digits s n digits in
  let point = int_end < n && s.[int_end] = '.' in
  let frac_end = if point then skip_digits s n (int_end + 1) else int_end in
  let numeric = int_end > digits || frac_end > int_end + 1 in
  let stop =
    if numeric && frac_end < n && (s.[frac_end] = 'e' || s.[frac_end] = 'E') then
      let e = frac_end + 1 in
      let e = if e < n && (s.[e] = '+' || s.[e] = '-') then e + 1 else e in
      let d = skip_digits s n e in
      if d > e then d else -1
    else frac_end
  in
  if not (numeric && stop = n) then
    match s with "true" -> Bool true | "false" -> Bool false | _ -> String s
  else if lead = 0 && stop = int_end then
    match int_of_digits s digits int_end ~neg:(s.[lead] = '-') 0 with
    | Some i -> Int i
    | None -> as_float s
  else as_float s

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | String _ | Bool _ -> None

let equal a b =
  match a, b with
  | String x, String y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
  | (String _ | Bool _ | Int _ | Float _), _ -> false

let kind_rank = function
  | String _ -> 0
  | Int _ | Float _ -> 1
  | Bool _ -> 2

let compare a b =
  match a, b with
  | String x, String y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | a, b ->
    let r = Int.compare (kind_rank a) (kind_rank b) in
    if r <> 0 then r else String.compare (to_string a) (to_string b)

(* --- Join-key normalisation -------------------------------------------- *)

(* One hashable shape per {!equal}-equivalence class, shared by the
   plan layer's hash joins and both backends' grouping/dedup keys so
   every consumer agrees on what "the same value" means. [Int i] and
   [Float f] normalise to the same key when [float_of_int i = f], all
   NaNs collapse to one key, and [0.] / [-0.] collapse to one key
   ([Float.equal] holds on signed zeros, hence {!equal} does).
   Integers beyond the 2^53 float range coarsen onto their nearest
   float — consumers that must be exact re-check the original
   predicate on each hash hit. *)
type key =
  | KString of string
  | KNum of int64 (* IEEE bits; NaNs and -0. canonicalised *)
  | KBool of bool

let key = function
  | String s -> KString s
  | Bool b -> KBool b
  | Int i -> KNum (Int64.bits_of_float (float_of_int i))
  | Float f ->
    (* [+. 0.] maps [-0.] onto [0.] and is the identity elsewhere, so
       the two zeros — equal under IEEE, hence under {!equal} — share
       IEEE bits; a raw [bits_of_float] would put them in different
       hash buckets and make a join miss matches the naive
       interpreter emits. *)
    KNum (Int64.bits_of_float (if Float.is_nan f then Float.nan else f +. 0.))

let pp fmt a = Format.pp_print_string fmt (to_string a)
