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

(* The lexical forms are read from bytes [b.[lo..hi-1]]: {!of_string}
   reads its string in place and {!of_bytes} a slice of the lexer's
   window, so both share one scanner and agree by construction.
   Helpers are top-level rather than local: a local function capturing
   the bytes would be a closure allocated on every call, and every text
   and attribute value of a parsed document goes through here. *)
let[@inline] get b i = Bytes.unsafe_get b i

let rec skip_space b hi i = if i < hi && is_space (get b i) then skip_space b hi (i + 1) else i
let rec skip_digits b hi i = if i < hi && is_digit (get b i) then skip_digits b hi (i + 1) else i

(* The decimal digits b.[k..j-1], accumulated negatively from [acc] = 0
   so that [min_int] stays reachable. The result is never positive, so
   [1] reports an overflow without allocating an option. *)
let rec neg_digits b k j acc =
  if k = j then acc
  else
    let d = Char.code (get b k) - 48 in
    if acc < (min_int + d) / 10 then 1 else neg_digits b (k + 1) j ((acc * 10) - d)

(* The shape of b.[lo..hi-1] under one scan for the XML decimal and
   double lexical forms — an optional sign, digits with an optional
   fraction, an optional exponent — after optional leading whitespace:
   [Integer] is a plain integer with no leading whitespace, [Number]
   any other such form, [Other] everything else. *)
type shape = Integer | Number | Other

let shape b lo hi =
  let lead = skip_space b hi lo in
  let digits = if lead < hi && (get b lead = '+' || get b lead = '-') then lead + 1 else lead in
  let int_end = skip_digits b hi digits in
  let point = int_end < hi && get b int_end = '.' in
  let frac_end = if point then skip_digits b hi (int_end + 1) else int_end in
  let numeric = int_end > digits || frac_end > int_end + 1 in
  let stop =
    if numeric && frac_end < hi && (get b frac_end = 'e' || get b frac_end = 'E') then
      let e = frac_end + 1 in
      let e = if e < hi && (get b e = '+' || get b e = '-') then e + 1 else e in
      let d = skip_digits b hi e in
      if d > e then d else -1
    else frac_end
  in
  if not (numeric && stop = hi) then Other else if lead = lo && stop = int_end then Integer else Number

(* An [Integer]-shaped b.[lo..hi-1]: minus its magnitude, [1] when
   that overflows; whether it fits once signed; its value. *)
let neg_magnitude b lo hi =
  neg_digits b (if get b lo = '-' || get b lo = '+' then lo + 1 else lo) hi 0

let fits b lo m = m <> 1 && (get b lo = '-' || m <> min_int)
let signed b lo m = if get b lo = '-' then m else -m

let as_float s =
  let f = float_of_string s in
  if Float.is_finite f then Float f else String s

(* A plain integer that fits is an [Int], one that overflows a
   [Float]; a fraction, an exponent or leading whitespace makes a
   [Float]; [true]/[false] are [Bool]s. Everything else, including radix
   prefixes, digit separators and the INF/NaN spellings, stays a
   [String], so the value prints back unchanged. *)
let of_string s =
  let b = Bytes.unsafe_of_string s and n = String.length s in
  match shape b 0 n with
  | Integer ->
    let m = neg_magnitude b 0 n in
    if fits b 0 m then Int (signed b 0 m) else as_float s
  | Number -> as_float s
  | Other -> (match s with "true" -> Bool true | "false" -> Bool false | _ -> String s)

let rec spells b off lit j =
  j = String.length lit || (get b (off + j) = String.unsafe_get lit j && spells b off lit (j + 1))

let of_bytes b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Atom.of_bytes";
  let hi = off + len in
  match shape b off hi with
  | Integer ->
    let m = neg_magnitude b off hi in
    if fits b off m then Int (signed b off m) else as_float (Bytes.sub_string b off len)
  | Number -> as_float (Bytes.sub_string b off len)
  | Other ->
    if len = 4 && spells b off "true" 0 then Bool true
    else if len = 5 && spells b off "false" 0 then Bool false
    else String (Bytes.sub_string b off len)

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

(* A hash of [key a] with no key built: the IEEE bits stay unboxed and
   are mixed in place (a multiply, then the high bits folded onto the
   low ones a bucket index reads), so a hash join hashes a number
   without allocating or calling out. Atoms with one key get one
   hash. *)
let mix bits =
  let h = bits * 0x3f4a7c15b2e6d3a9 in
  (h lxor (h lsr 29) lxor (h lsr 47)) land max_int

let key_hash = function
  | String s -> Hashtbl.hash s
  | Bool b -> Hashtbl.hash b
  | Int i -> mix (Int64.to_int (Int64.bits_of_float (float_of_int i)))
  | Float f ->
    mix (Int64.to_int (Int64.bits_of_float (if Float.is_nan f then Float.nan else f +. 0.)))

let pp fmt a = Format.pp_print_string fmt (to_string a)
