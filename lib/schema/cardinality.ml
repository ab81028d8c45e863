type max = Bounded of int | Unbounded

type t = { min : int; max : max }

let make min max =
  if min < 0 then invalid_arg "Cardinality.make: negative min";
  (match max with
   | Bounded m when m < min -> invalid_arg "Cardinality.make: max < min"
   | Bounded _ | Unbounded -> ());
  { min; max }

let required = { min = 1; max = Bounded 1 }
let optional = { min = 0; max = Bounded 1 }
let star = { min = 0; max = Unbounded }
let plus = { min = 1; max = Unbounded }

let is_repeating c =
  match c.max with
  | Unbounded -> true
  | Bounded m -> m > 1

let is_optional c = c.min = 0

let admits c n =
  n >= c.min
  && (match c.max with Unbounded -> true | Bounded m -> n <= m)

let subsumes a b =
  a.min <= b.min
  &&
  match a.max, b.max with
  | Unbounded, _ -> true
  | Bounded _, Unbounded -> false
  | Bounded x, Bounded y -> x >= y

let to_string c =
  let max = match c.max with Unbounded -> "*" | Bounded m -> string_of_int m in
  Printf.sprintf "[%d..%s]" c.min max

let equal (a : t) (b : t) =
  Int.equal a.min b.min
  &&
  match a.max, b.max with
  | Unbounded, Unbounded -> true
  | Bounded x, Bounded y -> Int.equal x y
  | (Unbounded | Bounded _), _ -> false
let pp fmt c = Format.pp_print_string fmt (to_string c)
