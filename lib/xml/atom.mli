(** Atomic values carried by XML attributes and text nodes.

    Clip schemas type their leaves with the atomic types of the paper
    ([String], [int], ...); instances carry the corresponding values. *)

type t =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool

val string : string -> t
val int : int -> t
val float : float -> t
val bool : bool -> t

(** [to_string a] renders the value the way the paper prints instance
    leaves: integers without decoration, integral floats below 1e15 as
    integers, other floats in the shortest of 15, 16 or 17 significant
    digits that reads back as the same float. *)
val to_string : t -> string

(** [of_string s] guesses the tightest atomic type for a lexical value,
    in one scan. An XML decimal or double form (optional sign, digits
    with an optional fraction, optional exponent) is an [Int] when it
    is a plain integer that fits, else a [Float]; leading whitespace
    makes any such form a [Float] and trailing whitespace makes it a
    [String]. [true] and [false] are [Bool]s. Everything else —
    including OCaml's radix prefixes, [_] separators, hex floats, the
    INF/NaN spellings and values overflowing to infinity — stays a
    [String]. Used by the XML parser, which has no schema at hand. *)
val of_string : string -> t

(** [of_bytes b off len] — [of_string (Bytes.sub_string b off len)],
    typed where the bytes sit: an [Int] or [Bool] is read without a
    copy, and any other value is sliced once. The XML lexer types text
    and attribute values in its window with it.
    @raise Invalid_argument when the range is not within [b]. *)
val of_bytes : Bytes.t -> int -> int -> t

(** Structural equality with numeric promotion: [Int 3 = Float 3.0]. *)
val equal : t -> t -> bool

(** Total order consistent with {!equal}; numerics compare numerically,
    cross-kind comparisons fall back to kind rank then lexical value. *)
val compare : t -> t -> int

(** Numeric view, if any. *)
val to_float : t -> float option

(** One hashable shape per {!equal}-equivalence class — the single
    normalisation shared by the plan layer's hash joins and both
    backends' grouping and dedup keys. [key (Int 3) = key (Float 3.)],
    all NaNs collapse to one key, and [0.] and [-0.] collapse to one
    key ([Float.equal], hence {!equal}, holds on signed zeros).
    Integers beyond the 2^53 float range coarsen onto their nearest
    float, so exact consumers re-check the original predicate on each
    hash hit. *)
type key =
  | KString of string
  | KNum of int64  (** IEEE bits; NaNs and [-0.] canonicalised *)
  | KBool of bool

val key : t -> key

(** [key_hash a] — a hash of [key a], computed without building the
    key: atoms with the same key have the same hash, and no hash is
    negative. *)
val key_hash : t -> int

val pp : Format.formatter -> t -> unit
