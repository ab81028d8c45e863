(** A global element-tag symbol table: tags interned into dense ints.

    Hot paths (child scans, statistics, plan keys)
    compare interned symbols with an int equality instead of hashing
    or walking strings. The table is process-wide and append-only — a
    symbol never changes meaning — so symbols may be stored inside
    immutable nodes and inside caches that outlive a single run.

    The table is domain-safe: the current contents are one immutable
    snapshot published atomically, so lookups and interning hits are
    lock-free from any domain; only the first sight of a fresh tag
    takes a mutex to publish a new snapshot. Symbols interned on one
    domain are valid on every other. *)

type t = private int

(** [intern s] — the symbol of tag [s]; assigns the next dense id on
    first sight. *)
val intern : string -> t

(** [name sym] — the tag string the symbol was interned from.
    @raise Invalid_argument on an id that was never assigned. *)
val name : t -> string

(** Number of symbols interned so far (also the next fresh id —
    usable as the size of a dense per-symbol array). *)
val interned : unit -> int

(** [of_int i] — the symbol with dense id [i], for columnar stores
    ({!Doc}) that keep symbols in plain int arrays alongside non-symbol
    sentinels. Inverse of the [(sym :> int)] coercion.
    @raise Invalid_argument on an id that was never assigned. *)
val of_int : int -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
