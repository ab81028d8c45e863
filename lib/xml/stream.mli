(** The XML lexer: a pull-based (SAX-style) event lexer over an
    incremental byte feed, which also builds trees ({!parse_result},
    {!subtree_result}). {!Parser.parse_string_result} is
    [parse_result (of_string s)]: there is one lexer.

    Bytes are pulled on demand from a producer ({!of_channel},
    {!of_chunks}) through a sliding window whose residency is one
    chunk plus the longest pending run (a text node, quoted value,
    comment or CDATA section being scanned); {!of_string} reads its
    string in place. This is the substrate of bounded-memory ingestion
    and of the shard cutter ({!Clip_shard}).

    Malformed input yields spanned diagnostics: [CLIP-XML-001] for
    syntax errors, [CLIP-LIM-001] / [CLIP-LIM-002] when the input-size
    or nesting-depth guard trips. Spans are absolute offsets, lines and
    columns of the whole feed. Two contracts, pinned by
    test/test_stream.ml against a reference parser kept with the tests:

    - {b chunk-boundary independence} — the event sequence, the
      document and the diagnostics are the same whether the bytes
      arrive one at a time, in arbitrary chunks, or as a single string;
    - {b size precedence} — an oversized feed reports [CLIP-LIM-001]
      (as a check of the whole string up front would) even when it is
      also syntactically broken early: before surfacing any other
      failure a chunked feed drains and sizes the rest of the feed. *)

type event =
  | Start of { tag : string; attrs : (string * Atom.t) list }
  | Text of Atom.t
  | End of string

type source

(** [of_chunks refill] — a source pulling bytes from [refill]: [Some
    chunk] to append bytes (empty chunks are skipped), [None] once the
    feed is exhausted. [refill] is called lazily, only when the lexer
    needs more bytes. *)
val of_chunks : ?limits:Clip_diag.Limits.t -> (unit -> string option) -> source

(** [of_string s] — the whole string as one chunk, read in place
    (not copied); the size limit is checked before any byte is read. *)
val of_string : ?limits:Clip_diag.Limits.t -> string -> source

(** [of_channel ic] — read [ic] in [chunk_bytes]-sized chunks (default
    64 KiB). The channel is not closed. *)
val of_channel :
  ?limits:Clip_diag.Limits.t -> ?chunk_bytes:int -> in_channel -> source

(** [next_result src] — the next event, [Ok None] once the document
    (root element plus trailing misc) has been fully consumed, or the
    diagnostics of the first failure. A failed source latches: every
    subsequent call returns the same error. *)
val next_result : source -> (event option, Clip_diag.t list) result

(** [pos src] — the absolute byte offset of the next unconsumed byte;
    after an [End] event this is the end of the closing tag. The shard
    cutter uses deltas of this as true per-subtree byte sizes. *)
val pos : source -> int

(** [subtree_result src ~tag ~attrs] — having just received
    [Start {tag; attrs}], consume events up to (and including) the
    matching [End] and build that subtree. The shard cutter uses this
    to materialise one repeated element at a time while skipping the
    rest of the document. *)
val subtree_result :
  source ->
  tag:string ->
  attrs:(string * Atom.t) list ->
  (Node.t, Clip_diag.t list) result

(** [parse_result src] — drive a fresh source to completion and build
    the document (root element plus the misc around it). *)
val parse_result : source -> (Node.t, Clip_diag.t list) result
