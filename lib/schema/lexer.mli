(** A small shared tokenizer for the textual surface syntaxes (schema
    DSL here, mapping DSL in [Clip_core.Dsl]).

    Lexical rules: [#] starts a line comment; identifiers are
    [\[A-Za-z_\]\[A-Za-z0-9_\]*] possibly containing interior dashes
    ([project-emp], [avg-sal]) — a dash is part of an identifier only
    when followed by an identifier character, so [->] still lexes as an
    arrow; numbers lex as int or float literals; strings are
    double-quoted, with exactly the escapes [String.escaped] writes: a
    backslash followed by a backslash, a double quote, [n], [t], [r],
    [b], or three decimal digits naming a byte up to 255. Any other
    escape is a [CLIP-SCH-001] error at its backslash. *)

type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Sym of string
  | Eof

type spanned = { token : token; line : int; column : int }

exception Lex_error of { line : int; column : int; message : string }

(** [tokenize_result s] is the token stream of [s], ending with [Eof],
    or spanned [CLIP-SCH-001] diagnostics on an unrecognised character
    or an out-of-range literal. *)
val tokenize_result : string -> (spanned list, Clip_diag.t list) result

(** [tokenize s] is the token stream of [s], ending with [Eof].
    @raise Lex_error on an unrecognised character (a thin wrapper over
    {!tokenize_result}). *)
val tokenize : string -> spanned list

val token_to_string : token -> string
