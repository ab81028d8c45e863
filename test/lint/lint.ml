(* Source lint: forbid [failwith], unlisted [invalid_arg], [Obj.magic]
   and ambient mutable globals in [lib/].

   Library code reports failures as [Clip_diag] diagnostics (or typed
   exceptions); [failwith] erases the code, span and hints. The only
   permitted sites are the raising forms of [Compile.to_tgd_unchecked]
   and of the Clio generator, which reconstruct [Failure] from the first
   diagnostic; they are listed in [allowlist] below with the number of
   occurrences each may contain. No run-stack entry point raises
   [Failure]: the engine, its backends and the evaluators report
   diagnostics, and [Engine.run] raises only [Clip_diag.Fail].
   [Obj.magic] is never allowed.

   [invalid_arg] is for programming errors only — a caller breaking a
   documented precondition (an empty chain, an unknown symbol, an
   out-of-range id) — never for input a user can supply: that must be a
   diagnostic. The sites are listed in [invalid_arg_allowlist] with
   per-file counts, so a new one is a reviewed decision.

   Top-level [ref] / [Hashtbl.create] value bindings are ambient
   mutable state: invisible to callers, shared across runs, and racy
   across domains. Run-scoped state belongs in a [Clip_run] context
   (counters, tracers, deadlines); cross-domain state must be
   [Atomic] or mutex-guarded with an explicit allowlist entry.

   [Ephemeron] and [Domain.DLS] are the tools of a cache that outlives
   a run: a weak table keyed by a document, or a per-domain default
   context that quietly carries one run's analysis into the next. Every
   run compiles and analyses its own input, so a run's output and
   counters depend only on its arguments; both names are forbidden in
   code under [lib/] unless listed in [cache_allowlist] (empty), so
   such a cache cannot come back without a review.

   Under [lib/xml/], the lexer and the atoms type every value of a
   parsed document, and [int_of_string*] / [float_of_string*] read
   OCaml literal syntax ([0x10], [0o7], [1_000], [+65], [nan]) that XML
   does not allow: twice a value or a character reference was misread
   that way. Only the sites in [number_allowlist] may call them, each
   on text it has already checked.

   The compile front end ([schema/lexer.ml], [schema/path.ml],
   [schema/schema.ml], [schema/dsl.ml], [core/dsl.ml],
   [core/validity.ml], [core/compile.ml]) runs several times per
   authored mapping, and polymorphic comparison was most of its cost.
   There, [List.mem], [List.assoc], [List.assoc_opt], [List.mem_assoc]
   and [Stdlib.compare] (all polymorphic compares) are allowed only at
   the sites in [poly_allowlist], with per-file counts; compare with
   [String.equal], [Path.equal] or a pattern match instead. Polymorphic
   [=] / [<>] / [compare] cannot be caught textually (the same
   operators compare ints everywhere, only the types tell them apart),
   so those stay a review matter.

   Every backend has one executor, the planned one, and [`Auto] always
   plans; the unplanned interpreter lives in [test/tgd_oracle.ml], the
   oracle the differential suites compare against. The [`Naive] plan
   tag and a [naive_threshold] that switches between two executors are
   forbidden in [lib/] and [bin/] unless listed in [naive_allowlist]
   (empty), so a second executor cannot return to the public API
   without a review.

   Every [.ml] under [lib/] must have a matching [.mli]: the interface
   is where invariants live (Doc's array layout, the index's
   memoisation contract, symbol interning), and an uninterfaced
   module leaks every helper as public API.

   Every [dune] under [lib/] must declare
   [(instrumentation (backend bisect_ppx))]: the stanza is inert in
   normal builds (bisect_ppx is not a build dependency) but lets CI's
   coverage job instrument the whole library surface with
   [--instrument-with bisect_ppx] — a library missing the stanza
   silently vanishes from the coverage report.

   Run as [lint.exe LIBDIR BINDIR]; wired into [dune runtest]. *)

let allowlist = [ ("clio/generate.ml", 1); ("clio/enumerate.ml", 1); ("core/compile.ml", 1) ]

(* Files allowed N occurrences of [invalid_arg]: constructor and
   accessor preconditions (schema, path, cardinality, node, symbol,
   atom and doc), the scenario fixtures' own path literals, empty
   chains, and the rel evaluator's shape-invariant guard. *)
let invalid_arg_allowlist =
  [
    ("algebra/clip_algebra.ml", 2);
    ("core/engine.ml", 1);
    ("scenarios/figures.ml", 1);
    ("scenarios/generic.ml", 1);
    ("scenarios/table1.ml", 1);
    ("schema/cardinality.ml", 2);
    ("schema/path.ml", 1);
    ("schema/relational.ml", 4);
    ("schema/schema.ml", 3);
    ("xml/atom.ml", 1);
    ("xml/doc.ml", 1);
    ("xml/node.ml", 2);
    ("xml/symbol.ml", 2);
    ("xquery/value.ml", 1);
  ]

(* Files allowed N top-level mutable bindings. xml/symbol.ml's one is
   the empty initial intern table, published through an [Atomic]
   snapshot and only ever replaced under its mutex. *)
let mutable_allowlist = [ ("xml/symbol.ml", 1) ]

(* Files under xml/ allowed N calls of [int_of_string*] /
   [float_of_string*]. atom.ml's three are [float_of_string] on a value
   its own scanner has read as an XML decimal or double form, and on
   the float printer's own output. *)
let number_allowlist = [ ("xml/atom.ml", 3) ]

(* The compile-front-end files, and the N polymorphic list lookups or
   [Stdlib.compare] calls each may contain (none today). *)
let poly_files =
  [
    "schema/lexer.ml";
    "schema/path.ml";
    "schema/schema.ml";
    "schema/dsl.ml";
    "core/dsl.ml";
    "core/validity.ml";
    "core/compile.ml";
  ]

let poly_allowlist : (string * int) list = []

(* Files allowed N uses of [Ephemeron] or [Domain.DLS] (none). *)
let cache_allowlist : (string * int) list = []
let cache_names = [ "Ephemeron"; "Domain.DLS" ]

(* Files allowed N mentions of the [`Naive] plan tag or
   [naive_threshold] (none), in [lib/] and [bin/]. *)
let naive_allowlist : (string * int) list = []
let naive_names = [ "`Naive"; "naive_threshold" ]
let poly_calls = [ "List.mem"; "List.assoc"; "List.assoc_opt"; "List.mem_assoc"; "Stdlib.compare" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let count = ref 0 in
  for i = 0 to nh - nn do
    if String.equal (String.sub hay i nn) needle then incr count
  done;
  !count

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Occurrences of [needle] as a standalone token (no identifier
   character or '.' on either side, so [deref], [prefs] and
   [M.ref_like] don't count). *)
let count_token hay needle =
  let nh = String.length hay and nn = String.length needle in
  let count = ref 0 in
  for i = 0 to nh - nn do
    if
      String.equal (String.sub hay i nn) needle
      && (i = 0 || (not (is_ident_char hay.[i - 1]) && hay.[i - 1] <> '.'))
      && (i + nn >= nh || not (is_ident_char hay.[i + nn]))
    then incr count
  done;
  !count

(* Occurrences of identifiers starting with [prefix] (no identifier
   character before it, so [M.int_of_string] counts and [my_int_of_string]
   does not). *)
let count_prefix hay prefix =
  let nh = String.length hay and np = String.length prefix in
  let count = ref 0 in
  for i = 0 to nh - np do
    if String.equal (String.sub hay i np) prefix && (i = 0 || not (is_ident_char hay.[i - 1]))
    then incr count
  done;
  !count

(* Blank out string literals ("…" with escapes, {tag|…|tag}) and
   comments, so a [ref] inside an embedded schema text or a doc
   comment is not mistaken for the allocator. Replacement preserves
   offsets and newlines. *)
let strip_literals src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let i = ref 0 in
  while !i < n do
    (match src.[!i] with
     | '"' ->
       blank !i;
       incr i;
       let fin = ref false in
       while (not !fin) && !i < n do
         (match src.[!i] with
          | '\\' when !i + 1 < n ->
            blank !i;
            blank (!i + 1);
            incr i
          | '"' -> fin := true
          | _ -> blank !i);
         incr i
       done
     | '{' ->
       (* {tag|…|tag} quoted string: scan the tag (lowercase/_ only). *)
       let j = ref (!i + 1) in
       while !j < n && (src.[!j] = '_' || (src.[!j] >= 'a' && src.[!j] <= 'z')) do
         incr j
       done;
       if !j < n && src.[!j] = '|' then begin
         let close = "|" ^ String.sub src (!i + 1) (!j - !i - 1) ^ "}" in
         let nc = String.length close in
         let k = ref (!j + 1) in
         while
           !k + nc <= n && not (String.equal (String.sub src !k nc) close)
         do
           incr k
         done;
         let stop = min n (!k + nc) in
         for p = !i to stop - 1 do
           blank p
         done;
         i := stop
       end
       else incr i
     | '(' when !i + 1 < n && src.[!i + 1] = '*' ->
       let depth = ref 0 in
       let fin = ref false in
       while (not !fin) && !i < n do
         if !i + 1 < n && src.[!i] = '(' && src.[!i + 1] = '*' then begin
           incr depth;
           blank !i;
           blank (!i + 1);
           i := !i + 2
         end
         else if !i + 1 < n && src.[!i] = '*' && src.[!i + 1] = ')' then begin
           decr depth;
           blank !i;
           blank (!i + 1);
           i := !i + 2;
           if !depth = 0 then fin := true
         end
         else begin
           blank !i;
           incr i
         end
       done
     | _ -> incr i)
  done;
  Bytes.to_string out

(* Top-level mutable globals: a column-0 [let] (or [let rec]) binding
   a plain identifier — a value, not a function — whose body (up to
   the next column-0 line) creates a [ref] or a [Hashtbl]. Function
   bindings are fine: their state is per-call. *)
let count_mutable_globals src =
  let src = strip_literals src in
  let lines = String.split_on_char '\n' src in
  let starts_at_col0 l = String.length l > 0 && l.[0] <> ' ' && l.[0] <> '\t' in
  let binding_of l =
    (* "let x = ..." / "let rec x = ..." / "let x : t = ..." — value
       iff the pattern before '=' is one identifier (plus optional
       type annotation). *)
    if not (String.length l > 4 && String.sub l 0 4 = "let ") then None
    else
      match String.index_opt l '=' with
      | None -> None
      | Some eq ->
        let pat = String.trim (String.sub l 4 (eq - 4)) in
        let pat =
          if String.length pat > 4 && String.sub pat 0 4 = "rec " then
            String.trim (String.sub pat 4 (String.length pat - 4))
          else pat
        in
        let pat =
          match String.index_opt pat ':' with
          | Some c -> String.trim (String.sub pat 0 c)
          | None -> pat
        in
        if pat <> "" && String.for_all is_ident_char pat then Some pat else None
  in
  let count = ref 0 in
  let rec go = function
    | [] -> ()
    | line :: rest ->
      (match binding_of line with
       | None -> go rest
       | Some _name ->
         let body, rest' =
           let rec take acc = function
             | l :: ls when not (starts_at_col0 l) -> take (l :: acc) ls
             | ls -> (List.rev acc, ls)
           in
           take [ line ] rest
         in
         let text = String.concat "\n" body in
         if count_token text "ref" > 0 || count_substring text "Hashtbl.create" > 0
         then incr count;
         go rest')
  in
  go lines;
  !count

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then ml_files p
         else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
         then [ p ]
         else [])

let rec dune_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then dune_files p
         else if String.equal f "dune" then [ p ]
         else [])

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "lib" in
  let bin = if Array.length Sys.argv > 2 then Sys.argv.(2) else "bin" in
  let errors = ref 0 in
  let complain fmt = Printf.ksprintf (fun s -> incr errors; prerr_endline s) fmt in
  List.iter
    (fun path ->
      let uses =
        let src = read_file path in
        List.fold_left (fun n name -> n + count_substring src name) 0 naive_names
      in
      let allowed =
        match List.assoc_opt path naive_allowlist with Some n -> n | None -> 0
      in
      if uses > allowed then
        complain
          "lint: %s: %d mention(s) of `Naive/naive_threshold, %d allowed — \
           every run plans; the unplanned interpreter is the test oracle \
           (test/tgd_oracle.ml)"
          path uses allowed)
    (ml_files root @ ml_files bin);
  List.iter
    (fun path ->
      let src = read_file path in
      (* Path relative to the lib root, for allowlist matching. *)
      let rel =
        let prefix = root ^ Filename.dir_sep in
        if String.length path > String.length prefix
           && String.equal (String.sub path 0 (String.length prefix)) prefix
        then String.sub path (String.length prefix) (String.length path - String.length prefix)
        else path
      in
      if Filename.check_suffix path ".ml" && not (Sys.file_exists (path ^ "i"))
      then
        complain
          "lint: %s: no interface — every lib/ module needs a .mli (the \
           interface carries the invariants; see lib/xml for the pattern)"
          rel;
      let magic = count_substring src "Obj.magic" in
      if magic > 0 then
        complain "lint: %s: %d use(s) of Obj.magic (never allowed in lib/)" rel magic;
      let fw = count_substring src "failwith" in
      let allowed = match List.assoc_opt rel allowlist with Some n -> n | None -> 0 in
      if fw > allowed then
        complain
          "lint: %s: %d use(s) of failwith, %d allowed — report a Clip_diag \
           diagnostic instead (see lib/diag)"
          rel fw allowed;
      let ia = count_substring src "invalid_arg" in
      let allowed =
        match List.assoc_opt rel invalid_arg_allowlist with Some n -> n | None -> 0
      in
      if ia > allowed then
        complain
          "lint: %s: %d use(s) of invalid_arg, %d allowed — input a user can \
           supply must be a Clip_diag diagnostic (see lib/diag); a genuine \
           precondition goes in the allowlist"
          rel ia allowed;
      if Filename.check_suffix path ".ml" && String.starts_with ~prefix:"xml/" rel then begin
        let code = strip_literals src in
        let calls = count_prefix code "int_of_string" + count_prefix code "float_of_string" in
        let allowed =
          match List.assoc_opt rel number_allowlist with Some n -> n | None -> 0
        in
        if calls > allowed then
          complain
            "lint: %s: %d use(s) of int_of_string*/float_of_string*, %d allowed \
             — they read OCaml literal syntax; scan the XML form instead (see \
             Atom.of_bytes)"
            rel calls allowed
      end;
      if List.exists (String.equal rel) poly_files then begin
        let code = strip_literals src in
        let calls =
          List.fold_left (fun n call -> n + count_token code call) 0 poly_calls
        in
        let allowed =
          match List.assoc_opt rel poly_allowlist with Some n -> n | None -> 0
        in
        if calls > allowed then
          complain
            "lint: %s: %d polymorphic lookup(s) (List.mem, List.assoc, \
             List.assoc_opt, List.mem_assoc, Stdlib.compare), %d allowed — \
             compare with String.equal, Path.equal or a match"
            rel calls allowed
      end;
      (let code = strip_literals src in
       let uses =
         List.fold_left (fun n name -> n + count_substring code name) 0 cache_names
       in
       let allowed =
         match List.assoc_opt rel cache_allowlist with Some n -> n | None -> 0
       in
       if uses > allowed then
         complain
           "lint: %s: %d use(s) of Ephemeron/Domain.DLS, %d allowed — runs \
            share no cache: keep per-run state in the evaluator's context"
           rel uses allowed);
      if Filename.check_suffix path ".ml" then begin
        let globals = count_mutable_globals src in
        let allowed =
          match List.assoc_opt rel mutable_allowlist with Some n -> n | None -> 0
        in
        if globals > allowed then
          complain
            "lint: %s: %d top-level ref/Hashtbl value binding(s), %d allowed — \
             run-scoped state belongs in a Clip_run context; cross-domain \
             state must be Atomic or mutex-guarded (then allowlist it here)"
            rel globals allowed
      end)
    (ml_files root);
  List.iter
    (fun path ->
      let src = read_file path in
      if
        count_substring src "(library" > 0
        && not
             (count_substring src "(instrumentation" > 0
             && count_substring src "bisect_ppx" > 0)
      then
        complain
          "lint: %s: library stanza without (instrumentation (backend \
           bisect_ppx)) — the coverage job cannot see this library"
          path)
    (dune_files root);
  if !errors > 0 then exit 1 else print_endline "lint: lib/ and bin/ are clean"
