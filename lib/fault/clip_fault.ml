(* Deterministic fault injection.

   A fixed registry of site-named failure points is compiled into the
   stack at its trust boundaries (parser entry, planner, index build,
   both executors, the parallel pool's task wrapper). In production nothing is armed and every [hit] is one
   atomic load and a branch. A test harness arms exactly one fault —
   site, first firing hit, firing count, transient/permanent class —
   and the chosen hit raises a [Clip_diag.Fail] carrying a stable
   [CLIP-FLT-*] code, so the fault travels the exact error path a real
   failure would and escapes the [*_result] entry points as an [Error].

   Determinism: arming is explicit (by site and hit ordinal, or
   derived from a seed by [arm_seeded]) and hit counting is a
   process-wide atomic, so a single-domain run replays identically
   from (armed state, inputs). Under a multi-domain pool the hit that
   fires is scheduling-dependent; harnesses that need a specific task
   to fail run the pool with [jobs = 1] (see test/test_fault.ml).

   The armed state is deliberately ambient — the whole point of fault
   injection is to perturb deep call sites without threading a config
   value through every API — and is a single [Atomic] so arming from
   one domain is visible to workers on others. This is test-only
   tooling: library semantics are unchanged while disarmed, which the
   obs bench's disabled-path overhead gate (< 5%) covers. *)

type kind = Transient | Permanent

let code = function
  | Transient -> Clip_diag.Codes.fault_transient
  | Permanent -> Clip_diag.Codes.fault_permanent

module Site = struct
  let xml_parse = "xml.parse"
  let plan_build = "plan.build"
  let index_build = "index.build"
  let tgd_execute = "tgd.execute"
  let xquery_execute = "xquery.execute"
  let par_task = "par.task"
end

(* Keep in registration order: harnesses sweep this list and a new
   site added below is automatically covered. *)
let all_sites =
  [
    Site.xml_parse;
    Site.plan_build;
    Site.index_build;
    Site.tgd_execute;
    Site.xquery_execute;
    Site.par_task;
  ]

type armed = {
  asite : string;
  akind : kind;
  afrom : int; (* first firing hit, 1-based *)
  atimes : int; (* consecutive firing hits *)
  ahits : int Atomic.t; (* hits of [asite] so far *)
  afired : int Atomic.t;
}

let state : armed option Atomic.t = Atomic.make None

let disarm () = Atomic.set state None

let arm ?(kind = Permanent) ?(from = 1) ?(times = 1) site =
  if not (List.mem site all_sites) then
    invalid_arg (Printf.sprintf "Clip_fault.arm: unknown site %S" site);
  Atomic.set state
    (Some
       {
         asite = site;
         akind = kind;
         afrom = max 1 from;
         atimes = max 1 times;
         ahits = Atomic.make 0;
         afired = Atomic.make 0;
       })

(* A tiny splitmix-style mix so consecutive seeds pick well-spread
   (site, ordinal, kind) triples; no [Random] involved, so harness
   runs replay from the seed alone. *)
let arm_seeded ~seed =
  let z = (seed * 0x9E3779B1) lxor (seed lsr 13) in
  let z = z land max_int in
  let n = List.length all_sites in
  let site = List.nth all_sites (z mod n) in
  let from = 1 + (z / n mod 3) in
  let kind = if z / (n * 3) mod 2 = 0 then Transient else Permanent in
  arm ~kind ~from site;
  (site, from, kind)

let armed_site () =
  match Atomic.get state with None -> None | Some a -> Some a.asite

let active () = Atomic.get state <> None

let fired () =
  match Atomic.get state with None -> 0 | Some a -> Atomic.get a.afired

let fire ?(obs = Clip_obs.none) a site hit =
  Atomic.incr a.afired;
  Clip_obs.fault_injected obs;
  Clip_diag.fail
    (Clip_diag.error ~code:(code a.akind)
       ~hints:
         [
           (match a.akind with
            | Transient -> "transient: a fresh attempt may succeed (retryable)"
            | Permanent -> "permanent: retrying cannot help");
         ]
       (Printf.sprintf "injected %s fault at %s (hit %d)"
          (match a.akind with Transient -> "transient" | Permanent -> "permanent")
          site hit))

let hit ?obs site =
  match Atomic.get state with
  | None -> ()
  | Some a ->
    if String.equal a.asite site then begin
      let n = 1 + Atomic.fetch_and_add a.ahits 1 in
      if n >= a.afrom && n < a.afrom + a.atimes then fire ?obs a site n
    end

(* "site[:FROM[:KIND[:TIMES]]]" — the CLI's CLIP_FAULT format. *)
let arm_spec spec =
  match String.split_on_char ':' spec with
  | [] | [ "" ] -> Error "empty fault spec"
  | site :: rest ->
    let parse_int what s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (Printf.sprintf "bad %s %S in fault spec" what s)
    in
    let kind_of = function
      | "transient" -> Ok Transient
      | "permanent" -> Ok Permanent
      | s -> Error (Printf.sprintf "bad kind %S in fault spec (transient|permanent)" s)
    in
    let ( let* ) r f = Result.bind r f in
    let* from, kind, times =
      match rest with
      | [] -> Ok (1, Permanent, 1)
      | [ f ] ->
        let* f = parse_int "hit" f in
        Ok (f, Permanent, 1)
      | [ f; k ] ->
        let* f = parse_int "hit" f in
        let* k = kind_of k in
        Ok (f, k, 1)
      | [ f; k; t ] ->
        let* f = parse_int "hit" f in
        let* k = kind_of k in
        let* t = parse_int "times" t in
        Ok (f, k, t)
      | _ -> Error (Printf.sprintf "bad fault spec %S" spec)
    in
    if List.mem site all_sites then begin
      arm ~kind ~from ~times site;
      Ok ()
    end
    else
      Error
        (Printf.sprintf "unknown fault site %S (known: %s)" site
           (String.concat ", " all_sites))
