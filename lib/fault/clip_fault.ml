(* Deterministic fault injection.

   A fixed registry of site-named failure points is compiled into the
   stack at its trust boundaries (parser entry, planner, both
   executors, the parallel pool's task wrapper). In production
   nothing is armed and every [hit] is one atomic load and a branch. A
   test harness arms exactly one fault — site and firing hit — and
   that hit raises a [Clip_diag.Fail] carrying the stable
   [CLIP-FLT-002] code, so the fault travels the exact error path a
   real failure would and escapes the [*_result] entry points as an
   [Error].

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
   tooling: library semantics are unchanged while disarmed. *)

module Site = struct
  let xml_parse = "xml.parse"
  let plan_build = "plan.build"
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
    Site.tgd_execute;
    Site.xquery_execute;
    Site.par_task;
  ]

type armed = {
  asite : string;
  afrom : int; (* the firing hit, 1-based *)
  ahits : int Atomic.t; (* hits of [asite] so far *)
  afired : int Atomic.t;
}

let state : armed option Atomic.t = Atomic.make None

let disarm () = Atomic.set state None

let arm ?(from = 1) site =
  if not (List.mem site all_sites) then
    invalid_arg (Printf.sprintf "Clip_fault.arm: unknown site %S" site);
  Atomic.set state
    (Some
       {
         asite = site;
         afrom = max 1 from;
         ahits = Atomic.make 0;
         afired = Atomic.make 0;
       })

(* A tiny splitmix-style mix so consecutive seeds pick well-spread
   (site, ordinal) pairs; no [Random] involved, so harness runs
   replay from the seed alone. *)
let arm_seeded ~seed =
  let z = (seed * 0x9E3779B1) lxor (seed lsr 13) in
  let z = z land max_int in
  let n = List.length all_sites in
  let site = List.nth all_sites (z mod n) in
  let from = 1 + (z / n mod 3) in
  arm ~from site;
  (site, from)

let armed_site () =
  match Atomic.get state with None -> None | Some a -> Some a.asite

let active () = Atomic.get state <> None

let fired () =
  match Atomic.get state with None -> 0 | Some a -> Atomic.get a.afired

let fire ?obs a site hit =
  Atomic.incr a.afired;
  (match obs with
   | Some (c : Clip_obs.Counters.t) -> c.faults_injected <- c.faults_injected + 1
   | None -> ());
  Clip_diag.fail
    (Clip_diag.error ~code:Clip_diag.Codes.fault_permanent
       (Printf.sprintf "injected fault at %s (hit %d)" site hit))

let hit ?obs site =
  match Atomic.get state with
  | None -> ()
  | Some a ->
    if String.equal a.asite site then begin
      let n = 1 + Atomic.fetch_and_add a.ahits 1 in
      if n = a.afrom then fire ?obs a site n
    end

(* "site[:FROM]" — the CLI's CLIP_FAULT format. *)
let arm_spec spec =
  match String.split_on_char ':' spec with
  | [] | [ "" ] -> Error "empty fault spec"
  | site :: rest ->
    let from =
      match rest with
      | [] -> Ok 1
      | [ f ] -> (
        match int_of_string_opt f with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (Printf.sprintf "bad hit %S in fault spec" f))
      | _ -> Error (Printf.sprintf "bad fault spec %S" spec)
    in
    Result.bind from (fun from ->
        if List.mem site all_sites then Ok (arm ~from site)
        else
          Error
            (Printf.sprintf "unknown fault site %S (known: %s)" site
               (String.concat ", " all_sites)))
