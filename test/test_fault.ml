(* Fault-tolerance suite: deterministic fault injection (Clip_fault),
   deadlines and cooperative cancellation (Clip_run.Control), and
   graceful batch degradation (Clip_par.map_results).

   The site-walk harness sweeps {!Clip_fault.all_sites}, so a newly
   planted failure point is covered here automatically. For every site
   it asserts the three contract clauses: (a) the injected fault
   escapes the exception-free [*_result] entry points as a structured
   [Error] carrying the stable CLIP-FLT-* code; (b) nothing is left
   poisoned — re-running with the same context after disarming yields
   exactly the fault-free output; (c) under
   {!Clip_par.map_results} a fault is isolated to its input slot and
   the survivors' merged counters equal the fault-free totals. *)

module D = Clip_diag
module F = Clip_fault
module R = Clip_run
module C = Clip_obs.Counters
module Engine = Clip_core.Engine
module Fig = Clip_scenarios.Figures
module Dept = Clip_scenarios.Deptdb
module Node = Clip_xml.Node

let codes ds = String.concat "," (List.map (fun d -> d.D.code) ds)
let has_code code ds = List.exists (fun d -> String.equal d.D.code code) ds

let with_armed ?from site f =
  F.arm ?from site;
  Fun.protect ~finally:F.disarm f

let sc = Fig.fig6
let doc = Dept.synthetic_instance ~depts:8 ~projs:8 ~emps:6
let doc_text = Clip_xml.Printer.to_string doc

let backend_of site =
  if String.equal site F.Site.xquery_execute then `Xquery else `Tgd

(* The whole stack through exception-free entry points only: parse,
   then an engine run under [`Indexed] (which forces the tag-index
   build, so the index.build site fires regardless of document size). *)
let engine ?ctx ?limits ~backend source =
  let ctx = match ctx with Some c -> c | None -> R.create () in
  Engine.run_result ~ctx ?limits ~backend ~plan:`Indexed
    ~minimum_cardinality:sc.Fig.minimum_cardinality sc.Fig.mapping source

let pipeline ~backend () =
  match Clip_xml.Parser.parse_string_result doc_text with
  | Error _ as e -> e
  | Ok source -> engine ~backend source

(* One driver per site, all returning [(unit, D.t list) result]. *)
let driver site =
  if String.equal site F.Site.par_task then
    match Clip_par.map_results ~jobs:1 (fun ~obs:_ () -> Ok ()) [ () ] with
    | [ r ] -> r
    | _ -> assert false
  else Result.map ignore (pipeline ~backend:(backend_of site) ())

(* (a) every site: armed fault fires and escapes as Error CLIP-FLT-002. *)
let test_site_walk () =
  List.iter
    (fun site ->
      let r, nfired =
        with_armed site (fun () ->
            let r = driver site in
            (r, F.fired ()))
      in
      (match r with
      | Error ds when has_code D.Codes.fault_permanent ds -> ()
      | Error ds ->
        Alcotest.failf "site %s: expected %s, got [%s]" site
          D.Codes.fault_permanent (codes ds)
      | Ok () -> Alcotest.failf "site %s: armed fault did not fire" site);
      if nfired < 1 then Alcotest.failf "site %s: fired() = %d" site nfired;
      (* disarmed, the same driver succeeds *)
      match driver site with
      | Ok () -> ()
      | Error ds ->
        Alcotest.failf "site %s: still failing after disarm: [%s]" site
          (codes ds))
    F.all_sites

(* (b) no poisoning: a fault mid-run must leave nothing behind that a
   later run could pick up — the same context re-runs cleanly and
   agrees with a fresh one. *)
let test_no_poisoning () =
  let engine_sites =
    List.filter
      (fun s ->
        not
          (String.equal s F.Site.xml_parse || String.equal s F.Site.par_task))
      F.all_sites
  in
  List.iter
    (fun site ->
      let backend = backend_of site in
      let expected =
        match engine ~backend doc with
        | Ok n -> n
        | Error ds -> Alcotest.failf "fault-free baseline failed: %s" (codes ds)
      in
      let ctx = R.create () in
      with_armed site (fun () ->
          match engine ~ctx ~backend doc with
          | Ok _ -> Alcotest.failf "site %s: armed fault did not fire" site
          | Error _ -> ());
      match engine ~ctx ~backend doc with
      | Error ds ->
        Alcotest.failf "site %s: context poisoned after fault: [%s]" site
          (codes ds)
      | Ok n ->
        if not (Node.equal expected n) then
          Alcotest.failf "site %s: post-fault rerun differs from baseline" site)
    engine_sites

(* Every run plans, whatever the document's size: on the default plan
   and the paper instance (65 nodes), an armed plan.build fault still
   fires, on both backends. *)
let test_plan_build_default () =
  List.iter
    (fun backend ->
      match
        with_armed F.Site.plan_build (fun () ->
            Engine.run_result ~backend
              ~minimum_cardinality:sc.Fig.minimum_cardinality sc.Fig.mapping
              Dept.instance)
      with
      | Error ds when has_code D.Codes.fault_permanent ds -> ()
      | Error ds ->
        Alcotest.failf "expected %s, got [%s]" D.Codes.fault_permanent (codes ds)
      | Ok _ -> Alcotest.fail "plan.build did not fire on the default plan")
    [ `Tgd; `Xquery ]

(* (c) slot isolation + exact counter merge. All tasks are identical,
   so each contributes the same counter increments; survivors of a
   1-in-6 fault must sum to exactly the fault-free totals of 5 tasks,
   whatever the task-to-domain partition. *)
let eval_task ~obs () =
  let ctx = R.create ~counters:obs () in
  Result.map ignore (engine ~ctx ~backend:`Tgd doc)

let assoc c = C.to_assoc c

let test_batch_degradation () =
  let n = 6 in
  let units = List.init n (fun _ -> ()) in
  (* fault-free sequential totals for 6 and for 5 tasks *)
  let c6 = C.create () in
  List.iter
    (function
      | Ok () -> ()
      | Error ds -> Alcotest.failf "fault-free task failed: %s" (codes ds))
    (Clip_par.map_results ~jobs:1 ~obs:c6 eval_task units);
  let c5 = C.create () in
  ignore (Clip_par.map_results ~jobs:1 ~obs:c5 eval_task (List.init (n - 1) (fun _ -> ())));
  let check_run ~jobs ~from =
    let cf = C.create () in
    let rs =
      with_armed ~from F.Site.par_task (fun () ->
          Clip_par.map_results ~jobs ~obs:cf eval_task units)
    in
    let failed =
      List.filteri (fun _ r -> Result.is_error r) rs |> List.length
    in
    Alcotest.(check int)
      (Printf.sprintf "jobs=%d: exactly one failing slot" jobs)
      1 failed;
    List.iter
      (function
        | Ok () -> ()
        | Error ds ->
          if not (has_code D.Codes.fault_permanent ds) then
            Alcotest.failf "failing slot carries [%s]" (codes ds))
      rs;
    Alcotest.(check (list (pair string int)))
      (Printf.sprintf "jobs=%d: survivors' counters = fault-free 5-task totals"
         jobs)
      (assoc c5) (assoc cf)
  in
  (* sequential: hit ordinal 4 is task index 3, deterministically *)
  check_run ~jobs:1 ~from:4;
  let rs =
    with_armed ~from:4 F.Site.par_task (fun () ->
        Clip_par.map_results ~jobs:1 eval_task units)
  in
  List.iteri
    (fun i r ->
      match (i, r) with
      | 3, Error ds when has_code D.Codes.fault_permanent ds -> ()
      | 3, Error ds -> Alcotest.failf "slot 3: wrong codes [%s]" (codes ds)
      | 3, Ok () -> Alcotest.fail "slot 3: expected the injected fault"
      | _, Ok () -> ()
      | i, Error ds -> Alcotest.failf "slot %d: unexpected [%s]" i (codes ds))
    rs;
  (* parallel: which task claims the firing hit is scheduling-dependent,
     but slot isolation and counter exactness must hold regardless *)
  check_run ~jobs:4 ~from:1

(* Seeded arming and the CLI spec parser. *)
let test_arming () =
  let a = F.arm_seeded ~seed:42 in
  F.disarm ();
  let b = F.arm_seeded ~seed:42 in
  F.disarm ();
  if a <> b then Alcotest.fail "arm_seeded not deterministic";
  let site, from = a in
  if not (List.mem site F.all_sites) then
    Alcotest.failf "arm_seeded picked unregistered site %s" site;
  if from < 1 then Alcotest.failf "arm_seeded picked hit ordinal %d" from;
  (match F.arm_spec "tgd.execute:2" with
  | Ok () ->
    Alcotest.(check (option string)) "spec arms site" (Some F.Site.tgd_execute)
      (F.armed_site ());
    F.disarm ()
  | Error e -> Alcotest.failf "valid spec rejected: %s" e);
  (match F.arm_spec "no.such.site" with
  | Error _ -> ()
  | Ok () ->
    F.disarm ();
    Alcotest.fail "unknown site accepted");
  (match F.arm_spec "tgd.execute:zero" with
  | Error _ -> ()
  | Ok () ->
    F.disarm ();
    Alcotest.fail "malformed ordinal accepted");
  (* a fault spec has no class field *)
  match F.arm_spec "tgd.execute:2:permanent" with
  | Error _ -> ()
  | Ok () ->
    F.disarm ();
    Alcotest.fail "spec with a third field accepted"

(* Deadlines against an injected clock: deterministic expiry, both plan
   modes, both backends, clean structured CLIP-LIM-005. *)
let run_ctl ~plan ~backend ctx =
  Engine.run_result ~ctx ~backend ~plan
    ~minimum_cardinality:sc.Fig.minimum_cardinality sc.Fig.mapping doc

let test_deadline_expired () =
  let expired () = R.deadline ~now:(fun () -> 1.0) ~until:0.5 in
  List.iter
    (fun plan ->
      let ctx = R.create ~deadline:(expired ()) () in
      match run_ctl ~plan ~backend:`Tgd ctx with
      | Error ds when has_code D.Codes.limit_deadline ds -> ()
      | Error ds -> Alcotest.failf "expected CLIP-LIM-005, got [%s]" (codes ds)
      | Ok _ -> Alcotest.fail "expired deadline: run succeeded")
    [ `Indexed; `Auto ];
  let ctx = R.create ~deadline:(expired ()) () in
  match run_ctl ~plan:`Auto ~backend:`Xquery ctx with
  | Error ds when has_code D.Codes.limit_deadline ds -> ()
  | Error ds -> Alcotest.failf "xquery: expected CLIP-LIM-005, got [%s]" (codes ds)
  | Ok _ -> Alcotest.fail "xquery: expired deadline: run succeeded"

let test_deadline_mid_run () =
  (* A counting clock: the deadline passes on its third reading, i.e.
     after the entry check and the first 64-tick poll — so expiry is
     observed mid-evaluation, deterministically. *)
  List.iter
    (fun plan ->
      let polls = ref 0 in
      let now () =
        incr polls;
        float_of_int !polls
      in
      let c = Clip_obs.Counters.create () in
      let ctx =
        R.create ~counters:c ~deadline:(R.deadline ~now ~until:3.0) ()
      in
      match run_ctl ~plan ~backend:`Tgd ctx with
      | Error ds when has_code D.Codes.limit_deadline ds ->
        let steps = c.Clip_obs.Counters.lim_ticks in
        if steps < 64 then
          Alcotest.failf "expired before any evaluation progress (%d steps)"
            steps
      | Error ds -> Alcotest.failf "expected CLIP-LIM-005, got [%s]" (codes ds)
      | Ok _ -> Alcotest.fail "mid-run deadline never observed")
    [ `Indexed; `Auto ]

let test_cancellation () =
  (* pre-set flag: reported at the entry check, before any work *)
  List.iter
    (fun backend ->
      let ctx = R.create () in
      R.cancel ctx;
      match run_ctl ~plan:`Auto ~backend ctx with
      | Error ds when has_code D.Codes.cancelled ds -> ()
      | Error ds -> Alcotest.failf "expected CLIP-LIM-006, got [%s]" (codes ds)
      | Ok _ -> Alcotest.fail "cancelled run succeeded")
    [ `Tgd; `Xquery ];
  (* mid-run: the clock read sets the flag as a side effect, so the
     next poll (which checks cancellation before the deadline) stops
     the run — deterministic, no domains or timing involved *)
  let c = R.Cancel.create () in
  let polls = ref 0 in
  let now () =
    incr polls;
    if !polls >= 2 then R.Cancel.set c;
    0.0
  in
  let ctx = R.create ~deadline:(R.deadline ~now ~until:1e9) ~cancel:c () in
  (match run_ctl ~plan:`Auto ~backend:`Tgd ctx with
  | Error ds when has_code D.Codes.cancelled ds -> ()
  | Error ds -> Alcotest.failf "expected CLIP-LIM-006, got [%s]" (codes ds)
  | Ok _ -> Alcotest.fail "mid-run cancellation never observed");
  (* an uncontrolled context is unaffected *)
  match run_ctl ~plan:`Auto ~backend:`Tgd (R.create ()) with
  | Ok _ -> ()
  | Error ds -> Alcotest.failf "uncontrolled run failed: [%s]" (codes ds)

(* The real-clock contract behind [clip run --timeout-ms]: a runaway
   cartesian join is terminated by the deadline with CLIP-LIM-005 well
   before it would finish (its step budget is lifted so only the
   deadline can stop it). *)
let test_runaway_join () =
  let sc = Fig.fig6_cartesian in
  let big = Dept.synthetic_instance ~depts:400 ~projs:400 ~emps:2 in
  let limits = { D.Limits.default with max_eval_steps = max_int } in
  let deadline = R.deadline_after ~now:Unix.gettimeofday ~seconds:0.05 in
  let ctx = R.create ~deadline () in
  let t0 = Unix.gettimeofday () in
  let r =
    Engine.run_result ~ctx ~limits ~backend:`Tgd ~plan:`Auto
      ~minimum_cardinality:sc.Fig.minimum_cardinality sc.Fig.mapping big
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match r with
  | Error ds when has_code D.Codes.limit_deadline ds -> ()
  | Error ds -> Alcotest.failf "expected CLIP-LIM-005, got [%s]" (codes ds)
  | Ok _ -> Alcotest.fail "runaway join finished before its 50ms deadline");
  if elapsed > 10.0 then
    Alcotest.failf "deadline ignored for %.1fs (poll sites missing?)" elapsed

let () =
  Alcotest.run "fault"
    [
      ( "injection",
        [
          Alcotest.test_case "site walk: structured CLIP-FLT-002 escape" `Quick
            test_site_walk;
          Alcotest.test_case "no session/memo poisoning" `Quick
            test_no_poisoning;
          Alcotest.test_case "arming: seeded + CLIP_FAULT spec" `Quick
            test_arming;
          Alcotest.test_case "plan.build fires on the default plan, tiny input"
            `Quick test_plan_build_default;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "map_results: slot isolation, exact counters"
            `Quick test_batch_degradation;
        ] );
      ( "control",
        [
          Alcotest.test_case "deadline expired at entry (2 plans, 2 backends)"
            `Quick test_deadline_expired;
          Alcotest.test_case "deadline expires mid-run (injected clock)" `Quick
            test_deadline_mid_run;
          Alcotest.test_case "cancellation: pre-set and mid-run" `Quick
            test_cancellation;
          Alcotest.test_case "runaway cartesian join vs real deadline" `Quick
            test_runaway_join;
        ] );
    ]
