(* Failure-boundary suite: runs that fail on a real input leave
   nothing behind, deadlines and cooperative cancellation
   (Clip_run.Control), and graceful batch degradation
   (Clip_par.map_results).

   Every failure here comes from a real input or limit: a step budget
   too small to finish (CLIP-LIM-004), a document whose root is not
   the mapping's (CLIP-TGD-001), an expired deadline (CLIP-LIM-005) or
   a set cancel flag (CLIP-LIM-006). *)

module D = Clip_diag
module R = Clip_run
module C = Clip_obs.Counters
module Engine = Clip_core.Engine
module Fig = Clip_scenarios.Figures
module Dept = Clip_scenarios.Deptdb
module Node = Clip_xml.Node

let codes ds = String.concat "," (List.map (fun d -> d.D.code) ds)
let has_code code ds = List.exists (fun d -> String.equal d.D.code code) ds

let sc = Fig.fig6
let doc = Dept.synthetic_instance ~depts:8 ~projs:8 ~emps:6

(* A document the mapping cannot read: its root is not the source
   root, so the run fails with the engine's CLIP-TGD-001. *)
let wrong_root = Node.elem "wrong" []

let engine ?ctx ?limits ~backend source =
  let ctx = match ctx with Some c -> c | None -> R.create () in
  Engine.run_result ~ctx ?limits ~backend
    ~minimum_cardinality:sc.Fig.minimum_cardinality sc.Fig.mapping source

(* No poisoning: a run stopped mid-evaluation by its step budget must
   leave nothing behind in its context — the same context re-runs
   cleanly under default limits and agrees with a fresh run. *)
let test_no_poisoning () =
  let budget = 200 in
  let tight = { D.Limits.default with max_eval_steps = budget } in
  List.iter
    (fun (bname, backend) ->
      let expected =
        match engine ~backend doc with
        | Ok n -> n
        | Error ds -> Alcotest.failf "%s: fresh run failed: %s" bname (codes ds)
      in
      let counters = C.create () in
      let ctx = R.create ~counters () in
      (match engine ~ctx ~limits:tight ~backend doc with
      | Error ds when has_code D.Codes.limit_eval_steps ds -> ()
      | Error ds ->
        Alcotest.failf "%s: expected CLIP-LIM-004, got [%s]" bname (codes ds)
      | Ok _ -> Alcotest.failf "%s: run finished within %d steps" bname budget);
      if counters.C.lim_ticks <= budget then
        Alcotest.failf "%s: stopped after %d steps, not mid-run" bname
          counters.C.lim_ticks;
      match engine ~ctx ~backend doc with
      | Error ds ->
        Alcotest.failf "%s: context poisoned after CLIP-LIM-004: [%s]" bname
          (codes ds)
      | Ok n ->
        if not (Node.equal expected n) then
          Alcotest.failf "%s: rerun on the same context differs from a fresh run"
            bname)
    [ ("tgd", `Tgd); ("xquery", `Xquery) ]

(* Slot isolation + exact counter merge. Slot 3 holds a document with
   the wrong root and fails with CLIP-TGD-001; the other five are
   identical, so each contributes the same counter increments, and the
   survivors must sum to exactly the fault-free totals of 5 tasks,
   whatever the task-to-domain partition. *)
let eval_task ~obs source =
  let ctx = R.create ~counters:obs () in
  Result.map ignore (engine ~ctx ~backend:`Tgd source)

let test_batch_degradation () =
  let n = 6 and bad = 3 in
  let units = List.init n (fun i -> if i = bad then wrong_root else doc) in
  let c5 = C.create () in
  List.iter
    (function
      | Ok () -> ()
      | Error ds -> Alcotest.failf "fault-free task failed: %s" (codes ds))
    (Clip_par.map_results ~jobs:1 ~obs:c5 eval_task
       (List.init (n - 1) (fun _ -> doc)));
  List.iter
    (fun jobs ->
      let cf = C.create () in
      let rs = Clip_par.map_results ~jobs ~obs:cf eval_task units in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: exactly one failing slot" jobs)
        1
        (List.length (List.filter Result.is_error rs));
      List.iteri
        (fun i r ->
          match (i = bad, r) with
          | true, Error ds when has_code D.Codes.tgd_eval ds -> ()
          | true, Error ds ->
            Alcotest.failf "jobs=%d: slot %d carries [%s]" jobs i (codes ds)
          | true, Ok () -> Alcotest.failf "jobs=%d: slot %d succeeded" jobs i
          | false, Ok () -> ()
          | false, Error ds ->
            Alcotest.failf "jobs=%d: slot %d failed [%s]" jobs i (codes ds))
        rs;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "jobs=%d: survivors' counters = fault-free 5-task totals"
           jobs)
        (C.to_assoc c5) (C.to_assoc cf))
    [ 1; 4 ]

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
      ( "degradation",
        [
          Alcotest.test_case "no session/memo poisoning" `Quick
            test_no_poisoning;
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
