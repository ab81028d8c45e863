(* The parallel batch layer: Clip_par.map must be a deterministic
   drop-in for List.map — byte-identical, order-identical output and
   exactly-merged counters for any job count — and the layers below
   must be domain-safe (Symbol interning, per-task contexts).

   These tests exercise real domains; keep batch sizes small so the
   suite stays fast on single-core machines. *)

module S = Clip_scenarios
module Node = Clip_xml.Node
module Engine = Clip_core.Engine
module C = Clip_obs.Counters

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A batch of pairwise-different documents, so an ordering or
   task-mixup bug cannot hide behind identical outputs. *)
let batch seeds =
  List.map
    (fun seed ->
      S.Deptdb.synthetic_instance
        ~depts:(2 + (seed mod 7))
        ~projs:(1 + (seed mod 3))
        ~emps:(2 + (seed mod 5)))
    seeds

(* Render inside the task, as the CLI does: "byte-identical stdout" is
   literally what comparing these strings checks. *)
let eval (sc : S.Figures.t) ~backend ?obs doc =
  let ctx = Clip_run.create ?counters:obs () in
  Clip_xml.Printer.to_pretty_string
    (Engine.run ~ctx ~backend
       ~minimum_cardinality:sc.minimum_cardinality sc.mapping doc)

let backends_of (sc : S.Figures.t) =
  if sc.minimum_cardinality then [ ("tgd", `Tgd); ("xquery", `Xquery) ]
  else [ ("tgd", `Tgd) ]

(* --- Differential: parallel == sequential, every figure x backend --- *)

let test_differential () =
  List.iter
    (fun (sc : S.Figures.t) ->
      List.iter
        (fun (bname, backend) ->
          let docs = S.Deptdb.instance :: batch [ 0; 1; 2; 3; 4 ] in
          let seq =
            Clip_par.map ~jobs:1 (fun ~obs doc -> eval sc ~backend ~obs doc) docs
          in
          let par =
            Clip_par.map ~jobs:4 (fun ~obs doc -> eval sc ~backend ~obs doc) docs
          in
          checkb
            (Printf.sprintf "%s/%s: --jobs 4 byte- and order-identical"
               sc.name bname)
            true (seq = par))
        (backends_of sc))
    S.Figures.all

(* Randomised batches: any document multiset, any job count. *)
let prop_differential =
  QCheck.Test.make ~count:20 ~name:"par: map ~jobs:n == List.map, random batches"
    QCheck.(pair (list_of_size Gen.(1 -- 8) (int_bound 30)) (1 -- 6))
    (fun (seeds, jobs) ->
      let docs = batch seeds in
      let sc = S.Figures.fig6 in
      let seq = List.map (fun doc -> eval sc ~backend:`Tgd doc) docs in
      let par =
        Clip_par.map ~jobs (fun ~obs doc -> eval sc ~backend:`Tgd ~obs doc) docs
      in
      seq = par)

(* --- Counter merge: per-domain sinks sum to the sequential totals --- *)

let test_counter_merge () =
  List.iter
    (fun (sc : S.Figures.t) ->
      List.iter
        (fun (bname, backend) ->
          let docs = S.Deptdb.instance :: batch [ 1; 3; 5; 7 ] in
          let cs = C.create () in
          ignore
            (Clip_par.map ~jobs:1 ~obs:cs
               (fun ~obs doc -> eval sc ~backend ~obs doc)
               docs);
          let cp = C.create () in
          ignore
            (Clip_par.map ~jobs:4 ~obs:cp
               (fun ~obs doc -> eval sc ~backend ~obs doc)
               docs);
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s/%s: merged counters = sequential" sc.name bname)
            (C.to_assoc cs) (C.to_assoc cp))
        (backends_of sc))
    S.Figures.all

(* --- Failure determinism: lowest failing index wins ----------------- *)

exception Boom of int

let test_exception_determinism () =
  for _ = 1 to 5 do
    match
      Clip_par.map ~jobs:4
        (fun ~obs:_ i -> if i mod 2 = 1 then raise (Boom i) else i)
        [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    with
    | _ -> Alcotest.fail "expected an exception"
    | exception Boom i -> checki "lowest failing index raises" 1 i
  done

(* --- Edge cases pinned by the clip_par.mli contract ----------------- *)

let test_edge_cases () =
  let id ~obs:_ i = i * i in
  (* empty batch: [] back, no domain spawned (any jobs value) *)
  List.iter
    (fun jobs ->
      checkb
        (Printf.sprintf "empty batch, jobs=%d" jobs)
        true
        (Clip_par.map ~jobs id [] = []))
    [ -3; 0; 1; 4; 64 ];
  checkb "empty batch (map_results)" true
    (Clip_par.map_results ~jobs:4 (fun ~obs:_ () -> Ok ()) [] = []);
  (* jobs larger than the task count: clamped, output unchanged *)
  let items = [ 1; 2; 3 ] in
  let expected = List.map (fun i -> i * i) items in
  checkb "jobs=64 > 3 tasks" true (Clip_par.map ~jobs:64 id items = expected);
  (* jobs <= 0: clamped to 1, i.e. sequential on the calling domain *)
  List.iter
    (fun jobs ->
      checkb
        (Printf.sprintf "jobs=%d clamps to sequential" jobs)
        true
        (Clip_par.map ~jobs id items = expected))
    [ 0; -1; min_int ];
  (* single task: sequential even when jobs is large *)
  checkb "one task, jobs=8" true (Clip_par.map ~jobs:8 id [ 7 ] = [ 49 ]);
  (* map_results isolation on the same clamped paths: the Error slot
     stays in place, the survivors are untouched *)
  let part ~obs:_ i =
    if i = 2 then Error [ Clip_diag.error ~code:"CLIP-TEST-001" "nope" ]
    else Ok (i * 10)
  in
  List.iter
    (fun jobs ->
      match Clip_par.map_results ~jobs part [ 1; 2; 3 ] with
      | [ Ok 10; Error [ d ]; Ok 30 ] ->
        Alcotest.(check string)
          (Printf.sprintf "jobs=%d: slot keeps its diagnostics" jobs)
          "CLIP-TEST-001" d.Clip_diag.code
      | _ -> Alcotest.failf "jobs=%d: slots misplaced" jobs)
    [ -1; 1; 64 ]

(* The core-count clamp, checked as a pure function: no domain is
   spawned, however large the request. *)
let test_clamp_jobs () =
  List.iter
    (fun (cores, jobs, expected) ->
      checki
        (Printf.sprintf "cores=%d jobs=%s" cores
           (match jobs with None -> "default" | Some j -> string_of_int j))
        expected
        (Clip_par.clamp_jobs ~cores jobs))
    [
      (2, None, 2); (1, None, 1); (2, Some 1, 1); (2, Some 2, 2);
      (2, Some 4, 2); (1, Some 64, 1); (8, Some 3, 3); (4, Some max_int, 4);
      (4, Some 0, 1); (4, Some min_int, 1); (0, None, 1); (0, Some 5, 1);
    ]

(* --- Symbol interning under concurrent domains ---------------------- *)

let test_symbol_concurrent () =
  let per_domain = 200 in
  let domains = 4 in
  let tags d i = Printf.sprintf "par-sym-%d" ((d * per_domain) + (i mod 50)) in
  let worker d () =
    Array.init per_domain (fun i ->
        let s = tags d i in
        (s, Clip_xml.Symbol.intern s))
  in
  let spawned = List.init domains (fun d -> Domain.spawn (worker d)) in
  let all = List.concat_map (fun h -> Array.to_list (Domain.join h)) spawned in
  (* Every returned id resolves back to the interned string... *)
  List.iter
    (fun (s, id) ->
      Alcotest.(check string) "id resolves to its string" s
        (Clip_xml.Symbol.name id))
    all;
  (* ...and interning is idempotent across the table that resulted. *)
  List.iter
    (fun (s, id) ->
      checkb ("re-intern " ^ s) true (Clip_xml.Symbol.intern s = id))
    all

(* --- One context, alternating documents ----------------------------- *)

let test_ctx_alternating_docs () =
  let sc = S.Figures.fig6 in
  let doc_a = S.Deptdb.instance in
  let doc_b = S.Deptdb.synthetic_instance ~depts:3 ~projs:2 ~emps:2 in
  (* Alternating documents through one context must stay correct. *)
  let ctx = Clip_run.create () in
  let direct doc = Engine.run ~backend:`Tgd sc.mapping doc in
  let via_ctx doc = Engine.run ~ctx ~backend:`Tgd sc.mapping doc in
  List.iter
    (fun doc ->
      checkb "alternating docs through one ctx stays correct" true
        (Node.equal (direct doc) (via_ctx doc)))
    [ doc_a; doc_b; doc_a; doc_b; doc_a ]

(* --- Ordered streaming pipeline (stream_results) -------------------- *)

(* A producer that hands out [0 .. n-1], optionally failing at
   [err_at]. *)
let counter_producer ?err_at n =
  let i = ref 0 in
  fun () ->
    if Some !i = err_at then
      Error [ Clip_diag.error ~code:"CLIP-TEST-002" "producer failed" ]
    else if !i >= n then Ok None
    else begin
      let v = !i in
      incr i;
      Ok (Some v)
    end

let test_stream_ordered () =
  List.iter
    (fun jobs ->
      let consumed = ref [] in
      let r =
        Clip_par.stream_results ~jobs
          ~produce:(counter_producer 25)
          ~consume:(fun v -> consumed := v :: !consumed)
          (fun ~obs:_ i -> Ok (i * i))
      in
      checkb (Printf.sprintf "jobs=%d returns Ok" jobs) true (r = Ok ());
      checkb
        (Printf.sprintf "jobs=%d consumes in production order" jobs)
        true
        (List.rev !consumed = List.init 25 (fun i -> i * i)))
    [ 1; 2; 4; 64 ]

let test_stream_counters () =
  (* Counters merged through the pipeline are a sum over items, so
     they cannot depend on the job count — same contract as map. *)
  let totals jobs =
    let c = C.create () in
    let r =
      Clip_par.stream_results ~jobs ~obs:c
        ~produce:(counter_producer 12)
        ~consume:ignore
        (fun ~(obs : C.t) i ->
          obs.nodes_scanned <- obs.nodes_scanned + i;
          obs.child_steps <- obs.child_steps + 1;
          Ok i)
    in
    checkb "ok" true (r = Ok ());
    C.to_assoc c
  in
  checkb "counter totals independent of jobs" true (totals 1 = totals 4)

let test_stream_failures () =
  (* A task Error stops the pipeline: every item before it is consumed,
     nothing at or after it is, and its diagnostics come back. *)
  List.iter
    (fun jobs ->
      let consumed = ref [] in
      match
        Clip_par.stream_results ~jobs
          ~produce:(counter_producer 20)
          ~consume:(fun v -> consumed := v :: !consumed)
          (fun ~obs:_ i ->
            if i = 5 then
              Error [ Clip_diag.error ~code:"CLIP-TEST-001" "task 5" ]
            else Ok i)
      with
      | Ok () -> Alcotest.failf "jobs=%d: expected the task error" jobs
      | Error [ d ] ->
        Alcotest.(check string)
          (Printf.sprintf "jobs=%d: task diagnostics" jobs)
          "CLIP-TEST-001" d.Clip_diag.code;
        checkb
          (Printf.sprintf "jobs=%d: exact prefix consumed" jobs)
          true
          (List.rev !consumed = [ 0; 1; 2; 3; 4 ])
      | Error _ -> Alcotest.failf "jobs=%d: unexpected diagnostics" jobs)
    [ 1; 4 ];
  (* A producer Error surfaces after the items before it. *)
  List.iter
    (fun jobs ->
      let consumed = ref [] in
      match
        Clip_par.stream_results ~jobs
          ~produce:(counter_producer ~err_at:3 20)
          ~consume:(fun v -> consumed := v :: !consumed)
          (fun ~obs:_ i -> Ok i)
      with
      | Ok () -> Alcotest.failf "jobs=%d: expected the producer error" jobs
      | Error [ d ] ->
        Alcotest.(check string)
          (Printf.sprintf "jobs=%d: producer diagnostics" jobs)
          "CLIP-TEST-002" d.Clip_diag.code;
        checkb
          (Printf.sprintf "jobs=%d: items before the failure consumed" jobs)
          true
          (List.rev !consumed = [ 0; 1; 2 ])
      | Error _ -> Alcotest.failf "jobs=%d: unexpected diagnostics" jobs)
    [ 1; 4 ];
  (* A task exception re-raises on the caller. *)
  List.iter
    (fun jobs ->
      match
        Clip_par.stream_results ~jobs
          ~produce:(counter_producer 10)
          ~consume:ignore
          (fun ~obs:_ i -> if i = 4 then raise (Boom i) else Ok i)
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom i -> checki (Printf.sprintf "jobs=%d raises" jobs) 4 i)
    [ 1; 4 ];
  (* An empty stream is Ok without consuming anything. *)
  let consumed = ref [] in
  checkb "empty stream" true
    (Clip_par.stream_results ~jobs:4
       ~produce:(counter_producer 0)
       ~consume:(fun v -> consumed := v :: !consumed)
       (fun ~obs:_ i -> Ok i)
     = Ok ()
    && !consumed = [])

(* Randomised producer failure: for any stream length, failure point
   and job count, a producer error after N items surfaces as exactly
   that error, with exactly the N items before it consumed, in
   production order — no item at or past the failure leaks through,
   however the pool schedules the in-flight tasks. *)
let prop_stream_producer_error =
  QCheck.Test.make ~count:100
    ~name:"par: stream producer error after N items — exact ordered prefix"
    QCheck.(triple (0 -- 30) (0 -- 30) (1 -- 8))
    (fun (n, err, jobs) ->
      let err_at = min err n in
      let consumed = ref [] in
      match
        Clip_par.stream_results ~jobs
          ~produce:(counter_producer ~err_at (n + 5))
          ~consume:(fun v -> consumed := v :: !consumed)
          (fun ~obs:_ i -> Ok (i * 10))
      with
      | Ok () -> false
      | Error [ d ] ->
        String.equal d.Clip_diag.code "CLIP-TEST-002"
        && List.rev !consumed = List.init err_at (fun i -> i * 10)
      | Error _ -> false)

let () =
  Alcotest.run "par"
    [
      ( "differential",
        [
          Alcotest.test_case "figures x backends, jobs=4" `Quick
            test_differential;
          QCheck_alcotest.to_alcotest prop_differential;
        ] );
      ( "counters",
        [ Alcotest.test_case "merge = sequential" `Quick test_counter_merge ] );
      ( "failures",
        [
          Alcotest.test_case "lowest index raises" `Quick
            test_exception_determinism;
        ] );
      ( "edges",
        [
          Alcotest.test_case "clamping and empty batches" `Quick test_edge_cases;
          Alcotest.test_case "jobs clamp to the core count" `Quick test_clamp_jobs;
        ] );
      ( "symbol",
        [
          Alcotest.test_case "concurrent interning" `Quick
            test_symbol_concurrent;
        ] );
      ( "contexts",
        [
          Alcotest.test_case "one context, alternating documents" `Quick
            test_ctx_alternating_docs;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "ordered consumption" `Quick test_stream_ordered;
          Alcotest.test_case "counter totals independent of jobs" `Quick
            test_stream_counters;
          Alcotest.test_case "failure propagation" `Quick test_stream_failures;
          QCheck_alcotest.to_alcotest prop_stream_producer_error;
        ] );
    ]
