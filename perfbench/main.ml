(* The benchmark driver: one workload per process, a closed loop of one
   request at a time on one domain.

     bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   is the separate traced run that reports the per-layer metrics. The
   last line of standard output is one JSON object; the lines before it
   are the human-readable report. Exits 1 when any output check fails. *)

open Perfbench

let now = Unix.gettimeofday

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;  (** input size factor; 1.0 is the benchmark, tests use less *)
}

let usage () =
  prerr_endline
    "usage: main.exe --workload (bulk|stream|author|join) --seed N --seconds S \
     --trace (0|1) [--scale F]";
  exit 2

let parse_args () =
  let a = ref { workload = ""; seed = 1; seconds = 10.; trace = false; scale = 1. } in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest -> a := { !a with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> a := { !a with trace = v = "1" }; go rest
    | "--scale" :: v :: rest -> a := { !a with scale = float_of_string v }; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  !a

(* --- statistics -------------------------------------------------------- *)

(* Linear interpolation between closest ranks (Python's "inclusive"). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let h = q *. float (Array.length a - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((h -. float lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

(* --- host speed ---------------------------------------------------------- *)

(* The CPU may be shared: on the machine this benchmark was written on,
   a co-tenant slowed it by a third to a half for tens of seconds at a
   time, and a wall-clock figure then measures the host, not the
   program. So the end-to-end times are rescaled to a nominal host
   speed. Before a request, at most every tenth of a second, the driver
   times a fixed piece of its own work shaped like the program's:
   formatting and hashing short strings, chasing pointers through 4 MB
   kept outside the OCaml heap, and building and walking small trees.
   Each timed span is multiplied by the work's nominal time over the
   median of the eleven timings around it. No change to the program can
   change this work, so the rescaled figures move with the program and
   not with the host. The report prints the raw wall times beside them. *)
let nominal_reference = 0.0075

(* A random cyclic permutation: following it visits every slot once. *)
let cycle =
  let n = 1 lsl 20 in
  let a = Bigarray.(Array1.create int32 c_layout n) in
  for i = 0 to n - 1 do
    a.{i} <- Int32.of_int i
  done;
  let st = Random.State.make [| 7 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

type tree = { tag : string; text : string; kids : tree list }

let reference_work () =
  let tbl = Hashtbl.create 256 and b = Buffer.create 4096 and n = ref 0 in
  for i = 0 to 5_999 do
    let s = Printf.sprintf "<e k=\"%d\">%d</e>" (i land 1023) i in
    Hashtbl.replace tbl (i land 255) s;
    if Buffer.length b > 4000 then begin
      String.iter (fun c -> if c = '<' then incr n) (Buffer.contents b);
      Buffer.clear b
    end;
    Buffer.add_string b s
  done;
  let p = ref 0 in
  for _ = 1 to 20_000 do
    p := Int32.to_int cycle.{!p}
  done;
  for r = 1 to 6 do
    let rec make depth i =
      if depth = 0 then { tag = "leaf"; text = string_of_int (i + r); kids = [] }
      else
        { tag = "n" ^ string_of_int depth; text = "";
          kids = List.init 4 (fun j -> make (depth - 1) ((4 * i) + j)) }
    in
    let rec walk t =
      n := !n + String.length t.tag + String.length t.text;
      List.iter walk t.kids
    in
    walk (make 6 0)
  done;
  ignore (Sys.opaque_identity (!n + !p + Hashtbl.length tbl))

let references = ref [] (* timings of the reference work, latest first *)

let last_reference = ref neg_infinity

(* Time the reference work unless it was timed in the last tenth of a
   second ([force] times it anyway); returns the latest timing's index. *)
let reference ?(force = false) () =
  if force || now () -. !last_reference >= 0.1 then begin
    (* From a collected heap, so that it pays for no request's garbage. *)
    Gc.full_major ();
    let t0 = now () in
    reference_work ();
    last_reference := now ();
    references := (!last_reference -. t0) :: !references
  end;
  List.length !references - 1

(* [(seconds, reference index)] samples, in nominal seconds. *)
let rescale samples =
  let refs = Array.of_list (List.rev !references) in
  let n = Array.length refs in
  let w = min n 11 in
  let around =
    Array.init n (fun k ->
        let start = max 0 (min (n - w) (k - (w / 2))) in
        median (List.init w (fun j -> refs.(start + j))))
  in
  List.map (fun (dt, k) -> dt *. nominal_reference /. around.(k)) samples

(* --- running requests -------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let tally = { attempted = 0; failed = 0; problems = [] }

let fail n problem =
  tally.failed <- tally.failed + n;
  if List.length tally.problems < 5 then tally.problems <- problem :: tally.problems

(* Run and check one request. Every exception counts as a failure, so
   one escape cannot abort the run. Returns the wall time in seconds,
   which covers the request only, never the check, and the index of the
   reference timing taken just before it. *)
let measure (r : Workloads.request) run =
  tally.attempted <- tally.attempted + 1;
  let k = reference () in
  (* Each request starts from a collected heap, as a fresh `clip run`
     process would, instead of paying for its predecessor's garbage. *)
  Gc.full_major ();
  let t0 = now () in
  let res = try Ok (run ()) with e -> Error [ Printexc.to_string e ] in
  let dt = now () -. t0 in
  let problems =
    match res with
    | Error ps -> ps
    | Ok out -> ( try r.check out with e -> [ Printexc.to_string e ])
  in
  if problems <> [] then fail 1 (r.kind ^ ": " ^ String.concat "; " problems);
  (dt, k)

(* The checks each request deferred until the timed loop was over. *)
let deferred_checks reqs =
  Array.iter
    (fun (r : Workloads.request) ->
      match r.deferred () with
      | failures -> List.iter (fun (n, p) -> fail n (r.kind ^ ": " ^ p)) failures
      | exception e -> fail 1 (r.kind ^ ": " ^ Printexc.to_string e))
    reqs

let setup (w : Workloads.workload) a =
  let reqs = Array.of_list (w.make ~seed:a.seed ~scale:a.scale) in
  (* One warm-up pass over each request kind. *)
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (r : Workloads.request) ->
      if not (Hashtbl.mem seen r.kind) then begin
        Hashtbl.add seen r.kind ();
        try ignore (r.run (Clip_run.create ())) with _ -> ()
      end)
    reqs;
  reqs

(* --- untraced: the end-to-end metrics ---------------------------------- *)

(* Set up at least five times, and more while that stays under three
   seconds in all: the median of several set-ups is steadier than one. *)
let end_to_end w a =
  let times = ref [] and reqs = ref [||] in
  while
    let n = List.length !times in
    n < 5 || (n < 25 && List.fold_left (fun s (t, _) -> s +. t) 0. !times < 3.)
  do
    reqs := [||];
    let k = reference ~force:true () in
    Gc.full_major ();
    let t0 = now () in
    reqs := setup w a;
    times := (now () -. t0, k) :: !times
  done;
  let reqs = !reqs in
  let lat = ref [] and bytes = ref 0 in
  let by_case = Hashtbl.create 16 in
  let t_start = now () in
  let t_end = t_start +. a.seconds in
  let i = ref 0 in
  while now () < t_end do
    let r = reqs.(!i mod Array.length reqs) in
    incr i;
    let dt, k = measure r (fun () -> r.run (Clip_run.create ())) in
    lat := (dt, k) :: !lat;
    bytes := !bytes + r.bytes_in;
    let case = List.hd (String.split_on_char '/' r.kind) in
    Hashtbl.replace by_case case (dt :: Option.value (Hashtbl.find_opt by_case case) ~default:[])
  done;
  let loop = now () -. t_start in
  (* Read before the deferred checks, whose work is not the workload's. *)
  let top_heap = (Gc.quick_stat ()).top_heap_words in
  deferred_checks reqs;
  Printf.printf "wall-clock p50 by case:%s\n"
    (String.concat ""
       (List.sort compare
          (Hashtbl.fold
             (fun case ts l -> Printf.sprintf " %s %.3f ms;" case (1000. *. median ts) :: l)
             by_case [])));
  let raw = List.map fst !lat and nominal = rescale !lat in
  let busy = List.fold_left ( +. ) 0. in
  let p90 = quantile 0.9 nominal in
  let above = List.length (List.filter (fun t -> t > p90) nominal) in
  Printf.printf
    "wall clock: p50 %.3f ms, p90 %.3f ms, set-up %.4f s; reference work %.3f ms (nominal %.1f)\n"
    (1000. *. median raw) (1000. *. quantile 0.9 raw) (median (List.map fst !times))
    (1000. *. median !references) (1000. *. nominal_reference);
  ( [
      ("setup_s", median (rescale !times));
      ("latency_p50_ms", 1000. *. median nominal);
      ("latency_p90_ms", 1000. *. p90);
      (* Over the requests' own time, not the loop's: the loop also runs
         the checks, the reference work and a full collection before
         each request, which on author's sub-millisecond requests take
         most of it. *)
      ("throughput_mb_s", float !bytes /. 1e6 /. busy nominal);
      ("peak_heap_mb", float (top_heap * (Sys.word_size / 8)) /. 1e6);
    ],
    Printf.sprintf "%d requests, %d above p90, %.0f%% of the timed loop; %d set-ups"
      (List.length !lat) above
      (100. *. busy raw /. loop)
      (List.length !times) )

(* --- traced: the per-layer metrics ------------------------------------- *)

let traced w a =
  let reqs = setup w a in
  let samples : (string, float list) Hashtbl.t = Hashtbl.create 64 in
  let add m v =
    Hashtbl.replace samples m (v :: Option.value (Hashtbl.find_opt samples m) ~default:[])
  in
  let plain = ref [] and with_trace = ref [] in
  let run_plain (r : Workloads.request) =
    plain := fst (measure r (fun () -> r.run (Clip_run.create ()))) :: !plain
  in
  let run_traced (r : Workloads.request) =
    let last = ref None in
    let dt, _ =
      measure r (fun () ->
          let counters = Clip_obs.Counters.create () in
          let tracer = Clip_obs.Trace.create ~now () in
          let ctx = Clip_run.create ~counters ~tracer () in
          (* Gc.minor_words counts the current minor heap too; the
             quick_stat field only moves at minor collections. *)
          let g0 = Gc.quick_stat () and m0 = Gc.minor_words () in
          Fun.protect
            ~finally:(fun () ->
              last := Some (counters, tracer, g0, m0, Gc.quick_stat (), Gc.minor_words ()))
            (fun () -> Clip_run.span ctx "request" (fun () -> r.run ctx)))
    in
    with_trace := dt :: !with_trace;
    let counters, tracer, g0, m0, g1, m1 = Option.get !last in
    let probes = Clip_obs.Trace.create ~now () in
    (match r.probe (Some probes) with
     | Some n -> add "shard.count" (float n)
     | None -> ()
     | exception e -> fail 1 (r.kind ^ " probe: " ^ Printexc.to_string e));
    let selfs =
      Layers.self_times (Clip_obs.Trace.spans tracer)
      @ Layers.self_times (Clip_obs.Trace.spans probes)
    in
    List.iter (fun (m, v) -> add m v) selfs;
    (match List.assoc_opt "xml.parse.ms" selfs with
     | Some ms when ms > 0. -> add "xml.parse.mb_s" (float r.source_bytes /. 1e3 /. ms)
     | _ -> ());
    List.iter (fun (m, v) -> add m (float v)) (Layers.of_counters counters);
    let words = Sys.word_size / 8 in
    add "gc.minor_mb" ((m1 -. m0) *. float words /. 1e6);
    add "gc.major_mb" ((g1.major_words -. g0.major_words) *. float words /. 1e6);
    add "gc.major_collections" (float (g1.major_collections - g0.major_collections))
  in
  (* Each request runs once untraced and once traced, alternating which
     goes first, so the overhead compares like with like. *)
  let t_end = now () +. a.seconds in
  let i = ref 0 in
  while now () < t_end do
    let r = reqs.(!i mod Array.length reqs) in
    if !i mod 2 = 0 then (run_plain r; run_traced r) else (run_traced r; run_plain r);
    incr i
  done;
  deferred_checks reqs;
  let n = List.length !with_trace in
  let e2e_traced = 1000. *. median !with_trace in
  add "trace.overhead_pct" (100. *. ((median !with_trace /. median !plain) -. 1.));
  let rows =
    List.map
      (fun (m, unit) ->
        let xs = Option.value (Hashtbl.find_opt samples m) ~default:[] in
        let touched = List.exists (fun x -> x <> 0.) xs in
        (m, unit, (if touched then median xs else 0.), List.length xs, touched))
      Layers.metrics
  in
  let unattributed =
    median (Option.value (Hashtbl.find_opt samples "unattributed.ms") ~default:[])
  in
  ( rows,
    Printf.sprintf
      "%d traced requests; traced e2e p50 %.3f ms; unattributed %.3f ms (%.2f%% of traced e2e)"
      n e2e_traced unattributed (100. *. unattributed /. e2e_traced) )

(* --- output ------------------------------------------------------------ *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (m, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m (num v) unit)
          metrics))

let () =
  let a = parse_args () in
  let w =
    match List.find_opt (fun (w : Workloads.workload) -> w.name = a.workload) Workloads.all with
    | Some w -> w
    | None -> usage ()
  in
  let metrics =
    if not a.trace then begin
      let values, note = end_to_end w a in
      Printf.printf "workload %s, seed %d, %.0f s, end to end (tracing off); %s\n" w.name a.seed
        a.seconds note;
      let metrics = List.map (fun (m, unit) -> (m, unit, List.assoc m values)) Layers.end_to_end in
      List.iter (fun (m, unit, v) -> Printf.printf "  %-18s %14.4f %s\n" m v unit) metrics;
      Printf.printf "  %-18s %14.4f %s\n" "failed_ratio"
        (float tally.failed /. float (max 1 tally.attempted))
        "fraction";
      metrics
    end
    else begin
      let rows, note = traced w a in
      Printf.printf "workload %s, seed %d, %.0f s, per layer (traced); %s\n" w.name a.seed
        a.seconds note;
      List.iter
        (fun (m, unit, v, n, touched) ->
          if touched then Printf.printf "  %-22s %14.4f %-6s over %d samples\n" m v unit n
          else Printf.printf "  %-22s %14s %-6s untouched\n" m "-" unit)
        rows;
      List.map (fun (m, unit, v, _, _) -> (m, unit, v)) rows
    end
  in
  List.iter (fun p -> Printf.printf "  FAILED %s\n" p) (List.rev tally.problems);
  print_endline (json metrics);
  exit (if tally.failed = 0 then 0 else 1)
