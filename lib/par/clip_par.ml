(* A Domain.spawn work-pool for evaluating independent tasks in
   parallel with deterministic results.

   Design:
   - tasks are fixed in an array up front; workers claim indices from
     one atomic counter, so scheduling is dynamic (no static striping
     that would let one slow task idle a domain) while results land in
     their input slot — output order is input order, always;
   - every task runs against a fresh scratch counter record, merged
     into the worker's per-domain record only when the task succeeds;
     the per-domain records are merged into the caller's record with
     {!Clip_obs.Counters.add} after the join. Every counter is thus a
     sum of per-successful-task increments, so the merged totals are
     independent of the task-to-domain partition {e and} of how many
     tasks failed — survivors always sum to exactly the fault-free
     sequential totals;
   - {!map_results} isolates failure to its slot: a task that reports
     diagnostics (or raises {!Clip_diag.Fail}) yields [Error ds] in
     its input position and the rest of the batch completes. Nothing
     is retried: evaluation is a deterministic function of its input,
     so a task that failed once fails the same way again;
   - {!map} keeps the strict contract as a thin wrapper: any
     [Error ds] slot re-raises {!Clip_diag.Fail} for the lowest
     failing input index after every task has run. Exceptions other
     than [Clip_diag.Fail] are never converted to diagnostics — they
     are programming errors, captured with their backtrace and
     re-raised in the caller (again lowest index first);
   - with one job (or one task) the pool degenerates to a plain
     sequential loop on the calling domain — the parallel path is
     byte-identical to this baseline by construction of the layers
     below (evaluation state is fully explicit, see {!Clip_run}). *)

let default_jobs () = Domain.recommended_domain_count ()

(* More domains than cores only adds spawn cost and contention. *)
let clamp_jobs ~cores jobs =
  let cores = max 1 cores in
  match jobs with None -> cores | Some j -> max 1 (min j cores)

type 'b slot =
  | Done of ('b, Clip_diag.t list) result
  | Raised of exn * Printexc.raw_backtrace
  | Pending

(* One task. [into] is the record its scratch counters merge into on
   success (the worker's per-domain record, or the caller's own in
   sequential mode). The [par.task] fault point sits inside the task,
   so an injected task fault gets exactly the isolation a real one
   gets. *)
let attempt ~into f x =
  let scratch = Clip_obs.Counters.create () in
  let r =
    match
      Clip_fault.hit ~obs:scratch Clip_fault.Site.par_task;
      f ~obs:scratch x
    with
    | r -> r
    | exception Clip_diag.Fail ds -> Error ds
  in
  (match r with Ok _ -> Clip_obs.Counters.add ~into scratch | Error _ -> ());
  r

let map_results ?jobs ?(obs = Clip_obs.Counters.create ()) f items =
  let tasks = Array.of_list items in
  let n = Array.length tasks in
  let jobs = min (clamp_jobs ~cores:(default_jobs ()) jobs) n in
  if jobs <= 1 then
    (* Sequential degenerate case: same task machinery (scratch
       records, fault point), caller's record as the merge target,
       tasks in order on the calling domain. *)
    List.map (fun x -> attempt ~into:obs f x) items
  else begin
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    let worker () =
      let c = Clip_obs.Counters.create () in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
             (match attempt ~into:c f tasks.(i) with
              | r -> Done r
              | exception e -> Raised (e, Printexc.get_raw_backtrace ())));
          loop ()
        end
      in
      loop ();
      c
    in
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain is worker number [jobs]. *)
    let mine = worker () in
    let per_domain = mine :: List.map Domain.join helpers in
    List.iter (fun c -> Clip_obs.Counters.add ~into:obs c) per_domain;
    (* [Array.iter] is specified left-to-right, so a captured
       exception re-raises for the lowest failing input index,
       independent of scheduling. *)
    Array.iter
      (function
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Done _ | Pending -> ())
      results;
    List.init n (fun i ->
        match results.(i) with
        | Done r -> r
        | Raised _ | Pending -> assert false)
  end

(* Streaming pipeline. Unlike {!map_results} the task list is not known
   up front: a sequential producer yields items one at a time (the shard
   cutter holds one window of the input stream), workers evaluate them
   in parallel, and a sequential consumer folds the results strictly in
   production order (the shard merger). The producer is shared
   sequential state, so workers pull it under the pipeline mutex — the
   item index is assigned under the same lock, which is what makes the
   reorder buffer's order the production order. Scratch counters ride
   along with each result and merge into [?obs] only when the consumer
   accepts the [Ok] — a speculative task completed after the pipeline
   stopped contributes nothing, keeping totals identical to the
   sequential pipeline's. *)

type 'b stream_slot =
  | Sdone of ('b, Clip_diag.t list) result * Clip_obs.Counters.t
  | Sraised of exn * Printexc.raw_backtrace

let stream_results ?jobs ?(obs = Clip_obs.Counters.create ()) ~produce ~consume
    f =
  let jobs = clamp_jobs ~cores:(default_jobs ()) jobs in
  if jobs <= 1 then
    (* Sequential degenerate case: produce, evaluate, consume, repeat —
       the reference order the parallel pipeline must reproduce. *)
    let rec loop () =
      match produce () with
      | Error _ as e -> e
      | Ok None -> Ok ()
      | Ok (Some x) -> (
          let scratch = Clip_obs.Counters.create () in
          match attempt ~into:scratch f x with
          | Error _ as e -> e
          | Ok v -> (
              Clip_obs.Counters.add ~into:obs scratch;
              match consume v with
              | () -> loop ()
              | exception Clip_diag.Fail ds -> Error ds))
    in
    loop ()
  else begin
    (* Items in flight (assigned but unconsumed): enough to keep every
       worker busy while one slow shard holds up the consumer. *)
    let window = 2 * jobs in
    let m = Mutex.create () in
    let cv = Condition.create () in
    let buffer : (int, 'b stream_slot) Hashtbl.t = Hashtbl.create 16 in
    let next = ref 0 and consumed = ref 0 in
    let prod_done = ref false and stop = ref false in
    let perror = ref None in
    let worker () =
      let rec loop () =
        Mutex.lock m;
        let rec wait () =
          if !stop || !prod_done then `Exit
          else if !next - !consumed >= window then begin
            Condition.wait cv m;
            wait ()
          end
          else `Go
        in
        match wait () with
        | `Exit -> Mutex.unlock m
        | `Go -> (
            (* The producer runs under the lock: it is the one shared
               sequential resource, and its cost per item is a bounded
               slice of input, not an evaluation. *)
            match produce () with
            | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                Hashtbl.replace buffer !next (Sraised (e, bt));
                incr next;
                prod_done := true;
                Condition.broadcast cv;
                Mutex.unlock m
            | Ok None ->
                prod_done := true;
                Condition.broadcast cv;
                Mutex.unlock m
            | Error ds ->
                perror := Some ds;
                prod_done := true;
                Condition.broadcast cv;
                Mutex.unlock m
            | Ok (Some x) ->
                let i = !next in
                incr next;
                Mutex.unlock m;
                let scratch = Clip_obs.Counters.create () in
                let slot =
                  match attempt ~into:scratch f x with
                  | r -> Sdone (r, scratch)
                  | exception e -> Sraised (e, Printexc.get_raw_backtrace ())
                in
                Mutex.lock m;
                Hashtbl.replace buffer i slot;
                Condition.broadcast cv;
                Mutex.unlock m;
                loop ())
      in
      loop ()
    in
    let workers = List.init jobs (fun _ -> Domain.spawn worker) in
    let finish r =
      Mutex.lock m;
      stop := true;
      Condition.broadcast cv;
      Mutex.unlock m;
      List.iter Domain.join workers;
      match r with
      | `Ok -> Ok ()
      | `Err ds -> Error ds
      | `Raise (e, bt) -> Printexc.raise_with_backtrace e bt
    in
    (* The calling domain consumes, strictly in production order:
       index [consumed] must be buffered before anything later is
       looked at, so the first Error (or exception) the consumer sees
       is the lowest-index failure, independent of scheduling. *)
    let rec consume_loop () =
      Mutex.lock m;
      let rec wait () =
        if Hashtbl.mem buffer !consumed then `Slot (Hashtbl.find buffer !consumed)
        else if !prod_done && !consumed >= !next then `Drained
        else begin
          Condition.wait cv m;
          wait ()
        end
      in
      match wait () with
      | `Drained ->
          let pe = !perror in
          Mutex.unlock m;
          (match pe with None -> finish `Ok | Some ds -> finish (`Err ds))
      | `Slot slot -> (
          Hashtbl.remove buffer !consumed;
          incr consumed;
          Condition.broadcast cv;
          Mutex.unlock m;
          match slot with
          | Sraised (e, bt) -> finish (`Raise (e, bt))
          | Sdone (Error ds, _) -> finish (`Err ds)
          | Sdone (Ok v, scratch) -> (
              Clip_obs.Counters.add ~into:obs scratch;
              match consume v with
              | () -> consume_loop ()
              | exception Clip_diag.Fail ds -> finish (`Err ds)
              | exception e -> finish (`Raise (e, Printexc.get_raw_backtrace ()))))
    in
    consume_loop ()
  end

let map ?jobs ?obs f items =
  let rs = map_results ?jobs ?obs (fun ~obs x -> Ok (f ~obs x)) items in
  List.map
    (function Ok v -> v | Error ds -> raise (Clip_diag.Fail ds))
    rs
