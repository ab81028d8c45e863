module Xml = Clip_xml

type t = {
  source : Xml.Node.t;
  stats : Xml.Stats.t Lazy.t;
  counters : Clip_obs.Counters.t;
  start : int;
  max_steps : int;
  what : string;
  ctl : Clip_run.Control.t;
}

let create ?(max_steps = max_int) ?(counters = Clip_obs.Counters.create ())
    ?(ctl = Clip_run.Control.none) ~what source =
  {
    source;
    stats = lazy (Xml.Stats.collect source);
    counters;
    start = counters.lim_ticks;
    max_steps;
    what;
    ctl;
  }

let force_stats m = Lazy.force m.stats

let check_control m =
  m.counters.ctl_checks <- m.counters.ctl_checks + 1;
  match Clip_run.Control.check m.ctl with
  | None -> ()
  | Some d -> Clip_diag.fail d

let enter m = if not (Clip_run.Control.is_none m.ctl) then check_control m

let over_budget m =
  Clip_diag.fail
    (Clip_diag.error ~code:Clip_diag.Codes.limit_eval_steps
       ~hints:
         [
           Printf.sprintf
             "raise [limits.max_eval_steps] if the %s is expected to be this large"
             m.what;
         ]
       (Printf.sprintf "evaluation exceeded the budget of %d steps" m.max_steps))

let tick m =
  let c = m.counters in
  c.lim_ticks <- c.lim_ticks + 1;
  let steps = c.lim_ticks - m.start in
  if steps > m.max_steps then over_budget m;
  (* Deadline/cancellation poll, amortised to one clock read per 64
     steps so uncontrolled runs pay one branch per tick. *)
  if steps land 63 = 0 && not (Clip_run.Control.is_none m.ctl) then
    check_control m

(* A run of [n] ticks is one counter write while the budget holds and
   no control poll falls due inside it; otherwise it ticks one by one,
   so a failure leaves the record exactly as [n] calls would. *)
let ticks m n =
  let c = m.counters in
  let steps = c.lim_ticks - m.start in
  let steps' = steps + n in
  if steps' <= m.max_steps && (steps' lsr 6 = steps lsr 6 || Clip_run.Control.is_none m.ctl)
  then c.lim_ticks <- c.lim_ticks + n
  else
    for _ = 1 to n do
      tick m
    done

(* Children are counted as the scan visits them. A consumer that
   raises still leaves the step's whole count: the rest of the list is
   added before the exception goes on. The scan is top-level, so a
   step allocates no closure. *)
let rec scan_children (c : Clip_obs.Counters.t) sym f x seen = function
  | [] -> c.nodes_scanned <- c.nodes_scanned + seen
  | (Xml.Node.Element e as n) :: rest when Xml.Symbol.equal e.sym sym ->
    (match f x n with
     | () -> ()
     | exception ex ->
       let bt = Printexc.get_raw_backtrace () in
       c.nodes_scanned <- c.nodes_scanned + seen + 1 + List.length rest;
       Printexc.raise_with_backtrace ex bt);
    scan_children c sym f x (seen + 1) rest
  | _ :: rest -> scan_children c sym f x (seen + 1) rest

let child_step m (e : Xml.Node.element) sym f x =
  let c = m.counters in
  c.child_steps <- c.child_steps + 1;
  scan_children c sym f x 0 e.children

let child_items m e sym =
  let acc = ref [] in
  child_step m e sym (fun acc n -> acc := Value.Node n :: !acc) acc;
  List.rev !acc

let est_child m (est, ptag) sym =
  lazy
    (let stats = force_stats m in
     let ct = Xml.Stats.tag_count stats sym in
     if ct = 0 then Some 0
     else
       match Lazy.force est, ptag with
       | Some e0, Some p when Xml.Stats.tag_count stats p > 0 ->
         let cp = Xml.Stats.tag_count stats p in
         let fan = max 1 ((ct + cp - 1) / cp) in
         Some (min Clip_plan.est_cap (e0 * fan))
       | Some e0, _ -> Some (min Clip_plan.est_cap (max e0 1 * ct))
       | None, _ -> Some ct)
