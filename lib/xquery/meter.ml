module Xml = Clip_xml

type t = {
  source : Xml.Node.t;
  mutable index : Xml.Index.t option;
  xindex : Xml.Index.t Lazy.t;
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
    index = None;
    xindex = lazy (Xml.Index.build ~obs:counters source);
    stats = lazy (Xml.Stats.collect source);
    counters;
    start = counters.lim_ticks;
    max_steps;
    what;
    ctl;
  }

let force_index m = Lazy.force m.xindex
let force_stats m = Lazy.force m.stats
let index_threshold = 256

let check_control m =
  m.counters.ctl_checks <- m.counters.ctl_checks + 1;
  match Clip_run.Control.check m.ctl with
  | None -> ()
  | Some d -> Clip_diag.fail d

let enter m site =
  if not (Clip_run.Control.is_none m.ctl) then check_control m;
  Clip_fault.hit ~obs:m.counters site

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

(* Each visited child or returned match is counted before the first
   match is pushed, as when the step returned a list: a consumer that
   fails midway sees the step's whole count. *)
let child_step m (e : Xml.Node.element) sym f x =
  let c = m.counters in
  c.child_steps <- c.child_steps + 1;
  match m.index with
  | None ->
    c.nodes_scanned <- c.nodes_scanned + List.length e.children;
    Xml.Node.iter_children_tagged e sym f x
  | Some idx -> Xml.Index.iter_children_by_tag idx e sym f x

let child_items m e sym =
  let acc = ref [] in
  child_step m e sym (fun acc n -> acc := Value.Node n :: !acc) acc;
  List.rev !acc

let est_child m (est, ptag) tag =
  let stats = force_stats m in
  let sym = Xml.Symbol.intern tag in
  let ct = Xml.Stats.tag_count stats sym in
  let est' =
    if ct = 0 then Some 0
    else
      match est, ptag with
      | Some e0, Some p when Xml.Stats.tag_count stats p > 0 ->
        let cp = Xml.Stats.tag_count stats p in
        let fan = max 1 ((ct + cp - 1) / cp) in
        Some (min Clip_plan.est_cap (e0 * fan))
      | Some e0, _ -> Some (min Clip_plan.est_cap (max e0 1 * ct))
      | None, _ -> Some ct
  in
  (est', Some sym)
