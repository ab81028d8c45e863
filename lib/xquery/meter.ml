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

(* Each visited child or returned match is counted in the pass that
   already walks the list. *)
let child_step m (e : Xml.Node.element) sym =
  let c = m.counters in
  c.child_steps <- c.child_steps + 1;
  match m.index with
  | None ->
    List.filter_map
      (fun n ->
        c.nodes_scanned <- c.nodes_scanned + 1;
        match n with
        | Xml.Node.Element ce when Xml.Symbol.equal ce.sym sym -> Some (Value.Node n)
        | Xml.Node.Element _ | Xml.Node.Text _ -> None)
      e.children
  | Some idx ->
    List.map
      (fun n ->
        c.nodes_scanned <- c.nodes_scanned + 1;
        Value.Node n)
      (Xml.Index.children_by_tag idx e sym)

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
