(* Per-layer attribution of one traced request, and the per-layer
   metric table. A request's spans all come from one tracer: the
   benchmark's own spans around each public call, and the engine's
   existing compile / translate / parse / execute spans nested inside
   them. A span's self time is its duration minus its direct children's;
   the root span's self time is what no layer accounts for. *)

(* Span name -> the metric its self time counts toward. *)
let metric_of_span = function
  | "request" -> Some "unattributed.ms"
  | "xml.parse" | "parse" -> Some "xml.parse.ms"
  | "xml.print" -> Some "xml.print.ms"
  | "core.dsl" -> Some "core.dsl.ms"
  | "core.diagnose" -> Some "core.diagnose.ms"
  | "compile" -> Some "core.compile.ms"
  | "translate" | "core.xquery_text" -> Some "core.translate.ms"
  | "tgd.pretty" -> Some "tgd.pretty.ms"
  | "execute" -> Some "engine.execute.ms"
  | "engine.run" -> Some "engine.self.ms"
  (* standalone probes, each timed whole *)
  | "xml.stats" -> Some "xml.stats.ms"
  | "xml.index" -> Some "xml.index.ms"
  | "algebra.compose" -> Some "algebra.compose.ms"
  | "rel.store" -> Some "rel.store.ms"
  | "join.tgd_eval" -> Some "join.tgd_eval.ms"
  | "shard.plan" -> Some "shard.plan.ms"
  | "shard.cut" -> Some "shard.cut.ms"
  | "shard.eval" -> Some "shard.eval.ms"
  | "shard.merge" -> Some "shard.merge.ms"
  | _ -> None

(* [self_times spans] — (metric, ms) for every span, self time summed
   per metric. [spans] is in start order with entry depths, as
   {!Clip_obs.Trace.spans} returns them. *)
let self_times (spans : Clip_obs.Trace.span list) =
  let spans = Array.of_list spans in
  let child = Array.make (Array.length spans) 0. in
  let stack = ref [] in
  Array.iteri
    (fun k (s : Clip_obs.Trace.span) ->
      let rec pop = function
        | top :: rest when spans.(top).Clip_obs.Trace.sdepth >= s.sdepth -> pop rest
        | st -> st
      in
      stack := pop !stack;
      (match !stack with p :: _ -> child.(p) <- child.(p) +. s.sdur | [] -> ());
      stack := k :: !stack)
    spans;
  let acc = Hashtbl.create 16 in
  Array.iteri
    (fun k (s : Clip_obs.Trace.span) ->
      match metric_of_span s.sname with
      | Some m ->
        let prev = Option.value (Hashtbl.find_opt acc m) ~default:0. in
        Hashtbl.replace acc m (prev +. (1000. *. (s.sdur -. child.(k))))
      | None -> ())
    spans;
  Hashtbl.fold (fun m v l -> (m, v) :: l) acc []

(* The counters one traced request reports, by metric name. *)
let of_counters (c : Clip_obs.Counters.t) =
  [
    ("plan.nodes_scanned", c.nodes_scanned);
    ("plan.child_steps", c.child_steps);
    ("plan.index_probes", c.index_probes);
    ("plan.index_hits", c.index_hits);
    ("plan.hash_join_builds", c.hash_join_builds);
    ("plan.hash_join_probes", c.hash_join_probes);
    ("plan.batches", c.batches_executed);
    ("plan.lim_ticks", c.lim_ticks);
    ("engine.session_hits", c.session_hits);
    ("engine.memo_hits", c.memo_hits);
  ]

(* Every per-layer metric with its unit, in report order. *)
let metrics =
  [
    ("xml.parse.ms", "ms");
    ("xml.parse.mb_s", "MB/s");
    ("xml.print.ms", "ms");
    ("xml.stats.ms", "ms");
    ("xml.index.ms", "ms");
    ("core.dsl.ms", "ms");
    ("core.diagnose.ms", "ms");
    ("core.compile.ms", "ms");
    ("core.translate.ms", "ms");
    ("tgd.pretty.ms", "ms");
    ("algebra.compose.ms", "ms");
    ("engine.execute.ms", "ms");
    ("engine.self.ms", "ms");
    ("plan.nodes_scanned", "count");
    ("plan.child_steps", "count");
    ("plan.index_probes", "count");
    ("plan.index_hits", "count");
    ("plan.hash_join_builds", "count");
    ("plan.hash_join_probes", "count");
    ("plan.batches", "count");
    ("plan.lim_ticks", "count");
    ("engine.session_hits", "count");
    ("engine.memo_hits", "count");
    ("rel.store.ms", "ms");
    ("join.tgd_eval.ms", "ms");
    ("shard.plan.ms", "ms");
    ("shard.cut.ms", "ms");
    ("shard.count", "count");
    ("shard.eval.ms", "ms");
    ("shard.merge.ms", "ms");
    ("gc.minor_mb", "MB");
    ("gc.major_mb", "MB");
    ("gc.major_collections", "count");
    ("unattributed.ms", "ms");
    ("trace.overhead_pct", "%");
  ]

(* The end-to-end metrics every untraced run reports. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("throughput_mb_s", "MB/s");
    ("peak_heap_mb", "MB");
  ]
