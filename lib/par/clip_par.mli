(** A [Domain.spawn] work-pool: evaluate independent tasks (documents,
    scenarios) in parallel, deterministically, with failure isolated
    to the failing task's slot.

    Determinism contract: [map ?jobs f items] returns exactly what
    [List.map] of the sequential closure would — same values, same
    order — for any [jobs]. Tasks are claimed dynamically from an
    atomic counter but results land in their input slots; and because
    every layer below carries its state explicitly ({!Clip_run}
    contexts, explicit counter sinks, the
    domain-safe {!Clip_xml.Symbol} table), a task computes the same
    value whichever domain runs it.

    Counters merge, they are never shared: every attempt at a task
    runs against a fresh scratch sink, merged into its worker domain's
    sink only on success, and the per-domain sinks fold into [?obs]
    with {!Clip_obs.Counters.add} after the join. Counters that are
    deterministic per task (the {!Clip_obs.Counters.work_assoc}
    classes) therefore sum to exactly the
    sequential totals of the {e successful} tasks, independent of the
    task-to-domain partition — a failing task contributes nothing, not
    even the partial work of its failed attempts.

    Edge cases (pinned by test/test_par.ml): an empty batch returns
    [[]] without spawning a domain; [jobs] is clamped to the core count
    ({!clamp_jobs}) and, in {!map_results}, to the task count;
    [jobs <= 0] is clamped to [1]; and one job (or one task) runs
    sequentially on the calling domain. *)

(** [Domain.recommended_domain_count ()] — the default worker count. *)
val default_jobs : unit -> int

(** [clamp_jobs ~cores jobs] — the worker count for a [?jobs] request
    on a machine with [cores] recommended domains: [jobs] (default
    [cores]) bounded to [1 .. cores]. {!map_results} and
    {!stream_results} call it with {!default_jobs}[ ()], so no call
    spawns more domains than there are cores. *)
val clamp_jobs : cores:int -> int option -> int

(** [map_results ?jobs ?retries ?obs f items] — graceful batch
    degradation: evaluate [f ~obs:sink item] for every item, on [jobs]
    domains, each result landing in its input slot. A task that
    returns [Error ds] or raises {!Clip_diag.Fail} yields [Error ds]
    in its slot and the rest of the batch completes normally — one
    poisoned input never aborts the batch ([clip run --keep-going]).

    [?retries] (default [0]) bounds the retry policy: a failing
    attempt whose diagnostics contain a {e transient} code
    ({!Clip_diag.is_transient} — [CLIP-FLT-001], [CLIP-IO-001]) is
    re-attempted up to [retries] more times, immediately and on the
    same worker (so the schedule stays deterministic), each attempt
    from a fresh scratch sink and fresh per-task state. Deterministic
    failures — parse errors, budget and deadline exhaustion, permanent
    faults — are never retried: the input that failed once fails
    identically every time, so retrying only doubles the bill.

    Exceptions other than [Clip_diag.Fail] are programming errors, not
    data faults: they are re-raised in the caller (with backtrace,
    lowest failing input index first, after every task has run), never
    converted into an [Error] slot. [f] must be self-contained per
    task {e and} per attempt: create contexts inside it,
    never capture another task's. *)
val map_results :
  ?jobs:int ->
  ?retries:int ->
  ?obs:Clip_obs.Counters.t ->
  (obs:Clip_obs.Counters.t option -> 'a -> ('b, Clip_diag.t list) result) ->
  'a list ->
  ('b, Clip_diag.t list) result list

(** [stream_results ?jobs ?window ?retries ?obs ~produce ~consume f] —
    an ordered streaming pipeline for work that is {e discovered}, not
    listed: a sequential producer yields items one at a time (shard
    documents cut from a byte stream), [jobs] worker domains evaluate
    them in parallel, and the calling domain folds the results through
    [consume] {e strictly in production order} (the shard merger).

    Order and counter contracts (pinned by test/test_par.ml and the
    sharding differential suite): the sequence of [consume] calls — and
    the [?obs] totals — are identical to the [jobs:1] sequential
    produce/evaluate/consume loop, for any [jobs]. Workers pull the
    producer under the pipeline lock with the item index assigned
    atomically, results park in a reorder buffer, and the consumer
    blocks on the next index. Each task's scratch counters ride along
    with its result and merge into [?obs] only when the consumer
    accepts the [Ok] — tasks evaluated speculatively after the
    pipeline stops contribute nothing.

    At most [window] items (default [2 * jobs], clamped to at least
    [jobs]) are in flight — assigned but unconsumed — so memory stays
    bounded by the window even when one shard evaluates slowly.

    Failure: [produce] returning [Error ds] stops production after the
    already-assigned items; if all of those consume cleanly the call
    returns [Error ds]. The first [Error] result in production order
    stops the pipeline and is returned; [consume] raising
    {!Clip_diag.Fail} (a merge conflict) does the same. Exceptions
    other than [Fail] re-raise in the caller, lowest production index
    first, as in {!map_results}. [?retries] follows the
    {!map_results} transient-retry policy per task. *)
val stream_results :
  ?jobs:int ->
  ?window:int ->
  ?retries:int ->
  ?obs:Clip_obs.Counters.t ->
  produce:(unit -> ('a option, Clip_diag.t list) result) ->
  consume:('b -> unit) ->
  (obs:Clip_obs.Counters.t option -> 'a -> ('b, Clip_diag.t list) result) ->
  (unit, Clip_diag.t list) result

(** [map ?jobs ?obs f items] — the strict contract, a thin wrapper
    over {!map_results} (no retries): every task still runs, then the
    failure of the {e lowest failing input index} is re-raised — a
    {!Clip_diag.Fail} for a task that reported diagnostics, the
    original exception (with its backtrace) otherwise — so failure
    behaviour does not depend on scheduling. *)
val map :
  ?jobs:int ->
  ?obs:Clip_obs.Counters.t ->
  (obs:Clip_obs.Counters.t option -> 'a -> 'b) ->
  'a list ->
  'b list
