(** Deterministic, site-named fault injection.

    Failure points ({!hit}) are compiled into the stack at its trust
    boundaries — parser entry, planner, both executors, the
    {!Clip_par} task wrapper — and are
    inert (one atomic load, one branch) until a harness {!arm}s
    exactly one of them. The armed hit raises through
    {!Clip_diag.Fail} with the stable code [CLIP-FLT-002], so an
    injected fault travels the same error path a real failure would
    and escapes every [*_result] entry point as a structured [Error].

    The armed state is process-wide and test-only: production code
    never arms anything, and the obs bench gates the disarmed
    overhead. Arming is deterministic (explicit site + hit ordinal, or
    {!arm_seeded} from a seed); with a single domain, which invocation
    fails replays exactly. See DESIGN.md "Fault tolerance". *)

(** The registered site names (compile-time constants, one per planted
    boundary). *)
module Site : sig
  val xml_parse : string (** {!Clip_xml.Parser} document entry *)

  val plan_build : string (** {!Clip_plan.plan} compilation *)

  val tgd_execute : string (** tgd backend run entry *)

  val xquery_execute : string (** XQuery backend run entry *)

  val par_task : string (** {!Clip_par} per-task wrapper *)
end

(** Every registered site, in registration order — harnesses sweep
    this list so newly planted sites are covered automatically. *)
val all_sites : string list

(** [arm site] — arm one fault: the [from]-th hit of [site] (1-based,
    default 1) raises; every other hit is a no-op. Replaces any
    previously armed fault and resets hit counting.
    @raise Invalid_argument on an unregistered site. *)
val arm : ?from:int -> string -> unit

(** [arm_seeded ~seed] — derive (site, firing hit) deterministically
    from [seed] and arm it; returns the choice. For seed-sweep
    harnesses (test/fuzz). *)
val arm_seeded : seed:int -> string * int

(** Disarm whatever is armed (idempotent). *)
val disarm : unit -> unit

val active : unit -> bool
val armed_site : unit -> string option

(** Times the currently armed fault has fired (0 when disarmed). *)
val fired : unit -> int

(** [hit site] — the failure point. No-op unless [site] is armed and
    this is the firing hit, in which case it raises {!Clip_diag.Fail}
    with code [CLIP-FLT-002] (and counts into [?obs] as
    [faults_injected]). *)
val hit : ?obs:Clip_obs.Counters.t -> string -> unit

(** [arm_spec "site[:FROM]"] — parse and arm the CLI's [CLIP_FAULT]
    environment format (e.g. ["tgd.execute:2"]).
    [Error reason] on a malformed spec or unknown site. *)
val arm_spec : string -> (unit, string) result
