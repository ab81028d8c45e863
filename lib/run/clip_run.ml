(* Explicit execution contexts.

   A context owns every piece of run-scoped mutable state: the
   observability counter sink, the trace tracer and the fault-tolerance
   control. Threading the context as a value is what makes the stack
   domain-safe — two contexts never share state, so two domains
   evaluating with their own contexts cannot race. A context carries no
   cache: every run compiles and analyses its own input, so nothing a
   run leaves behind can change the next one. *)

(* --- Cooperative cancellation ----------------------------------------- *)

module Cancel = struct
  (* An [Atomic] so the whole point of the flag works: one domain (a
     signal handler, a server's admission controller) sets it while
     the domains evaluating under it poll at their tick sites. *)
  type t = bool Atomic.t

  let create () = Atomic.make false
  let set t = Atomic.set t true
  let is_set t = Atomic.get t
end

(* --- Deadlines and the control view ------------------------------------ *)

type deadline = { dnow : unit -> float; duntil : float }

let deadline ~now ~until = { dnow = now; duntil = until }
let deadline_after ~now ~seconds = { dnow = now; duntil = now () +. seconds }

module Control = struct
  (* The read-only view the evaluators poll at their CLIP-LIM-004 tick
     sites. [none] is a shared constant with no deadline and a flag
     nobody holds, so the common uncontrolled run checks one physical
     equality and moves on. *)
  type t = { deadline : deadline option; cancel : Cancel.t }

  let none = { deadline = None; cancel = Atomic.make false }
  let make ?deadline ?(cancel = Cancel.create ()) () = { deadline; cancel }
  let is_none t = t == none

  let cancelled t = Cancel.is_set t.cancel

  let expired t =
    match t.deadline with None -> false | Some d -> d.dnow () >= d.duntil

  (* Cancellation is checked first: an explicit cancel is more
     specific than a deadline that may also have lapsed by the time
     the evaluator polls. *)
  let check t =
    if Cancel.is_set t.cancel then
      Some
        (Clip_diag.error ~code:Clip_diag.Codes.cancelled
           "evaluation cancelled cooperatively")
    else
      match t.deadline with
      | Some d when d.dnow () >= d.duntil ->
        Some
          (Clip_diag.error ~code:Clip_diag.Codes.limit_deadline
             ~hints:
               [
                 "raise the deadline (e.g. clip run --timeout-ms) if the \
                  evaluation is expected to take this long";
               ]
             "evaluation exceeded its deadline")
      | Some _ | None -> None
end

type t = {
  counters : Clip_obs.Counters.t option;
  tracer : Clip_obs.Trace.t option;
  control : Control.t;
}

(* Every context owns a fresh control (unless handed a shared cancel
   flag): [cancel ctx] must never mutate the shared [Control.none]
   constant, which is only the default for evaluator entry points
   called without any control at all. *)
let create ?counters ?tracer ?deadline ?cancel () =
  { counters; tracer; control = Control.make ?deadline ?cancel () }

let counters ctx = ctx.counters
let tracer ctx = ctx.tracer
let span ctx name f = Clip_obs.Trace.span ctx.tracer name f
let control ctx = ctx.control
let cancel ctx = Cancel.set ctx.control.Control.cancel
let cancelled ctx = Control.cancelled ctx.control
