(** Mapping algebra — composition, containment and fused pipelines.

    Mappings form an algebra under sequential composition: for
    [m1 : S -> I] and [m2 : I -> T] with [m1]'s target schema equal to
    [m2]'s source schema, [compose m1 m2 : S -> T] is a single mapping
    whose result on every source document equals running [m1] and then
    [m2]. Composition works by {e unfolding} the intermediate schema:
    each iteration of [m2] over an intermediate element is replaced by
    an instantiated copy of the [m1] builder chain that produces that
    element, and every read of an intermediate leaf is substituted with
    the [m1] value expression that populates it.

    Not every pair composes. Composition is restricted to a
    {e composable fragment} and rejects the rest with a stable
    [CLIP-ALG-*] diagnostic:

    - [CLIP-ALG-001] — [m1]'s target schema is not [m2]'s source schema;
    - [CLIP-ALG-002] — a grouping (Skolem) producer in [m1] would have
      to be unfolded, losing its memoisation;
    - [CLIP-ALG-003] — an intermediate element has no unique producer,
      or the unfolded iterations would alias (overlapping builder
      chains, self-join hijacking of an anchor);
    - [CLIP-ALG-004] — an intermediate leaf is read but not populated,
      or its value expression is not substitutable at the Clip level;
    - [CLIP-ALG-005] — unfolding would change multiplicity (e.g. [m2]
      iterates an intermediate element no builder produces).

    Rejection is not failure: {!Pipeline} degrades to staged execution
    ({!Clip_core.Engine.run_staged_result}), which is always available
    and byte-identical. The differential test harness
    ([test/test_algebra.ml]) holds composition to exactly that oracle:
    compose-then-run must equal run-then-run on every accepted pair. *)

module Mapping = Clip_core.Mapping

(** {1 Composition} *)

(** [compose_result m1 m2] — the composed mapping, or the [CLIP-ALG-*]
    diagnostics explaining why the pair is outside the composable
    fragment. Both mappings must be valid ([Compile.to_tgd_result]
    succeeds); an invalid operand is reported with its own validity /
    compile diagnostics. *)
val compose_result :
  Mapping.t -> Mapping.t -> (Mapping.t, Clip_diag.t list) result

(** [compose m1 m2] — {!compose_result}, raising {!Clip_diag.Fail} on
    rejection. *)
val compose : Mapping.t -> Mapping.t -> Mapping.t

(** [compose_chain_result ms] — fold {!compose_result} over a non-empty
    chain, left to right.
    @raise Invalid_argument on an empty chain. *)
val compose_chain_result :
  Mapping.t list -> (Mapping.t, Clip_diag.t list) result

(** {1 Containment and equivalence}

    Logical comparison of two mappings over the same source and target
    schemas, via a homomorphism check between their flattened tgd rules
    ({!Clip_tgd.Tgd.rules}). [contains a b] holds when every rule of
    [b] is covered by some rule of [a] — a variable mapping under which
    [a]'s premises are among [b]'s, the target chains agree and [a]
    asserts at least [b]'s values — so [a] produces everything [b]
    produces. The check is {e sound but incomplete}: [true] is a
    guarantee, [false] may be a false negative (rule flattening forgets
    sharing of target elements between sibling submappings, and no
    condition implication beyond syntactic matching is attempted). *)

(** [contains_result a b] — [Ok true] when [a] provably contains [b].
    [Error] when either mapping fails to compile or the schemas
    differ. *)
val contains_result : Mapping.t -> Mapping.t -> (bool, Clip_diag.t list) result

(** [equiv_result a b] — containment both ways. *)
val equiv_result : Mapping.t -> Mapping.t -> (bool, Clip_diag.t list) result

(** [contains a b] — {!contains_result}, raising {!Clip_diag.Fail}. *)
val contains : Mapping.t -> Mapping.t -> bool

(** [equiv a b] — {!equiv_result}, raising {!Clip_diag.Fail}. *)
val equiv : Mapping.t -> Mapping.t -> bool

(** {1 Fused pipelines} *)

module Pipeline : sig
  (** How a chain of mappings will execute: fused into one composed
      mapping when the whole chain composes, staged otherwise (with the
      diagnostics of the first rejected composition as the reason). *)
  type decision =
    | Fused of Mapping.t
    | Staged of Clip_diag.t list

  (** [plan ms] — compose-first planning over a non-empty chain.
      @raise Invalid_argument on an empty chain. *)
  val plan : Mapping.t list -> decision

  (** One EXPLAIN-able line, e.g.
      ["fusion: fused into one composed mapping"] or
      ["fusion: staged (CLIP-ALG-004: ...)"]. *)
  val decision_note : decision -> string

  (** [run_result ms source] — execute the chain over [source]: the
      fused mapping through {!Clip_core.Engine.run_result} when the
      chain composes, otherwise stage by stage through
      {!Clip_core.Engine.run_staged_result}. Both paths share the
      execution context's counters, tracer, deadline and cancellation
      hooks.
      @raise Invalid_argument on an empty chain. *)
  val run_result :
    ?ctx:Clip_run.t ->
    ?limits:Clip_diag.Limits.t ->
    ?backend:Clip_core.Engine.backend ->
    ?minimum_cardinality:bool ->
    ?plan:Clip_plan.mode ->
    Mapping.t list ->
    Clip_xml.Node.t ->
    (Clip_xml.Node.t, Clip_diag.t list) result
end
