(* A backend-agnostic physical-plan layer.

   Both execution backends (the nested-tgd engine and the XQuery
   evaluator) share the same inner loop: a chain of generators binding
   variables to items, a conjunction of filter conditions, and a
   per-binding action. Read literally, that shape enumerates the full
   Cartesian product of the generators and only then filters; this
   module separates that logical shape from a physical evaluation plan:

   - condition pushdown: each condition is checked at the earliest
     generator position at which all its variables are bound;
   - hash joins: an equality condition between earlier-bound variables
     and a later generator turns that generator — together with the
     contiguous chain of generators feeding it, when that chain is
     independent of the probe side — into a hash-table probe, built
     once per environment in which the segment's inputs are fixed;
     when the probe side is decided by the outer environment and the
     segment reads nothing outside itself (a nested mapping joined to
     its parent), the table is built once per run and shared by every
     execution of the plan in that run;
   - streaming execution: bindings are folded into an [emit] callback
     instead of being materialised as a list.

   The planner works on an abstract description — variable-dependency
   sets plus evaluation closures — so it does not depend on either
   backend's expression language. Enumeration order is preserved
   exactly: pushdown never reorders generators, and a hash probe
   yields its matches in build-side (document) order, so a plan-based
   run is byte-identical to that nested-loop reading on every input
   whose evaluation does not raise. (Error behaviour may differ:
   pushdown can evaluate a failing condition that the nested loops
   would never reach because a later generator is empty, and vice
   versa.) *)

module Key = struct
  (* Hashable join/dedup keys over atoms. The per-atom normalisation —
     the one spot where "which atoms are the same join key" is decided
     — lives in [Clip_xml.Atom.key], shared with both backend
     evaluators; this module only lifts it to composite (tuple) keys. *)
  type norm = Clip_xml.Atom.key

  type t = norm list

  let norm_atom = Clip_xml.Atom.key
  let of_atom a = [ norm_atom a ]
  let of_atoms atoms = List.map norm_atom atoms
  let equal (a : t) (b : t) = a = b
  let hash_atom = Clip_xml.Atom.key_hash
end

(* The atoms one evaluation pushes: the first in [first], the later
   ones in [rest], newest first. [push] is built once with the record,
   so a consumer compiled once collects a one-atom evaluation with no
   allocation. A sink is read before it can be filled again. *)
module Sink = struct
  type t = {
    mutable n : int;
    mutable first : Clip_xml.Atom.t;
    mutable rest : Clip_xml.Atom.t list;
    push : Clip_xml.Atom.t -> unit;
  }

  let create () =
    let rec s =
      {
        n = 0;
        first = Clip_xml.Atom.Bool false;
        rest = [];
        push =
          (fun a ->
            if s.n = 0 then s.first <- a else s.rest <- a :: s.rest;
            s.n <- s.n + 1);
      }
    in
    s

  let fill s k env =
    s.n <- 0;
    s.rest <- [];
    k env s.push

  let atoms s = if s.n = 0 then [] else s.first :: List.rev s.rest
end

type mode = [ `Indexed | `Auto ]
type policy = [ `Force | `Cost ]

let policy_of : mode -> policy = function `Indexed -> `Force | `Auto -> `Cost

let strategy = function
  | `Indexed -> "strategy: physical plans, forced hash joins\n"
  | `Auto -> "strategy: physical plans, cost-based joins\n"

(* --- Planner input ----------------------------------------------------- *)

type ('env, 'item) gen = {
  var : string;  (** the variable this generator binds *)
  deps : string list;  (** variables its expression reads *)
  est : int option Lazy.t;
      (** estimated items per evaluation (from {!Clip_xml.Stats});
          [None] = unknown, priced as large; forced only by a join
          cost gate, a table's sizing or EXPLAIN *)
  eval : 'env -> ('item -> unit) -> unit;  (** push the items, in order *)
  bind : 'env -> 'item -> 'env;
}

type 'env pred = {
  pvars : string list;  (** variables the predicate reads *)
  test : 'env -> bool;
}

(* One side of an equality condition, as hashable keys. [keys] pushes
   every atom of the (possibly multi-valued) side, one key each; the
   condition holds when the two sides share at least one key. *)
type 'env keyed = {
  kvars : string list;
  keys : 'env -> (Clip_xml.Atom.t -> unit) -> unit;
}

type 'env cond =
  | Eq of { left : 'env keyed; right : 'env keyed; orig : 'env pred }
  | Other of 'env pred

(* --- Hash tables --------------------------------------------------------- *)

(* The bound item tuples of one segment enumeration, flat: tuple [k]
   occupies [items.(k * width) .. items.(k * width + width - 1)].
   Entries — one per distinct key hash of a tuple — are chained per
   bucket in int arrays, in enumeration order. No key is stored: a
   chain hit whose hash matches is only a candidate, and the probe's
   residual predicates, which always include the original equality,
   make the exact check. *)
type 'item table = {
  width : int;
  items : 'item array;
  heads : int array;  (** bucket -> first entry, or -1 *)
  hashes : int array;  (** entry -> key hash *)
  tuples : int array;
      (** entry -> tuple index; empty when every tuple has exactly one
          entry, entry [e] then being tuple [e] *)
  next : int array;  (** entry -> next entry of the bucket, or -1 *)
}

module Run = struct
  type id = unit ref
  type 'item t = { mutable tables : (id * 'item table) list }

  let create () = { tables = [] }
end

(* --- Physical plan ----------------------------------------------------- *)

(* Where a probe's table lives. [At_step]: built on entry to step
   [step], once per binding of the steps before it, into table slot
   [slot] of the executing call. [Per_run]: the segment reads nothing
   from outside itself, so one table serves every execution of the
   plan in a run; it is built on the first probe and kept in the
   caller's {!Run.t} under the probe's own [id]. *)
type scope = At_step of { step : int; slot : int } | Per_run of Run.id

(* A step covers one generator (Scan) or a contiguous run of
   generators (Probe) replaced wholesale by a hash-table lookup: the
   table enumerates the whole segment once per build environment and
   stores the bound item tuples, so probing restores every segment
   variable at once. A single-generator hash join is the segment of
   length one. *)
type ('env, 'item) stage =
  | Scan of { gen : ('env, 'item) gen; preds : 'env pred list }
  | Probe of {
      gens : ('env, 'item) gen array;
          (** the segment's generators, in enumeration order *)
      scope : scope;
      build_keys : 'env -> (Clip_xml.Atom.t -> unit) -> unit;
          (** keys of one build-side tuple (evaluated with the whole
              segment bound) *)
      probe_keys : 'env -> (Clip_xml.Atom.t -> unit) -> unit;
      preds : 'env pred list;
          (** residual predicates, including the original equality —
              re-checked so key coarsening can never widen the join —
              and every condition pushdown placed inside the segment *)
    }

type ('env, 'item) t = {
  pre : 'env pred list;  (** conditions decided by the outer environment *)
  stages : ('env, 'item) stage array;  (** steps, in enumeration order *)
  builds : int list array;
      (** [builds.(i)]: step-scoped probes whose table is built on
          entry to step [i] (once per binding of the steps [< i]) *)
  nslots : int;  (** table slots of the step-scoped probes *)
  notes : string list;
      (** planner decisions, one line per equality condition: the
          chosen strategy plus the cost-model inputs that justified it *)
}

let stage_gens = function Scan { gen; _ } -> [| gen |] | Probe { gens; _ } -> gens
let est_str = function Some e -> string_of_int e | None -> "?"

let describe t =
  String.concat " "
    (Array.to_list
       (Array.map
          (function
            | Scan { gen; preds } ->
              Printf.sprintf "scan(%s%s)" gen.var
                (if preds = [] then "" else Printf.sprintf "/%d" (List.length preds))
            | Probe { gens; scope; _ } ->
              Printf.sprintf "probe(%s@%s)"
                (String.concat "." (Array.to_list (Array.map (fun g -> g.var) gens)))
                (match scope with
                 | At_step { step; _ } -> string_of_int step
                 | Per_run _ -> "run"))
          t.stages))

(* --- Cost model --------------------------------------------------------- *)

(* Estimates are capped so products cannot overflow; the cap is far
   above any threshold the model compares against. *)
let est_cap = 1_000_000

(* [join_pays ~outer ~seg] — is a hash join over a segment of
   estimated cardinality [seg], probed once per binding of the
   [outer] estimated prefix, cheaper than re-enumerating the segment
   per prefix binding? Naive cost ~ outer*seg enumerations; join cost
   ~ seg (build) + outer (probes), with a constant-factor tax for
   hashing and tuple allocation. [None] (unknown) is priced as large:
   unknown inputs are exactly the ones a quadratic blow-up hurts. *)
let join_pays ~outer ~seg =
  match outer, seg with
  | Some o, Some s -> o * s >= (2 * (o + s)) + 16
  | None, _ | _, None -> true

(* Saturating product of a segment's per-generator estimates; [None]
   when any member is unknown. *)
let est_product gens =
  Array.fold_left
    (fun acc g ->
      match acc, Lazy.force g.est with
      | Some a, Some e -> Some (min est_cap (a * min (max e 0) est_cap))
      | None, _ | _, None -> None)
    (Some 1) gens

let est_mul a b =
  match a, b with
  | Some a, Some b -> Some (min est_cap (min (max a 0) est_cap * min (max b 0) est_cap))
  | None, _ | _, None -> None

(* Runs of a plan nested in [t]'s per-binding action: [t]'s own runs
   times the bindings its whole chain enumerates (filters ignored — an
   upper bound, like every other estimate here). Lazy like the
   estimates it multiplies. *)
let inner_runs ~runs t =
  lazy
    (est_mul (Lazy.force runs)
       (est_product (Array.concat (List.map stage_gens (Array.to_list t.stages)))))

let explain t =
  let b = Buffer.create 256 in
  if t.pre <> [] then
    Printf.bprintf b "  pre: %d condition(s) decided by the outer environment\n"
      (List.length t.pre);
  let filters label = function
    | 0 -> ""
    | 1 -> Printf.sprintf " [1 %s]" label
    | k -> Printf.sprintf " [%d %ss]" k label
  in
  Array.iteri
    (fun i stage ->
      match stage with
      | Scan { gen; preds } ->
        Printf.bprintf b "  stage %d: scan %s (est %s)%s\n" i gen.var
          (est_str (Lazy.force gen.est))
          (filters "filter" (List.length preds))
      | Probe { gens; scope; preds; _ } ->
        Printf.bprintf b "  stage %d: hash probe %s (%s, est %s)%s\n" i
          (String.concat "." (Array.to_list (Array.map (fun g -> g.var) gens)))
          (match scope with
           | At_step { step; _ } -> Printf.sprintf "built at step %d" step
           | Per_run _ -> "built once per run")
          (est_str (est_product gens))
          (filters "residual filter" (List.length preds)))
    t.stages;
  List.iter (fun line -> Printf.bprintf b "  note: %s\n" line) t.notes;
  Buffer.contents b

(* --- Planning ---------------------------------------------------------- *)

let unknown = Lazy.from_val None

let plan ?(policy = `Force) ?(runs = unknown) ~bound ~gens ~conds () =
  let gens = Array.of_list gens in
  let n = Array.length gens in
  (* Pushdown and joins rely on each variable having exactly one
     binding site; if a generator shadows an outer variable or a
     sibling generator, fall back to checking every condition at the
     innermost position, exactly like nested-loop evaluation. *)
  let shadowed =
    let seen = Hashtbl.create 8 in
    List.iter (fun v -> Hashtbl.replace seen v ()) bound;
    Array.exists
      (fun g ->
        Hashtbl.mem seen g.var
        ||
        (Hashtbl.replace seen g.var ();
         false))
      gens
  in
  (* [level vars] — the smallest stage count [i] such that every
     variable is bound by the outer environment or by generators
     [0..i-1]; [n] when some variable is never bound (the predicate
     then fails or errors at the innermost position, as it would
     naively). *)
  let level vars =
    let rec go i remaining =
      match remaining with
      | [] -> i
      | _ when i >= n -> n
      | _ ->
        go (i + 1)
          (List.filter (fun v -> not (String.equal v gens.(i).var)) remaining)
    in
    go 0 (List.filter (fun v -> not (List.mem v bound)) vars)
  in
  let preds_at = Array.make (n + 1) [] in
  let attach j p = preds_at.(j) <- p :: preds_at.(j) in
  (* A chosen join claims the contiguous generator range [g..s]; the
     probe replaces the whole segment. [seg_start.(g)] records the
     segment's extent and sides; [claimed.(t)] marks every covered
     stage so segments never overlap. *)
  let claimed = Array.make (max 1 n) false in
  let seg_start = Array.make (max 1 n) None in
  let nslots = ref 0 in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  if shadowed && n > 0 then
    note "variable shadowing: every condition is checked at the innermost position";
  List.iter
    (fun cond ->
      match cond with
      | Other p -> attach (if shadowed then n else min (level p.pvars) n) p
      | Eq { left; right; orig } ->
        let j = if shadowed then n else level orig.pvars in
        attach j orig;
        let vars = String.concat "," (List.sort_uniq compare orig.pvars) in
        if (not shadowed) && j = 0 then
          note "eq(%s): decided by the outer environment, checked before any enumeration"
            vars;
        if (not shadowed) && j >= 1 && j <= n && claimed.(j - 1) then
          note "eq(%s): generator already covered by a join, kept as filter" vars;
        if (not shadowed) && j >= 1 && j <= n && not claimed.(j - 1) then begin
          let s = j - 1 in
          let ll = level left.kvars and lr = level right.kvars in
          (* The build side is the one that reads the stage-[s]
             variable; the probe side must be decided earlier. *)
          let sides =
            if ll = j && lr < j then Some (left, right)
            else if lr = j && ll < j then Some (right, left)
            else None
          in
          match sides with
          | None ->
            note "eq(%s): no build/probe orientation, kept as pushed-down filter" vars
          | Some (build, probe) ->
            (* Try segments [g..s], shortest first. [ext g] is what
               the segment reads from outside itself — the generators'
               dependencies plus the build keys, minus the segment's
               own variables — and [bp] the level at which all of that
               is bound. The join pays off only when the table
               survives at least one generator outside the segment
               ([bp < g]; [bp = g] would rebuild it per probe), and is
               only possible when the probe keys are decided by then
               ([level probe.kvars <= g]). Growing the segment
               downward absorbs feeder generators (e.g. [d2] in
               [d2 in source.dept, r in d2.regEmp]) whose presence
               would otherwise pin [bp] to [s].

               A probe side decided entirely by the outer environment
               ([lp = 0]) is a nested mapping's join with its parent
               (e.g. [c.@cid = g.@recipient] with [c] bound by the
               parent): no generator of this chain can hold the table,
               but when the segment reads nothing from outside itself
               ([ext g = []]) the table is the same for every parent
               binding, so it is built once per run. Its cost gate
               prices the probes as [runs] (how often the plan runs)
               times the bindings before the segment. A constant probe
               side ([y.a = 5]) carries no join key at all: a table
               would trade a pushed-down filter for allocation. *)
            let lp = level probe.kvars in
            let unkeyed () =
              note "eq(%s): probe side reads no chain generator, kept as pushed-down filter"
                vars
            in
            if lp = 0 && probe.kvars = [] then unkeyed ()
            else begin
              let per_run = lp = 0 in
              let ext g =
                let seg_var v =
                  let rec mem t = t <= s && (String.equal gens.(t).var v || mem (t + 1)) in
                  mem g
                in
                let vars = ref (List.filter (fun v -> not (seg_var v)) build.kvars) in
                for t = g to s do
                  vars := List.filter (fun v -> not (seg_var v)) gens.(t).deps @ !vars
                done;
                !vars
              in
              let est_range lo hi = est_product (Array.sub gens lo (hi - lo + 1)) in
              let outer g =
                let o = est_range 0 (g - 1) in
                if per_run then est_mul (Lazy.force runs) o else o
              in
              let cost_rejected = ref None in
              let cost_ok g =
                match policy with
                | `Force -> true
                | `Cost ->
                  let outer = outer g and seg = est_range g s in
                  join_pays ~outer ~seg
                  ||
                  (if !cost_rejected = None then cost_rejected := Some (outer, seg);
                   false)
              in
              let fits g =
                if per_run then ext g = [] else g >= 1 && g >= lp && level (ext g) < g
              in
              let rec pick g =
                if g < 0 || claimed.(g) then None
                else if fits g && cost_ok g then Some g
                else pick (g - 1)
              in
              match pick s with
              | None ->
                (match !cost_rejected with
                 | Some (outer, seg) ->
                   note
                     "eq(%s): hash join rejected by cost model (outer~%s, seg~%s: join does not pay)"
                     vars (est_str outer) (est_str seg)
                 | None when per_run -> unkeyed ()
                 | None ->
                   note "eq(%s): no independent feeder segment, kept as pushed-down filter"
                     vars)
              | Some g ->
                let seg_vars =
                  String.concat "."
                    (List.init (s - g + 1) (fun t -> gens.(g + t).var))
                in
                let once = if per_run then ", built once per run" else "" in
                (match policy with
                 | `Force -> note "eq(%s): hash join over %s%s (forced)" vars seg_vars once
                 | `Cost ->
                   note "eq(%s): hash join over %s%s (outer~%s, seg~%s: join pays)" vars
                     seg_vars once
                     (est_str (outer g))
                     (est_str (est_range g s)));
                let scope =
                  if per_run then Per_run (ref ())
                  else begin
                    let slot = !nslots in
                    incr nslots;
                    (* [step] is a generator level for now; mapped below *)
                    At_step { step = level (ext g); slot }
                  end
                in
                for t = g to s do
                  claimed.(t) <- true
                done;
                seg_start.(g) <- Some (s, scope, build, probe)
            end
        end)
    conds;
  (* Lay out the steps: each segment collapses to one probe step whose
     residual predicates are every condition pushdown placed inside it
     (they run after the whole segment binds — same surviving
     bindings, though a failing predicate may be evaluated on tuples
     the naive order would have pruned, and vice versa). *)
  let steps_rev = ref [] in
  let starts_rev = ref [] in
  let i = ref 0 in
  while !i < n do
    starts_rev := !i :: !starts_rev;
    (match seg_start.(!i) with
    | Some (s, scope, build, probe) ->
      let preds = ref [] in
      for t = s + 1 downto !i + 1 do
        preds := List.rev_append preds_at.(t) !preds
      done;
      steps_rev :=
        Probe
          {
            gens = Array.sub gens !i (s - !i + 1);
            scope;
            build_keys = build.keys;
            probe_keys = probe.keys;
            preds = !preds;
          }
        :: !steps_rev;
      i := s + 1
    | None ->
      steps_rev := Scan { gen = gens.(!i); preds = List.rev preds_at.(!i + 1) } :: !steps_rev;
      incr i)
  done;
  let stages = Array.of_list (List.rev !steps_rev) in
  let starts = Array.of_list (List.rev !starts_rev) in
  (* Map each probe's build point — a generator level — onto the first
     step boundary that binds at least that many generators. (A build
     point inside another segment rounds up past it: the segment binds
     atomically, so the earliest usable entry is the next step.) *)
  let step_of_level lvl =
    let k = ref (Array.length starts) in
    for idx = Array.length starts - 1 downto 0 do
      if starts.(idx) >= lvl then k := idx
    done;
    !k
  in
  Array.iteri
    (fun idx step ->
      match step with
      | Probe ({ scope = At_step { step; slot }; _ } as p) ->
        stages.(idx) <- Probe { p with scope = At_step { step = step_of_level step; slot } }
      | Probe { scope = Per_run _; _ } | Scan _ -> ())
    stages;
  let builds = Array.make (Array.length stages + 1) [] in
  Array.iteri
    (fun idx stage ->
      match stage with
      | Probe { scope = At_step { step; _ }; _ } -> builds.(step) <- idx :: builds.(step)
      | Probe { scope = Per_run _; _ } | Scan _ -> ())
    stages;
  Array.iteri (fun idx l -> builds.(idx) <- List.rev l) builds;
  { pre = List.rev preds_at.(0); stages; builds; nslots = !nslots; notes = List.rev !notes }

(* --- Execution --------------------------------------------------------- *)

(* The distinct key hashes of a side with other than one atom,
   ascending. *)
let distinct (h : Sink.t) =
  if h.n = 0 then [] else List.sort_uniq Int.compare (List.map Key.hash_atom (Sink.atoms h))

(* Enumerate a probe's segment under [env] and build its table.
   Tuples are numbered in enumeration (document) order and copied into
   one growable item array; a tuple gets one entry per distinct hash of
   its keys, so a single-hash probe meets each tuple at most once. The
   common single-key tuple records just its hash in [thash], the others
   a [-1] marker and their hash list aside ([Key.hash_atom] is never
   negative). Each segment level pushes into a callback built once per
   build. *)
let build_table ~(obs : Clip_obs.Counters.t) (gens : ('env, 'item) gen array)
    build_keys (env : 'env) : 'item table =
  obs.hash_join_builds <- obs.hash_join_builds + 1;
  let width = Array.length gens in
  (* Sized for the planner's estimate of the segment, when it has one. *)
  let cap = match est_product gens with Some e -> max 16 (min e 4096) | None -> 16 in
  let cur = ref [||] and items = ref [||] and ntuples = ref 0 in
  let thash = ref (Array.make cap 0) and multi_rev = ref [] and nent = ref 0 in
  let h = Sink.create () in
  let commit env =
    Sink.fill h build_keys env;
    let th =
      if h.n = 1 then Key.hash_atom h.first
      else
        match distinct h with
        | [ k ] -> k
        | hs ->
          multi_rev := hs :: !multi_rev;
          nent := !nent + List.length hs;
          -1
    in
    if th >= 0 then incr nent;
    let k = !ntuples in
    if k = Array.length !thash then begin
      let a = Array.make (2 * k) 0 in
      Array.blit !thash 0 a 0 k;
      thash := a
    end;
    !thash.(k) <- th;
    let len = k * width in
    if len + width > Array.length !items then begin
      let a = Array.make (max (2 * len) (cap * width)) (!cur).(0) in
      Array.blit !items 0 a 0 len;
      items := a
    end;
    for d = 0 to width - 1 do
      !items.(len + d) <- !cur.(d)
    done;
    ntuples := k + 1
  in
  let envs = Array.make width env and pushes = Array.make width ignore in
  for d = width - 1 downto 0 do
    pushes.(d) <-
      (fun item ->
        if Array.length !cur = 0 then cur := Array.make width item;
        !cur.(d) <- item;
        let env' = gens.(d).bind envs.(d) item in
        if d = width - 1 then commit env'
        else begin
          envs.(d + 1) <- env';
          gens.(d + 1).eval env' pushes.(d + 1)
        end)
  done;
  gens.(0).eval env pushes.(0);
  let ntuples = !ntuples and thash = !thash and nent = !nent in
  (* Up to two entries per bucket on average: the hash check makes a
     longer chain cheap, and the bucket array is the table's largest
     part after the entries. *)
  let nb = ref 1 in
  while 2 * !nb < nent do
    nb := 2 * !nb
  done;
  let heads = Array.make !nb (-1) in
  let hashes = Array.make nent 0 and next = Array.make nent (-1) in
  let tuples = if !multi_rev = [] then [||] else Array.make nent 0 in
  (* Fill back to front, pushing each entry on its bucket's chain, so
     every chain reads in enumeration order. *)
  let e = ref nent and multi = ref !multi_rev in
  let add k h =
    decr e;
    let b = h land (!nb - 1) in
    hashes.(!e) <- h;
    if Array.length tuples > 0 then tuples.(!e) <- k;
    next.(!e) <- heads.(b);
    heads.(b) <- !e
  in
  for k = ntuples - 1 downto 0 do
    if thash.(k) >= 0 then add k thash.(k)
    else
      match !multi with
      | hs :: rest ->
        List.iter (add k) hs;
        multi := rest
      | [] -> assert false
  done;
  { width; items = !items; heads; hashes; tuples; next }

(* The entry chain of hash [h]; [-1] ends it. *)
let chain_head tbl h = tbl.heads.(h land (Array.length tbl.heads - 1))
let entry_tuple tbl e = if Array.length tbl.tuples = 0 then e else tbl.tuples.(e)

(* The tuples a multi-valued side hits: the union of the per-hash hits,
   deduplicated, in enumeration order. Candidates only — see {!table}. *)
let multi_hits tbl hs =
  let hits = ref [] in
  List.iter
    (fun h ->
      let e = ref (chain_head tbl h) in
      while !e >= 0 do
        if tbl.hashes.(!e) = h then hits := entry_tuple tbl !e :: !hits;
        e := tbl.next.(!e)
      done)
    hs;
  List.sort_uniq Int.compare !hits

(* Bind tuple [k] of [tbl] on top of [env]. *)
let bind_tuple gens tbl k env =
  let env = ref env in
  for d = 0 to tbl.width - 1 do
    env := gens.(d).bind !env tbl.items.((k * tbl.width) + d)
  done;
  !env

(* Build step-scoped probe [k]'s table into [tables], under the
   environment the build runs in. *)
let build_into ~obs (t : ('env, 'item) t) (tables : 'item table option array)
    ~(env : 'env) k =
  match t.stages.(k) with
  | Probe { gens; scope = At_step { slot; _ }; build_keys; _ } ->
    tables.(slot) <- Some (build_table ~obs gens build_keys env)
  | Probe { scope = Per_run _; _ } | Scan _ -> ()

(* [List.for_all] with no closure per call: this runs per candidate. *)
let rec holds_all env = function
  | [] -> true
  | p :: preds -> p.test env && holds_all env preds

(* Everything a plan's loop needs besides the binding it starts from is
   built here, once: the table slots, the key collector and one push
   callback per scan stage. [envs.(i)] holds the binding stage [i]
   extends while it enumerates, so a callback reads it instead of
   capturing it. Per candidate, the loop allocates only what [bind],
   the predicates and [emit] do. *)
let executor ~(obs : Clip_obs.Counters.t) ~run (t : ('env, 'item) t) ~(tick : unit -> unit)
    ~(emit : 'env -> unit) : 'env -> unit =
  let n = Array.length t.stages in
  let tables = if t.nslots = 0 then [||] else Array.make t.nslots None in
  let envs = ref [||] in
  let h = Sink.create () in
  let pushes = Array.make n ignore in
  let rec go i env =
    if i = n then emit env
    else begin
      build_all env t.builds.(i);
      match t.stages.(i) with
      | Scan { gen; _ } ->
        !envs.(i) <- env;
        gen.eval env pushes.(i)
      | Probe { gens; scope; build_keys; probe_keys; preds } ->
        (* A run-scoped table is built on its first probe of the run,
           under the probing [env] — the segment reads nothing from it. *)
        let tbl =
          match scope with
          | At_step { slot; _ } -> (
            match tables.(slot) with Some tbl -> tbl | None -> assert false)
          | Per_run id -> (
            match List.assq_opt id run.Run.tables with
            | Some tbl -> tbl
            | None ->
              let tbl = build_table ~obs gens build_keys env in
              run.Run.tables <- (id, tbl) :: run.Run.tables;
              tbl)
        in
        obs.hash_join_probes <- obs.hash_join_probes + 1;
        Sink.fill h probe_keys env;
        if h.n = 1 then chain i gens tbl preds env (Key.hash_atom h.first)
        else
          match distinct h with
          | [] -> ()
          | [ k ] -> chain i gens tbl preds env k
          | hs -> List.iter (hit i gens tbl preds env) (multi_hits tbl hs)
    end
  and build_all env = function
    | [] -> ()
    | k :: ks ->
      build_into ~obs t tables ~env k;
      build_all env ks
  and chain i gens tbl preds env hsh =
    let e = ref (chain_head tbl hsh) in
    while !e >= 0 do
      if tbl.hashes.(!e) = hsh then hit i gens tbl preds env (entry_tuple tbl !e);
      e := tbl.next.(!e)
    done
  and hit i gens tbl preds env k =
    tick ();
    let env' = bind_tuple gens tbl k env in
    if holds_all env' preds then go (i + 1) env'
  in
  Array.iteri
    (fun i stage ->
      match stage with
      | Scan { gen; preds } ->
        pushes.(i) <-
          (fun item ->
            tick ();
            let env' = gen.bind !envs.(i) item in
            if holds_all env' preds then go (i + 1) env')
      | Probe _ -> ())
    t.stages;
  fun env ->
    if Array.length !envs < n then envs := Array.make n env;
    if holds_all env t.pre then go 0 env

let execute ~obs ~run t ~tick ~env ~emit = executor ~obs ~run t ~tick ~emit env
