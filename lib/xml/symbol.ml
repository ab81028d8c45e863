(* A global element-tag symbol table, safe under Domain.spawn.

   Tags are interned into dense non-negative ints so that the hot
   paths of both backends — child scans, statistics —
   compare tags with an int equality instead of hashing or walking a
   string. Interning is append-only: a symbol, once assigned, never
   changes meaning, which is what makes it sound to store symbols
   inside immutable nodes ({!Node.element.sym}), in per-run structures
   ({!Stats}, plans) and in values shared across domains.

   The table is global and grows monotonically. That is deliberate:
   tag vocabularies are schema-sized (dozens of names, not millions),
   so a process-wide table costs nothing and lets symbols flow between
   documents, plans and worker domains without translation.

   Concurrency design: the whole table is one immutable snapshot
   ({!state}: a frozen id→name array and a frozen name→id hashtable)
   published through an [Atomic.t]. Readers — [intern] hits, [name],
   [interned] — load the snapshot and read frozen data, lock-free.
   A miss takes [mu], re-checks under the lock, builds a NEW array and
   a NEW hashtable (copy + one insert) and publishes them atomically;
   the old snapshot is never mutated, so a concurrent reader sees
   either the old complete table or the new complete table, never a
   half-resized one. The copy-per-miss cost is O(vocabulary), paid
   once per fresh tag — fine for schema-sized vocabularies.

   This also closes a latent single-domain race the old grow-and-blit
   table had: [names]/[count] were observable mid-resize by a
   reentrant intern (finaliser, signal handler), which could read a
   stale array or a slot not yet written. A frozen snapshot can never
   be observed in a partial state. *)

type t = int

type state = {
  names : string array;  (* frozen; length = number of symbols *)
  ids : (string, int) Hashtbl.t;  (* frozen after publication *)
}

let state = Atomic.make { names = [||]; ids = Hashtbl.create 1 }
let mu = Mutex.create ()

let intern s =
  let st = Atomic.get state in
  match Hashtbl.find_opt st.ids s with
  | Some i -> i
  | None ->
    Mutex.protect mu (fun () ->
        (* re-check: another domain may have published [s] since *)
        let st = Atomic.get state in
        match Hashtbl.find_opt st.ids s with
        | Some i -> i
        | None ->
          let i = Array.length st.names in
          let names = Array.append st.names [| s |] in
          let ids = Hashtbl.copy st.ids in
          Hashtbl.add ids s i;
          Atomic.set state { names; ids };
          i)

let name i =
  let st = Atomic.get state in
  if i < 0 || i >= Array.length st.names then
    invalid_arg "Symbol.name: unknown symbol";
  st.names.(i)

let interned () = Array.length (Atomic.get state).names

let of_int i =
  if i < 0 || i >= interned () then invalid_arg "Symbol.of_int: unknown symbol";
  i
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (i : t) = i
