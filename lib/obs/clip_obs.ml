(* Execution counters and trace spans. Every run owns one counter
   record, reached through its execution state, and each counting site
   is a direct field increment whether or not anyone reads the counts.
   No record is ambient, so independent runs (including runs on
   different domains) never share or clobber each other's counters. *)

module Counters = struct
  type t = {
    mutable nodes_scanned : int;
    mutable child_steps : int;
    mutable index_probes : int;
    mutable index_hits : int;
    mutable hash_join_builds : int;
    mutable hash_join_probes : int;
    mutable batches_executed : int; (* never written: always 0 *)
    mutable memo_hits : int;
    mutable session_hits : int;
    mutable lim_ticks : int;
    mutable ctl_checks : int;
    mutable faults_injected : int;
  }

  let create () =
    {
      nodes_scanned = 0;
      child_steps = 0;
      index_probes = 0;
      index_hits = 0;
      hash_join_builds = 0;
      hash_join_probes = 0;
      batches_executed = 0;
      memo_hits = 0;
      session_hits = 0;
      lim_ticks = 0;
      ctl_checks = 0;
      faults_injected = 0;
    }

  let add ~into c =
    into.nodes_scanned <- into.nodes_scanned + c.nodes_scanned;
    into.child_steps <- into.child_steps + c.child_steps;
    into.index_probes <- into.index_probes + c.index_probes;
    into.index_hits <- into.index_hits + c.index_hits;
    into.hash_join_builds <- into.hash_join_builds + c.hash_join_builds;
    into.hash_join_probes <- into.hash_join_probes + c.hash_join_probes;
    into.memo_hits <- into.memo_hits + c.memo_hits;
    into.session_hits <- into.session_hits + c.session_hits;
    into.lim_ticks <- into.lim_ticks + c.lim_ticks;
    into.ctl_checks <- into.ctl_checks + c.ctl_checks;
    into.faults_injected <- into.faults_injected + c.faults_injected

  let work_assoc c =
    [
      ("nodes_scanned", c.nodes_scanned);
      ("child_steps", c.child_steps);
      ("index_probes", c.index_probes);
      ("index_hits", c.index_hits);
      ("hash_join_builds", c.hash_join_builds);
      ("hash_join_probes", c.hash_join_probes);
      ("lim_ticks", c.lim_ticks);
    ]

  let to_assoc c =
    work_assoc c
    @ [
        ("memo_hits", c.memo_hits);
        ("session_hits", c.session_hits);
        ("ctl_checks", c.ctl_checks);
        ("faults_injected", c.faults_injected);
      ]

  let to_string c =
    String.concat ""
      (List.filter_map
         (fun (name, v) ->
           if v = 0 then None else Some (Printf.sprintf "  %-16s = %d\n" name v))
         (to_assoc c))

  let to_json c =
    Printf.sprintf "{%s}"
      (String.concat ", "
         (List.map
            (fun (name, v) -> Printf.sprintf "\"%s\": %d" name v)
            (to_assoc c)))
end

module Trace = struct
  type span = { sname : string; sstart : float; sdur : float; sdepth : int }

  type t = {
    now : unit -> float;
    t0 : float;
    mutable depth : int;
    mutable done_rev : span list; (* completion order, reversed *)
  }

  let create ?(now = Sys.time) () = { now; t0 = now (); depth = 0; done_rev = [] }

  let span tracer name f =
    match tracer with
    | None -> f ()
    | Some t ->
      let depth = t.depth in
      let start = t.now () in
      t.depth <- depth + 1;
      let finish () =
        t.depth <- depth;
        t.done_rev <-
          { sname = name; sstart = start -. t.t0; sdur = t.now () -. start; sdepth = depth }
          :: t.done_rev
      in
      Fun.protect ~finally:finish f

  let spans t =
    List.sort
      (fun a b ->
        (* start order; a parent starting with its first child sorts
           before it (smaller depth first) *)
        match compare a.sstart b.sstart with
        | 0 -> compare a.sdepth b.sdepth
        | c -> c)
      (List.rev t.done_rev)

  let render t =
    String.concat ""
      (List.map
         (fun s ->
           Printf.sprintf "  %-*s%-*s %8.3f ms\n" (2 * s.sdepth) "" (24 - (2 * s.sdepth))
             s.sname (1000. *. s.sdur))
         (spans t))

  let to_json t =
    Printf.sprintf "[%s]"
      (String.concat ", "
         (List.map
            (fun s ->
              Printf.sprintf
                "{\"name\": \"%s\", \"start_ms\": %.3f, \"dur_ms\": %.3f, \"depth\": %d}"
                s.sname (1000. *. s.sstart) (1000. *. s.sdur) s.sdepth)
            (spans t)))
end
