(* The per-write cost that [obs] multiplies by a run's counter writes:
   one counter increment through a run's meter, in ns (best of seven).

   A loop of eight increments per iteration is timed against an empty
   loop, and the difference is divided by eight. With one increment per
   iteration the write costs about as much as the loop's own control,
   and the difference reads anywhere from 0 to 2.7 ns for the same
   binary, and by where the loop's code lies; eight writes per
   iteration read 0.33-0.42 ns at every code offset tried. The probe
   is a module of its own, linked before bench/main.ml, so edits
   there do not move its code either. *)

let writes_per_iter = 8

let ns meter =
  let n = 2_000_000 in
  let once f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n
  in
  let[@inline always] write () =
    let c = (Sys.opaque_identity meter).Clip_xquery.Meter.counters in
    c.child_steps <- c.child_steps + 1
  in
  let write_loop () =
    for _ = 1 to n do
      write ();
      write ();
      write ();
      write ();
      write ();
      write ();
      write ();
      write ()
    done
  in
  let base_loop () =
    for _ = 1 to n do
      ignore (Sys.opaque_identity 0)
    done
  in
  let reps = 7 in
  let best f =
    let m = ref Float.infinity in
    for _ = 1 to reps do
      m := Float.min !m (once f)
    done;
    !m
  in
  Float.max 0.
    ((best write_loop -. best base_loop) /. float_of_int writes_per_iter)
