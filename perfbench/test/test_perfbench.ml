(* Tests of the benchmark itself: seeded generation, the closed-form
   counts the output checks rely on, the checks, and agreement between
   what the driver prints and BENCHMARK.json. *)

open Perfbench

let small = { Gen.depts = 7; projects = 19; employees = 61 }

let parse s = Clip_xml.Parser.parse_string s

let test_same_seed_same_bytes () =
  let d seed index = (Gen.dept_doc ~size:small ~seed ~index ()).d_bytes in
  let g seed index = (Gen.grant_db ~companies:9 ~seed ~index ()).g_bytes in
  Alcotest.(check string) "dept doc" (d 3 0) (d 3 0);
  Alcotest.(check string) "grant db" (g 3 1) (g 3 1);
  Alcotest.(check bool) "another seed, other bytes" false (d 3 0 = d 4 0);
  Alcotest.(check bool) "another index, other bytes" false (g 3 0 = g 3 1)

let check_counts doc counts =
  List.iter
    (fun (tag, want) ->
      Alcotest.(check int) tag want (Clip_xml.Node.count_elements doc tag))
    counts

let test_closed_form_counts () =
  List.iter
    (fun seed ->
      let d = Gen.dept_doc ~size:small ~seed ~index:0 () in
      check_counts (parse d.d_bytes) (Gen.dept_source_counts d);
      let g = Gen.grant_db ~companies:9 ~seed ~index:0 () in
      check_counts (parse g.g_bytes) (Gen.grant_source_counts g))
    [ 1; 2; Gen.held_out_seed ]

(* The closed forms for the mapping outputs hold on the engine's output,
   and the byte-scanning checks see them. *)
let test_output_counts () =
  let d = Gen.dept_doc ~size:small ~seed:5 ~index:0 () in
  let src = parse d.d_bytes in
  List.iter
    (fun (f : Clip_scenarios.Figures.t) ->
      let out =
        Clip_xml.Printer.to_pretty_string (Clip_core.Engine.run f.mapping src)
      in
      check_counts (parse out) (Gen.dept_output_counts d f.name);
      Alcotest.(check (list string)) f.name [] (Workloads.dept_check d f.name out))
    Workloads.dept_mappings;
  let g = Gen.grant_db ~companies:9 ~seed:5 ~index:0 () in
  let m = Lazy.force Workloads.join_mapping in
  let out =
    Clip_xml.Printer.to_pretty_string
      (Clip_core.Engine.run ~backend:`Rel m (parse g.g_bytes))
  in
  check_counts (parse out) (Gen.grant_output_counts g)

let test_checks_catch_wrong_output () =
  let out = {|<web><organization name="a"><funding fid="1"/></organization><organizations/></web>|} in
  Alcotest.(check int) "exact tag only" 1 (Check.count_tag out "organization");
  Alcotest.(check bool) "a missing element is reported" true
    (Check.counts_match out [ ("funding", 2) ] <> []);
  let fig9 = {|<target><department name="d" numProj="2" numEmps="5"/></target>|} in
  Alcotest.(check (list string)) "fig9 ok" []
    (Check.fig9_counts fig9 ~projs:[| 2 |] ~emps:[| 5 |]);
  Alcotest.(check bool) "fig9 wrong count" true
    (Check.fig9_counts fig9 ~projs:[| 3 |] ~emps:[| 5 |] <> [])

(* --- a minimal JSON reader, enough for BENCHMARK.json and the result line *)

type json = Obj of (string * json) list | Arr of json list | Str of string | Other

let json_of_string s =
  let i = ref 0 in
  let peek () = s.[!i] in
  let rec ws () = if !i < String.length s && String.contains " \n\r\t" (peek ()) then (incr i; ws ()) in
  let str () =
    incr i;
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr i;
      Buffer.add_char b (peek ());
      incr i
    done;
    incr i;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr i;
      let rec members acc =
        ws ();
        if peek () = '}' then (incr i; Obj (List.rev acc))
        else begin
          if peek () = ',' then incr i;
          ws ();
          let k = str () in
          ws ();
          incr i (* ':' *);
          let v = value () in
          members ((k, v) :: acc)
        end
      in
      members []
    | '[' ->
      incr i;
      let rec items acc =
        ws ();
        if peek () = ']' then (incr i; Arr (List.rev acc))
        else begin
          if peek () = ',' then incr i;
          let v = value () in
          items (v :: acc)
        end
      in
      items []
    | '"' -> Str (str ())
    | _ ->
      while !i < String.length s && not (String.contains ",}] \n" (peek ())) do incr i done;
      Other
  in
  value ()

let field k = function Obj kvs -> List.assoc k kvs | _ -> failwith ("no field " ^ k)
let names = function
  | Arr xs -> List.map (fun x -> match field "name" x with Str s -> s | _ -> "") xs
  | _ -> []
let keys = function Obj kvs -> List.map fst kvs | _ -> []

let benchmark =
  lazy
    (json_of_string
       (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all))

(* The last line the driver prints, on a tiny input. *)
let run_driver workload trace =
  let ic =
    Unix.open_process_args_in "../main.exe"
      [| "../main.exe"; "--workload"; workload; "--seed"; "1"; "--seconds"; "0.2";
         "--trace"; trace; "--scale"; "0.02" |]
  in
  let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> Alcotest.failf "%s --trace %s exited non-zero" workload trace);
  json_of_string (List.nth lines (List.length lines - 1))

let sorted = List.sort compare

let test_names_match_benchmark () =
  let b = Lazy.force benchmark in
  Alcotest.(check (list string)) "workloads"
    (sorted (names (field "workloads" b)))
    (sorted (List.map (fun (w : Workloads.workload) -> w.name) Workloads.all));
  List.iter
    (fun (w : Workloads.workload) ->
      List.iter
        (fun (trace, section) ->
          let printed = run_driver w.name trace in
          Alcotest.(check (list string))
            (w.name ^ " " ^ section)
            (sorted (names (field section b)))
            (sorted (keys (field "metrics" printed))))
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    Workloads.all

let () =
  Alcotest.run "perfbench"
    [
      ( "generator",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_same_seed_same_bytes;
          Alcotest.test_case "closed-form source counts" `Quick test_closed_form_counts;
          Alcotest.test_case "closed-form output counts" `Quick test_output_counts;
        ] );
      ("checks", [ Alcotest.test_case "wrong outputs are caught" `Quick test_checks_catch_wrong_output ]);
      ( "contract",
        [ Alcotest.test_case "printed names match BENCHMARK.json" `Quick test_names_match_benchmark ] );
    ]
