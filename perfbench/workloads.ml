(* The four workloads. Each request runs in memory from input bytes to
   output bytes through the public calls `clip run` makes: the mapping
   DSL parser, the source XML parser (or the streaming lexer), the
   engine, and the pretty printer. Every call into a layer is wrapped in
   a span of the request's context, which costs a match when the
   context carries no tracer. *)

module Engine = Clip_core.Engine
module Mapping = Clip_core.Mapping
module S = Clip_scenarios

exception Failed of string

let limits = Clip_diag.Limits.default

let ok what = function
  | Ok v -> v
  | Error ds -> raise (Failed (what ^ ": " ^ Clip_diag.render_list ds))

let span = Clip_run.span

type request = {
  kind : string;  (** what the request does; warm-up runs each kind once *)
  source_bytes : int;
  bytes_in : int;  (** source plus mapping bytes *)
  run : Clip_run.t -> string;  (** bytes in to bytes out; raises on failure *)
  check : string -> string list;  (** problems with an output; [] when correct *)
  deferred : unit -> (int * string) list;
      (** checks too costly to run inside the timed loop, run after it:
          (failed requests, problem) pairs *)
  probe : Clip_obs.Trace.t option -> int option;
      (** traced runs only: standalone calls into the layers the request
          runs internally, timed as spans of the given tracer, right
          after the request; returns the shard count where it cuts *)
}

(* Standalone probes shared by every workload with a parsed source. The
   index is lazy, so building it alone costs nothing: the probe also asks
   it for every child grouping of the root and of the root's children,
   as the first child steps of a run do. *)
let probe_doc tr doc =
  let module Node = Clip_xml.Node in
  let elements (e : Node.element) =
    List.filter_map (function Node.Element c -> Some c | Node.Text _ -> None) e.children
  in
  ignore (Clip_obs.Trace.span tr "xml.stats" (fun () -> Clip_xml.Stats.collect doc));
  Clip_obs.Trace.span tr "xml.index" (fun () ->
      let idx = Clip_xml.Index.build doc in
      match doc with
      | Node.Element root ->
        List.iter
          (fun (e : Node.element) ->
            List.iter
              (fun (c : Node.element) -> ignore (Clip_xml.Index.children_by_tag idx e c.sym))
              (elements e))
          (root :: elements root)
      | Node.Text _ -> ())

(* Keep the parsed source for the probes only when tracing: holding it
   in an untraced run would raise the peak heap the run reports. *)
let keep ctx slot doc = if Clip_run.tracer ctx <> None then slot := Some doc

let take slot =
  let d = !slot in
  slot := None;
  d

let parse_source ctx bytes =
  span ctx "xml.parse" (fun () ->
      ok "source" (Clip_xml.Parser.parse_string_result ~limits bytes))

let parse_mapping ctx text =
  span ctx "core.dsl" (fun () -> ok "mapping" (Clip_core.Dsl.parse_result ~limits text))

let print ctx out = span ctx "xml.print" (fun () -> Clip_xml.Printer.to_pretty_string out)

(* --- bulk and stream: deptdb documents through the dept figures ------- *)

let dept_mappings =
  S.Figures.[ fig5; fig6; fig7; fig9; fig6_join_global ]

(* fig6-join-global has no safe cut: streamed, it falls back to building
   the whole tree, which would set stream's peak heap to bulk's and hide
   whatever the cutter and merger hold. *)
let streamed_mappings = S.Figures.[ fig5; fig6; fig7; fig9 ]

let no_deferred () = []

let dept_check (d : Gen.dept_doc) name out =
  if name = "fig9" then
    Check.counts_match out (Gen.dept_output_counts d name)
    @ Check.fig9_counts out ~projs:d.d_projs ~emps:d.d_emps
  else Check.counts_match out (Gen.dept_output_counts d name)

let docs_per_run = 4

let dept_docs ~seed ~scale =
  let size =
    let s n = max 1 (int_of_float (Float.round (scale *. float n))) in
    let d = Gen.dept_default in
    let depts = s d.depts in
    { Gen.depts; projects = max depts (s d.projects); employees = s d.employees }
  in
  List.init docs_per_run (fun index -> Gen.dept_doc ~size ~seed ~index ())

let bulk ~seed ~scale =
  let docs = dept_docs ~seed ~scale in
  List.concat_map
    (fun (d : Gen.dept_doc) ->
      List.map
        (fun (f : S.Figures.t) ->
          let text = Clip_core.Dsl.to_string f.mapping in
          let last = ref None in
          {
            kind = f.name;
            source_bytes = String.length d.d_bytes;
            bytes_in = String.length d.d_bytes + String.length text;
            run =
              (fun ctx ->
                let m = parse_mapping ctx text in
                let doc = parse_source ctx d.d_bytes in
                keep ctx last doc;
                let out =
                  span ctx "engine.run" (fun () ->
                      ok "run" (Engine.run_result ~ctx ~limits m doc))
                in
                print ctx out);
            check = dept_check d f.name;
            deferred = no_deferred;
            probe =
              (fun tr ->
                Option.iter (probe_doc tr) (take last);
                None);
          })
        dept_mappings)
    docs

(* A fixed budget of 64 KiB per shard: about fifteen shards a document. *)
let shard_bytes = 65_536

(* The standalone shard pipeline of one streamed request: plan, cut
   the byte stream, evaluate every shard through the backend module,
   merge. Untouched (None) where the engine would not stream-cut. *)
let probe_shards tr (m : Mapping.t) bytes =
  let sp name f = Clip_obs.Trace.span tr name f in
  let tgd = ok "compile" (Clip_core.Compile.to_tgd_result m) in
  match
    sp "shard.plan" (fun () ->
        Clip_shard.plan ~source:m.source ~target:m.target tgd)
  with
  | Clip_shard.Whole _ -> None
  | Clip_shard.Sharded cut when cut.needs_prologue -> None
  | Clip_shard.Sharded cut -> (
      let shards =
        sp "shard.cut" (fun () ->
            let c =
              Clip_shard.cutter cut ~budget_bytes:shard_bytes
                (Clip_xml.Stream.of_string ~limits bytes)
            in
            let rec pull acc =
              match ok "cut" (Clip_shard.next_shard c) with
              | Clip_shard.Shard n -> pull (n :: acc)
              | Clip_shard.Fallback_doc _ -> raise (Failed "cut: root mismatch")
              | Clip_shard.Exhausted -> List.rev acc
            in
            pull [])
      in
      match Engine.backend_module `Tgd with
      | Engine.Backend (module B) ->
        let query =
          ok "prepare" (B.prepare_result ~limits ~ctx:(Clip_run.create ()) ~mapping:m tgd)
        in
        let outs =
          sp "shard.eval" (fun () ->
              List.map
                (fun shard ->
                  ok "shard"
                    (B.eval_shard ~limits ~minimum_cardinality:true
                       ~ctl:Clip_run.Control.none ~obs:None ~steps_out:(ref 0)
                       query shard))
                shards)
        in
        sp "shard.merge" (fun () ->
            let mg = Clip_shard.merger ~unify:cut.unify in
            List.iter (Clip_shard.merge_into mg) outs;
            ignore (Clip_shard.merged mg));
        Some (List.length shards))

let stream ~seed ~scale =
  let docs = dept_docs ~seed ~scale in
  List.concat_map
    (fun (d : Gen.dept_doc) ->
      List.map
        (fun (f : S.Figures.t) ->
          let text = Clip_core.Dsl.to_string f.mapping in
          (* Digests of the outputs seen, with how often each was seen,
             compared after the timed loop with the whole-document output
             of the same mapping and bytes: computing that inside the
             loop would put a whole tree in the heap stream reports. *)
          let seen = Hashtbl.create 1 in
          {
            kind = f.name;
            source_bytes = String.length d.d_bytes;
            bytes_in = String.length d.d_bytes + String.length text;
            run =
              (fun ctx ->
                let m = parse_mapping ctx text in
                let src = Clip_xml.Stream.of_string ~limits d.d_bytes in
                let out =
                  span ctx "engine.run" (fun () ->
                      ok "run"
                        (Engine.run_stream_result ~ctx ~limits ~mode:`Sharded
                           ~shard_bytes ~jobs:1 m src))
                in
                print ctx out);
            check =
              (fun out ->
                let h = Check.digest out in
                Hashtbl.replace seen h (1 + Option.value (Hashtbl.find_opt seen h) ~default:0);
                dept_check d f.name out);
            deferred =
              (fun () ->
                if Hashtbl.length seen = 0 then []
                else
                  let reference =
                    Check.digest
                      (Clip_xml.Printer.to_pretty_string
                         (ok "reference"
                            (Engine.run_result ~ctx:(Clip_run.create ()) ~limits f.mapping
                               (ok "reference" (Clip_xml.Parser.parse_string_result d.d_bytes)))))
                  in
                  Hashtbl.fold
                    (fun h n l ->
                      if h = reference then l
                      else (n, "differs from the whole-document output") :: l)
                    seen []);
            probe = (fun tr -> probe_shards tr f.mapping d.d_bytes);
          })
        streamed_mappings)
    docs

(* --- author: many small cold requests over the paper's mappings -------- *)

(* The identity mapping over a schema: one driven builder per repeating
   element, nested as in the schema, copying every leaf below a
   repetition. [identity s ; m] is the first stage of a --then chain. *)
let identity (s : Clip_schema.Schema.t) =
  let module Schema = Clip_schema.Schema in
  let n = ref 0 in
  let rec walk path (e : Schema.element) =
    let kids =
      List.concat_map
        (fun (c : Schema.element) -> walk (Clip_schema.Path.child path c.name) c)
        e.children
    in
    if Schema.is_repeating s path then begin
      incr n;
      [
        Mapping.node
          ~id:(Printf.sprintf "id%d" !n)
          ~output:path ~children:kids
          [ Mapping.input ~var:(Printf.sprintf "x%d" !n) path ];
      ]
    end
    else kids
  in
  let roots = walk (Schema.root_path s) s.root in
  let values =
    List.filter_map
      (fun q ->
        if Schema.repeating_ancestors s q <> [] then Some (Mapping.value [ q ] q)
        else None)
      (Schema.leaf_paths s)
  in
  Mapping.make ~source:s ~target:s ~roots values

type case = {
  c_name : string;
  c_mapping : Mapping.t;
  c_witness : Clip_xml.Node.t;
  c_expected : [ `Instance of Clip_xml.Node.t * bool | `Digest of string ];
  c_tgd_only : bool;
}

(* Printed outputs of the cases the paper prints no instance for,
   recorded once from the tgd backend; the xquery backend must agree. *)
let recorded =
  [
    ("fig6-cartesian", "1a0e6b1bb5b8e6a07c47ea229f28bf31");
    ("fig6-global", "9a1325377cfdbff08533f385818422dc");
    ("fig6-join-global", "90631f06cf2fa3d0d1668f68ba921343");
    ("t1-nested-fig1", "e6d145607195e5cd48a0efd054a0f06b");
    ("t1-nested-fig3", "610dfe7ba7e096be2962337ddfb3897c");
    ("t1-translating-fig1", "722e35909e62f524aad5686a6cb0d969");
    ("t1-this-paper-fig1", "10af0565d42c76d99e4cb9e9decfda81");
  ]

let cases =
  lazy
    (List.map
       (fun (f : S.Figures.t) ->
         {
           c_name = f.name;
           c_mapping = f.mapping;
           c_witness = S.Deptdb.instance;
           c_expected =
             (match f.expected with
              | Some e -> `Instance (e, f.ordered)
              | None -> `Digest (List.assoc f.name recorded));
           c_tgd_only = not f.minimum_cardinality;
         })
       S.Figures.all
    @ List.map
        (fun (name, (sc : S.Table1.scenario)) ->
          let m = sc.mapping in
          {
            c_name = name;
            c_mapping =
              Clip_clio.Generate.to_clip m (Clip_clio.Generate.forest ~extension:true m);
            c_witness = sc.instance;
            c_expected = `Digest (List.assoc name recorded);
            c_tgd_only = false;
          })
        S.Table1.
          [
            ("t1-nested-fig1", nested_fig1);
            ("t1-nested-fig3", nested_fig3);
            ("t1-translating-fig1", translating_fig1);
            ("t1-this-paper-fig1", this_paper_fig1);
          ])

let author_check c out =
  match c.c_expected with
  | `Digest d ->
    let got = Check.digest out in
    if got = d then [] else [ Printf.sprintf "%s: digest %s, %s recorded" c.c_name got d ]
  | `Instance (e, ordered) ->
    let got = Clip_xml.Parser.parse_string out in
    let same =
      if ordered then Clip_xml.Node.equal got e else Clip_xml.Node.equal_unordered got e
    in
    if same then [] else [ c.c_name ^ ": differs from the paper's instance" ]

(* Per case, eight requests: six single runs alternating tgd and xquery,
   then one two-stage --then chain on each backend — a quarter of the
   requests are chains. The universal-solution variant runs on tgd only. *)
let variants = [ (false, `Tgd); (false, `Xquery); (false, `Tgd); (false, `Xquery);
                 (false, `Tgd); (false, `Xquery); (true, `Tgd); (true, `Xquery) ]

let author_request c (chain, backend) =
  let backend = if c.c_tgd_only then `Tgd else backend in
  let texts =
    List.map Clip_core.Dsl.to_string
      ((if chain then [ identity c.c_mapping.source ] else []) @ [ c.c_mapping ])
  in
  let witness = Clip_xml.Printer.to_string c.c_witness in
  let minimum_cardinality = not c.c_tgd_only in
  let parsed = ref None in
  {
    kind =
      Printf.sprintf "%s/%s%s" c.c_name
        (if backend = `Tgd then "tgd" else "xquery")
        (if chain then "/then" else "");
    source_bytes = String.length witness;
    bytes_in =
      String.length witness + List.fold_left (fun n t -> n + String.length t) 0 texts;
    run =
      (fun ctx ->
        let ms = List.map (parse_mapping ctx) texts in
        if chain then keep ctx parsed ms;
        let m = List.nth ms (List.length ms - 1) in
        let doc = parse_source ctx witness in
        let ds = span ctx "core.diagnose" (fun () -> Engine.diagnose m) in
        if Clip_diag.has_errors ds then raise (Failed (Clip_diag.render_list ds));
        let tgd = span ctx "tgd.pretty" (fun () -> Engine.tgd_text m) in
        let xq = span ctx "core.xquery_text" (fun () -> Engine.xquery_text m) in
        if tgd = "" || xq = "" then raise (Failed "empty tgd or xquery text");
        let out =
          span ctx "engine.run" (fun () ->
              ok "run"
                (if chain then
                   Clip_algebra.Pipeline.run_result ~ctx ~limits ~backend
                     ~minimum_cardinality ms doc
                 else
                   Engine.run_result ~ctx ~limits ~backend ~minimum_cardinality m doc))
        in
        print ctx out);
    check = author_check c;
    deferred = no_deferred;
    probe =
      (fun tr ->
        Option.iter
          (fun ms ->
            ignore
              (Clip_obs.Trace.span tr "algebra.compose" (fun () ->
                   Clip_algebra.Pipeline.plan ms)))
          (take parsed);
        None);
  }

let author ~seed ~scale:_ =
  let cases = Lazy.force cases in
  let reqs =
    Array.of_list
      (List.concat_map (fun v -> List.map (fun c -> author_request c v) cases) variants)
  in
  (* The seed fixes the order requests rotate in. *)
  let st = Gen.rng ~seed ~index:0 in
  for i = Array.length reqs - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = reqs.(i) in
    reqs.(i) <- reqs.(j);
    reqs.(j) <- t
  done;
  Array.to_list reqs

(* --- join: relational company/grant databases on the rel backend ------- *)

(* The relational source, declared through the canonical encoding. *)
let funding_db =
  let module Rel = Clip_schema.Relational in
  let int = Clip_schema.Atomic_type.T_int and string = Clip_schema.Atomic_type.T_string in
  Rel.database "funding"
    ~foreign_keys:
      [ { Rel.fk_table = "grants"; fk_columns = [ "recipient" ];
          pk_table = "companies"; pk_columns = [ "cid" ] } ]
    [
      Rel.table ~primary_key:[ "cid" ] "companies"
        [ Rel.column "cid" int; Rel.column "cname" string; Rel.column "city" string ];
      Rel.table ~primary_key:[ "gid" ] "grants"
        [ Rel.column "gid" int; Rel.column "recipient" int; Rel.column "amount" int ];
    ]

let web_schema =
  Clip_schema.Dsl.parse
    {|schema web {
  organization [0..*] {
    @name: string
    funding [0..*] {
      @fid: int
      @amount: int
    }
  }
}|}

(* The nested correlated join: one organization per company, one
   funding per grant whose recipient is that company. *)
let join_mapping =
  lazy
    (let p s = Result.get_ok (Clip_schema.Path.of_string s) in
     let g_recipient =
       {
         Mapping.p_left = Mapping.O_path ("c", [ Clip_schema.Path.Attr "cid" ]);
         p_op = Clip_tgd.Tgd.Eq;
         p_right = Mapping.O_path ("g", [ Clip_schema.Path.Attr "recipient" ]);
       }
     in
     Mapping.make
       ~source:(Clip_schema.Relational.to_schema funding_db)
       ~target:web_schema
       ~roots:
         [
           Mapping.node ~id:"org" ~output:(p "web.organization")
             ~children:
               [
                 Mapping.node ~id:"fund" ~output:(p "web.organization.funding")
                   ~cond:[ g_recipient ]
                   [ Mapping.input ~var:"g" (p "funding.grants") ];
               ]
             [ Mapping.input ~var:"c" (p "funding.companies") ];
         ]
       [
         Mapping.value [ p "funding.companies.@cname" ] (p "web.organization.@name");
         Mapping.value [ p "funding.grants.@gid" ] (p "web.organization.funding.@fid");
         Mapping.value [ p "funding.grants.@amount" ] (p "web.organization.funding.@amount");
       ])

let dbs_per_run = 3

let join ~seed ~scale =
  let m = Lazy.force join_mapping in
  let text = Clip_core.Dsl.to_string m in
  let companies = max 2 (int_of_float (Float.round (scale *. 150.))) in
  List.init dbs_per_run (fun index ->
      let g = Gen.grant_db ~companies ~seed ~index () in
      let last = ref None in
      {
        kind = "join";
        source_bytes = String.length g.g_bytes;
        bytes_in = String.length g.g_bytes + String.length text;
        run =
          (fun ctx ->
            let m = parse_mapping ctx text in
            let doc = parse_source ctx g.g_bytes in
            keep ctx last doc;
            let out =
              span ctx "engine.run" (fun () ->
                  ok "run" (Engine.run_result ~ctx ~limits ~backend:`Rel m doc))
            in
            print ctx out);
        check = (fun out -> Check.counts_match out (Gen.grant_output_counts g));
        deferred = no_deferred;
        probe =
          (fun tr ->
            Option.iter
              (fun doc ->
                probe_doc tr doc;
                let shape = Result.get_ok (Clip_rel.Shape.of_schema m.source) in
                ignore
                  (Clip_obs.Trace.span tr "rel.store" (fun () ->
                       Clip_rel.Store.build shape (Clip_xml.Doc.of_node doc)));
                ignore
                  (Clip_obs.Trace.span tr "join.tgd_eval" (fun () ->
                       ok "tgd" (Engine.run_result ~ctx:(Clip_run.create ()) ~limits m doc))))
              (take last);
            None);
      })

type workload = {
  name : string;
  why : string;
  make : seed:int -> scale:float -> request list;
}

let all =
  [
    { name = "bulk";
      why = "about 1 MB deptdb documents through five figures on default options: the clip run a user pays on a real file";
      make = bulk };
    { name = "stream";
      why = "the same bytes and mappings streamed and sharded: the only workload reaching the cutter, merger and pull lexer";
      make = stream };
    { name = "author";
      why = "small cold requests over every paper figure and Table I mapping: compile-side layers dominate, execution is small";
      make = author };
    { name = "join";
      why = "relational company/grant join on the rel backend: plan-driven join execution dominates, parse and compile are small";
      make = join };
  ]
