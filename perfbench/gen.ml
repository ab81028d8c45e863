(* Seeded input generators. Every document is written straight to bytes
   (no tree is built), and each generator also returns the closed-form
   element counts the output checks compare against. The same
   [(seed, index)] always gives the same bytes. *)

(* The held-out seed: never used while tuning the benchmark, kept for
   re-checking a later claim on inputs it was not written against. *)
let held_out_seed = 90_210

let rng ~seed ~index = Random.State.make [| seed; index; 0x5eed |]

(* Split [total] items over [bins] bins, each bin first getting [floor],
   the rest landing in uniformly drawn bins: the totals are exact, the
   per-bin shape varies with the seed. *)
let partition st ~bins ~floor ~total =
  let a = Array.make bins floor in
  for _ = 1 to total - (bins * floor) do
    let i = Random.State.int st bins in
    a.(i) <- a.(i) + 1
  done;
  a

(* --- deptdb-shaped documents (Sec. I-A source schema) ------------------ *)

type dept_doc = {
  d_bytes : string;
  d_projs : int array;  (** projects per department, document order *)
  d_emps : int array;  (** employees per department, document order *)
  d_pnames : int;  (** distinct project names *)
}

type dept_size = { depts : int; projects : int; employees : int }

(* About 1 MB and 80k nodes: 300 departments, 1,500 projects and
   12,000 employees. *)
let dept_default = { depts = 300; projects = 1_500; employees = 12_000 }

let pname_vocabulary = 64

let dept_doc ?(size = dept_default) ~seed ~index () =
  let st = rng ~seed ~index in
  let projs = partition st ~bins:size.depts ~floor:1 ~total:size.projects in
  let emps = partition st ~bins:size.depts ~floor:0 ~total:size.employees in
  let seen = Array.make pname_vocabulary false in
  let b = Buffer.create (90 * size.employees) in
  Buffer.add_string b "<source>";
  (* pids are unique across the whole document: department [i] owns
     the range starting after every earlier department's projects, so
     each employee's pid resolves to exactly one project. *)
  let base = ref 0 in
  let emp_no = ref 0 in
  Array.iteri
    (fun i np ->
      Printf.bprintf b "<dept><dname>dept-%d-%d</dname>" index i;
      for j = 1 to np do
        let name = Random.State.int st pname_vocabulary in
        seen.(name) <- true;
        Printf.bprintf b "<Proj pid=\"%d\"><pname>project-%d</pname></Proj>"
          (!base + j) name
      done;
      for _ = 1 to emps.(i) do
        incr emp_no;
        Printf.bprintf b
          "<regEmp pid=\"%d\"><ename>emp-%d</ename><sal>%d</sal></regEmp>"
          (!base + 1 + Random.State.int st np)
          !emp_no
          (8000 + Random.State.int st 8000)
      done;
      Buffer.add_string b "</dept>";
      base := !base + np)
    projs;
  Buffer.add_string b "</source>";
  {
    d_bytes = Buffer.contents b;
    d_projs = projs;
    d_emps = emps;
    d_pnames = Array.fold_left (fun n s -> if s then n + 1 else n) 0 seen;
  }

let sum = Array.fold_left ( + ) 0

(* Element counts of the generated source document itself. *)
let dept_source_counts d =
  let n = Array.length d.d_projs in
  let p = sum d.d_projs and e = sum d.d_emps in
  [
    ("source", 1);
    ("dept", n);
    ("dname", n);
    ("Proj", p);
    ("pname", p);
    ("regEmp", e);
    ("ename", e);
    ("sal", e);
  ]

(* Element counts of each mapping's target, in closed form. *)
let dept_output_counts d = function
  | "fig5" ->
    [
      ("department", Array.length d.d_projs);
      ("project", sum d.d_projs);
      ("employee", sum d.d_emps);
    ]
  | "fig6" | "fig6-join-global" -> [ ("project-emp", sum d.d_emps) ]
  | "fig7" -> [ ("project", d.d_pnames); ("employee", sum d.d_emps) ]
  | "fig9" -> [ ("department", Array.length d.d_projs) ]
  | m -> invalid_arg ("Gen.dept_output_counts: " ^ m)

(* --- relational company/grant databases -------------------------------- *)

type grant_db = {
  g_bytes : string;
  g_companies : int;
  g_grants : int;
  g_resolving : int;  (** grants whose recipient is a company *)
}

(* The canonical encoding of {!Workloads.funding_db}: one element per
   row under the database root, one attribute per column. *)
let grant_db ?(companies = 150) ~seed ~index () =
  let st = rng ~seed ~index in
  let grants = 10 * companies in
  (* Exactly a fifth of the grants resolve; which ones is drawn. *)
  let resolving = grants / 5 in
  let resolves = Array.init grants (fun g -> g < resolving) in
  for i = grants - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = resolves.(i) in
    resolves.(i) <- resolves.(j);
    resolves.(j) <- t
  done;
  let b = Buffer.create (64 * grants) in
  Buffer.add_string b "<funding>";
  for c = 1 to companies do
    Printf.bprintf b "<companies cid=\"%d\" cname=\"company-%d-%d\" city=\"city-%d\"/>"
      c index c (Random.State.int st 20)
  done;
  Array.iteri
    (fun g r ->
      let recipient =
        if r then 1 + Random.State.int st companies
        else companies + 1 + Random.State.int st (4 * companies)
      in
      Printf.bprintf b "<grants gid=\"%d\" recipient=\"%d\" amount=\"%d\"/>"
        (g + 1) recipient
        (1_000 * (1 + Random.State.int st 500)))
    resolves;
  Buffer.add_string b "</funding>";
  {
    g_bytes = Buffer.contents b;
    g_companies = companies;
    g_grants = grants;
    g_resolving = resolving;
  }

let grant_source_counts g =
  [ ("funding", 1); ("companies", g.g_companies); ("grants", g.g_grants) ]

let grant_output_counts g =
  [ ("web", 1); ("organization", g.g_companies); ("funding", g.g_resolving) ]
