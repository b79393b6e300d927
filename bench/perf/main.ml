(* Entry point of the benchmark.

     main.exe --workload W --seed N [--seconds S] [--trace 0|1]
         one run of one workload in this process
     main.exe [--seed N | --seeds A-B] [--seconds S] [--out FILE]
         every workload, traced and not, each run in its own process
     main.exe --smoke [--bench BENCHMARK.json]
         every workload at smoke size, checked against BENCHMARK.json
     main.exe compare A.json [B.json] [--bench BENCHMARK.json]
         two sets of runs against the bounds (one file: its two sets)
     main.exe trajectory SET.json COMMIT
         one trajectory.jsonl line for a set of runs

   A single run prints every metric with its unit, then as its last
   stdout line one JSON object: correct, attempted, failed, metrics. *)

module J = San_util.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> ( match J.of_string s with Ok j -> j | Error e -> die "%s: %s" path e)
  | exception Sys_error e -> die "%s" e

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let write_file path s =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let metric name =
  match Metric.find name with
  | Some d -> d
  | None -> invalid_arg ("unregistered metric " ^ name)

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

let run_one ~workload ~size ~seed ~seconds ~trace =
  let w =
    match Workload.find workload with
    | Some w -> w
    | None ->
      die "unknown workload %S (workloads: %s)" workload
        (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.workloads))
  in
  let r = Workload.run w size ~seed ~seconds ~trace in
  let failures =
    r.Workload.failures
    @ List.filter_map
        (fun (n, v) -> if Float.is_finite v then None else Some (n ^ " is not finite"))
        r.Workload.metrics
  in
  List.iter (fun f -> prerr_endline ("check failed: " ^ f)) failures;
  Printf.printf "%s seed %d: %s\n" workload seed
    (if trace then "traced run, per-layer metrics" else "end-to-end metrics");
  List.iter
    (fun (n, v) ->
      let d = metric n in
      if d.Metric.moves = "" then Printf.printf "  %-32s %14.6g %s\n" n v d.Metric.unit_
      else Printf.printf "  %-32s %14.6g %-9s moves %s\n" n v d.Metric.unit_ d.Metric.moves)
    r.Workload.metrics;
  (match r.Workload.chrome with
  | Some j when size = Workload.Full ->
    let path = Printf.sprintf "_artifacts/perf/%s-seed%d.trace.json" workload seed in
    write_file path (J.to_string ~pretty:false j);
    Printf.printf "  trace written to %s\n" path
  | _ -> ());
  let correct = failures = [] in
  print_endline
    (J.to_string ~pretty:false
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.int r.Workload.attempted);
            ("failed", J.int (List.length failures));
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, v) ->
                     ( n,
                       J.Obj
                         [
                           ("value", J.Num (if Float.is_finite v then v else 0.0));
                           ("unit", J.Str (metric n).Metric.unit_);
                         ] ))
                   r.Workload.metrics) );
          ]));
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Every workload, one child process per run                           *)

(* Run one workload in a child process; its result line as printed
   (kept for the smoke's round-trip check) and as a run record. *)
let spawn ~workload ~smoke ~seed ~seconds ~trace =
  let args =
    [ Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
    @ if smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let out = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out) in
  let n = List.length lines in
  if not smoke then List.iteri (fun i l -> if i < n - 1 then print_endline l) lines;
  let last = if n = 0 then "" else List.nth lines (n - 1) in
  let line =
    match J.of_string last with
    | Ok j -> j
    | Error e -> die "%s seed %d: no result line (%s)" workload seed e
  in
  let values =
    match J.member "metrics" line with
    | Some (J.Obj l) ->
      List.filter_map
        (fun (k, m) ->
          match J.member "value" m with Some (J.Num v) -> Some (k, v) | _ -> None)
        l
    | _ -> []
  in
  let field k f =
    match Option.bind (J.member k line) f with
    | Some x -> x
    | None -> die "%s seed %d: result line lacks %s" workload seed k
  in
  ( line,
    {
      Compare.workload;
      seed;
      trace;
      correct = field "correct" (function J.Bool b -> Some b | _ -> None);
      attempted = field "attempted" J.to_int;
      failed = field "failed" J.to_int;
      values;
    } )

let run_all ~seeds ~seconds ~smoke =
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun w ->
          List.map
            (fun trace -> spawn ~workload:w.Workload.name ~smoke ~seed ~seconds ~trace)
            [ false; true ])
        Workload.workloads)
    seeds

(* A set file, or a baseline file holding several sets. *)
let runs_of_set j =
  match Option.bind (J.member "runs" j) J.to_arr with
  | Some l ->
    List.map
      (fun r ->
        match Compare.run_of_json r with
        | Some r -> r
        | None -> die "malformed run record: %s" (J.to_string ~pretty:false r))
      l
  | None -> die "a set needs a \"runs\" array"

let runs_of_file j =
  match Option.bind (J.member "sets" j) J.to_arr with
  | Some sets -> List.concat_map runs_of_set sets
  | None -> runs_of_set j

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)

type listed = { l_name : string; l_unit : string; l_higher : bool; l_bound : float }

let listed bench key =
  match Option.bind (J.member key bench) J.to_arr with
  | None -> die "BENCHMARK.json has no %s list" key
  | Some l ->
    List.map
      (fun m ->
        let str k = Option.bind (J.member k m) J.to_str in
        match (str "name", str "unit") with
        | Some l_name, Some l_unit ->
          {
            l_name;
            l_unit;
            l_higher = str "better" = Some "higher";
            l_bound = (match J.member "bound" m with Some (J.Num b) -> b | _ -> 0.0);
          }
        | _ -> die "BENCHMARK.json: a %s entry lacks a name or a unit" key)
      l

(* Smoke: BENCHMARK.json and the registry list the same metrics, each
   run emits every one with its unit, every run is correct (which
   includes the 5% layer-sum gate), and every result round-trips
   through San_util.Json. *)
let smoke ~bench_path =
  let bench = read_json bench_path in
  let t0 = Unix.gettimeofday () in
  let runs = run_all ~seeds:[ 1 ] ~seconds:0.05 ~smoke:true in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let expect key registry ~trace =
    let listed = listed bench key in
    if List.length listed <> List.length registry then
      fail "BENCHMARK.json lists %d %s metrics, the benchmark has %d" (List.length listed)
        key (List.length registry);
    List.iter
      (fun (d : Metric.t) ->
        match List.find_opt (fun l -> l.l_name = d.Metric.name) listed with
        | None -> fail "%s is not listed under %s" d.Metric.name key
        | Some l ->
          if l.l_unit <> d.Metric.unit_ || l.l_higher <> d.Metric.higher_better then
            fail "%s: unit or direction differs from BENCHMARK.json" l.l_name)
      registry;
    List.iter
      (fun (line, (r : Compare.run)) ->
        if r.Compare.trace = trace then
          List.iter
            (fun l ->
              let u =
                Option.bind (J.member "metrics" line) (fun m ->
                    Option.bind (J.member l.l_name m) (J.member "unit"))
              in
              if u <> Some (J.Str l.l_unit) then
                fail "%s: %s missing or in the wrong unit" r.Compare.workload l.l_name)
            listed)
      runs
  in
  expect "end_to_end" Metric.end_to_end ~trace:false;
  expect "per_layer" Metric.per_layer ~trace:true;
  List.iter
    (fun (line, (r : Compare.run)) ->
      if not r.Compare.correct then
        fail "%s (trace %b) reported incorrect" r.Compare.workload r.Compare.trace;
      let round_trip j = J.of_string (J.to_string j) = Ok j in
      if not (round_trip line && round_trip (Compare.run_to_json r)) then
        fail "%s: output does not round-trip through San_util.Json" r.Compare.workload)
    runs;
  Printf.printf "smoke: %d runs in %.1f s\n" (List.length runs) (Unix.gettimeofday () -. t0);
  match !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
    exit 1

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)

let () =
  let workload = ref None and seeds = ref [ 1 ] and seconds = ref 15.0 in
  let trace = ref false and smoke_size = ref false and out = ref None in
  let bench = ref "BENCHMARK.json" and anon = ref [] in
  let seed_range s =
    match List.map int_of_string_opt (String.split_on_char '-' s) with
    | [ Some a; Some b ] when a <= b -> seeds := List.init (b - a + 1) (fun i -> a + i)
    | _ -> die "bad --seeds %S (want A-B)" s
  in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W run one workload in this process");
      ("--seed", Arg.Int (fun n -> seeds := [ n ]), "N input seed (default 1)");
      ("--seeds", Arg.String seed_range, "A-B every seed from A to B");
      ( "--seconds",
        Arg.Float (fun s -> seconds := s),
        "S measured seconds per run (default 15, BENCHMARK.json's run_seconds)" );
      ( "--trace",
        Arg.Int (function 0 -> trace := false | 1 -> trace := true | n -> die "bad --trace %d" n),
        "0|1 end-to-end metrics (0) or the traced run's per-layer metrics (1)" );
      ("--smoke", Arg.Set smoke_size, " smoke-size inputs");
      ("--out", Arg.String (fun s -> out := Some s), "FILE where to write the runs");
      ("--bench", Arg.String (fun s -> bench := s), "FILE the BENCHMARK.json to check against");
    ]
  in
  let usage = "main.exe [compare A.json [B.json] | trajectory SET.json COMMIT] [options]" in
  (try Arg.parse_argv Sys.argv spec (fun a -> anon := a :: !anon) usage with
  | Arg.Bad m -> die "%s" m
  | Arg.Help m ->
    print_string m;
    exit 0);
  match (List.rev !anon, !workload) with
  | [], Some w ->
    let seed = match !seeds with [ s ] -> s | _ -> die "--workload takes one --seed" in
    run_one ~workload:w
      ~size:(if !smoke_size then Workload.Smoke else Workload.Full)
      ~seed ~seconds:!seconds ~trace:!trace
  | [], None when !smoke_size -> smoke ~bench_path:!bench
  | [], None ->
    let runs = List.map snd (run_all ~seeds:!seeds ~seconds:!seconds ~smoke:false) in
    let path =
      match !out with
      | Some p -> p
      | None -> Printf.sprintf "_artifacts/perf/seeds-%d.json" (List.hd !seeds)
    in
    write_file path (J.to_string (J.Obj [ ("runs", J.Arr (List.map Compare.run_to_json runs)) ]));
    Compare.summary runs;
    Printf.printf "runs written to %s\n" path;
    if List.exists (fun r -> not r.Compare.correct) runs then exit 1
  | "compare" :: files, None ->
    let a, b =
      match files with
      | [ a; b ] -> (runs_of_file (read_json a), runs_of_file (read_json b))
      | [ f ] -> (
        match Option.bind (J.member "sets" (read_json f)) J.to_arr with
        | Some [ a; b ] -> (runs_of_set a, runs_of_set b)
        | _ -> die "%s: a single file must hold exactly two \"sets\"" f)
      | _ -> die "%s" usage
    in
    let e2e =
      List.map (fun l -> (l.l_name, l.l_higher, l.l_bound)) (listed (read_json !bench) "end_to_end")
    in
    if not (Compare.compare_sets ~e2e a b) then exit 1
  | [ "trajectory"; file; commit ], None ->
    print_endline
      (J.to_string ~pretty:false (Compare.trajectory ~commit (runs_of_file (read_json file))))
  | _ -> die "%s" usage
