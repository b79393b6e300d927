(* The decisions san_map's subcommands share, each made in one place:
   topology specs, host lookup, exploration depth, the N - F check,
   observability and ledger switches, file output and count flags.

   Bad input raises [Failure] (or [Invalid_argument] from a library
   spec parser); the top level turns either into one line on stderr
   and exit 2. *)

open Cmdliner
open San_topology

(* Exit status of a run whose checked properties all held, or not. *)
let status ok = if ok then 0 else 1

(* A count flag: an integer no smaller than [min], so a negative (or
   zero) count is a usage error naming the flag, not a crash or a
   silent no-op. *)
let count ~min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ ->
      Error (Printf.sprintf "invalid value '%s', expected an integer >= %d" s min)
  in
  Arg.conv' (parse, Format.pp_print_int)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

(* Every file the CLI writes is opened here: a path that cannot be
   opened is bad input, reported as "<path>: <reason>". *)
let open_file path = try open_out path with Sys_error e -> failwith e

let write path text =
  let oc = open_file path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* [write] plus the "wrote" line; [what] names the kind of output. *)
let save ?(what = "") path text =
  write path text;
  Format.printf "wrote %s%s@." what path

let json_text j = San_util.Json.to_string j ^ "\n"
let map_text map = json_text (Serial.to_json map)

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error e -> failwith e
  end

(* The path of artifact [name] under --out-dir, creating the directory
   and any missing parents. *)
let artifact out_dir name =
  ensure_dir out_dir;
  Filename.concat out_dir name

let spec_stem spec = String.map (fun c -> if c = ':' then '-' else c) spec

(* A file named on the command line that does not parse is bad input.
   Loader errors that already start with the path are not prefixed
   twice. *)
let loaded path = function
  | Ok v -> v
  | Error e ->
    let p = path ^ ": " in
    failwith (if String.starts_with ~prefix:p e then e else p ^ e)

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)

let build_classic spec rng =
  (* Every numeric field goes through this, so `mesh:3:four` dies with
     a usage line naming the spec, not an uncaught int_of_string. *)
  let dim s =
    match int_of_string_opt s with
    | Some n -> n
    | None ->
      invalid_arg (Printf.sprintf "topology %S: %S is not an integer" spec s)
  in
  match String.split_on_char ':' spec with
  | [ "c" ] -> fst (Generators.now_c ())
  | [ "ca" ] -> fst (Generators.now_ca ())
  | [ "cab" ] | [ "now" ] -> fst (Generators.now_cab ())
  | [ "hypercube"; d ] -> Generators.hypercube ~dim:(dim d) ()
  | [ "mesh"; r; c ] -> Generators.mesh ~rows:(dim r) ~cols:(dim c) ()
  | [ "torus"; r; c ] -> Generators.torus ~rows:(dim r) ~cols:(dim c) ()
  | [ "ring"; n ] -> Generators.ring ~switches:(dim n) ~hosts_per_switch:1 ()
  | [ "star"; n ] -> Generators.star ~leaves:(dim n) ()
  | [ "chain"; n ] -> Generators.chain ~switches:(dim n) ()
  | [ "fat-tree"; l; h; s ] ->
    Generators.fat_tree ~leaves:(dim l) ~hosts_per_leaf:(dim h) ~spines:(dim s)
      ()
  | [ "random"; sw; h ] ->
    Generators.random_connected ~rng ~switches:(dim sw) ~hosts:(dim h)
      ~extra_links:(dim sw / 2) ()
  | [ "ccc"; d ] -> Generators.cube_connected_cycles ~dim:(dim d) ()
  | [ "shuffle"; d ] -> Generators.shuffle_exchange ~dim:(dim d) ()
  | [ "pendant" ] -> Generators.pendant_branch ()
  | [ "lone" ] -> Generators.lone_host ()
  | [ "stub" ] -> Generators.stub_switch ()
  | _ ->
    invalid_arg
      (spec
      ^ ": unknown topology (try c, ca, cab, fabric:PRESET, \
         fabric:key=value,..., hypercube:D, mesh:R:C, torus:R:C, ring:N, \
         star:N, chain:N, fat-tree:L:H:S, ccc:D, shuffle:D, \
         random:SW:HOSTS, pendant, lone, stub)")

(* The parsed generated fabric when [spec] is `fabric:...`. *)
let fabric_spec spec =
  match String.split_on_char ':' spec with
  | "fabric" :: rest when rest <> [] ->
    Some (San_fabric.Fabric.parse (String.concat ":" rest))
  | _ -> None

(* The graph plus a suggested fixed exploration depth when the spec is
   a generated fabric: the generator knows a safe depth analytically,
   and above [oracle_feasible]'s size it replaces the oracle bound. *)
let build spec seed =
  let fabric p = (p.San_fabric.Fabric.p_build ~seed, p.San_fabric.Fabric.p_depth) in
  match fabric_spec spec with
  | Some (Ok p) -> fabric p
  | Some (Error e) -> invalid_arg e
  | None -> (
    (* A bare fabric preset name (`ft-100`) works without the
       `fabric:` prefix; preset names never collide with the classic
       generator specs. *)
    match San_fabric.Fabric.find_preset spec with
    | Some p -> fabric p
    | None -> (build_classic spec (San_util.Prng.create seed), None))

let spec =
  let doc =
    "Topology to operate on: c | ca | cab | fabric:PRESET (or a bare preset \
     name like ft-100) | fabric:key=value,... | hypercube:D | mesh:R:C | \
     torus:R:C | ring:N | star:N | chain:N | fat-tree:L:H:S | ccc:D | \
     shuffle:D | random:SW:H | pendant | lone | stub. See `san_map gen` for \
     fabric presets."
  in
  Arg.(value & opt string "c" & info [ "t"; "topology" ] ~docv:"SPEC" ~doc)

let seed =
  let doc = "Random seed (topology generation, load balancing)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

type topology = {
  spec : string;
  seed : int;
  g : Graph.t;
  hint : int option;  (** the fabric generator's suggested depth *)
}

(* -t and --seed, built into the graph. *)
let topology =
  let make spec seed =
    let g, hint = build spec seed in
    { spec; seed; g; hint }
  in
  Term.(const make $ spec $ seed)

let mapper =
  let doc = "Host that runs the mapper (default: first host)." in
  Arg.(value & opt (some string) None & info [ "mapper" ] ~docv:"HOST" ~doc)

(* The named host, or the first one. *)
let host g = function
  | Some name -> (
    match Graph.host_by_name g name with
    | Some h -> h
    | None -> failwith ("no such host: " ^ name))
  | None -> (
    match Graph.hosts g with
    | h :: _ -> h
    | [] -> failwith "topology has no hosts")

(* Above this size the generator's suggested depth replaces the oracle.
   The oracle is cheap at this scale (ft-1k's Q+D+1 takes about 0.25 s);
   the threshold stays because moving it would change which depth, and
   so which probe counts, every large CLI map has. *)
let oracle_feasible g = Graph.num_nodes g <= 2000

(* An explicit depth wins; else the exact oracle bound whenever
   [oracle_feasible] (surplus depth multiplies replicates on multipath
   fabrics, it is never free); else the generator's hint. *)
let depth t explicit =
  match (explicit, t.hint) with
  | Some d, _ -> San_mapper.Berkeley.Fixed d
  | None, _ when oracle_feasible t.g -> San_mapper.Berkeley.Oracle
  | None, Some d ->
    Format.printf "using the fabric generator's suggested depth %d@." d;
    San_mapper.Berkeley.Fixed d
  | None, None -> San_mapper.Berkeley.Oracle

(* Theorem 1: a correct map is isomorphic to N - F. Prints
   "[ok] isomorphic to N - F" or "[failed]: why". *)
let verify_n_minus_f t map ~ok ~failed =
  match Iso.check ~map ~actual:t.g ~exclude:(Core_set.separated_set t.g) () with
  | Ok () ->
    Format.printf "%s isomorphic to N - F@." ok;
    true
  | Error e ->
    Format.printf "%s: %s@." failed e;
    false

(* ------------------------------------------------------------------ *)
(* Shared flags                                                        *)

let file_opt name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let dot = file_opt "dot" "Write the result as a Graphviz file."

let json =
  file_opt "json"
    "Save the resulting map as JSON (loadable by `diff' and `verify')."

let out_dir =
  let doc =
    "Directory for run artifacts (map JSON/DOT, daemon flight recordings). \
     An empty string disables artifact writing."
  in
  Arg.(value & opt string "_artifacts" & info [ "out-dir" ] ~docv:"DIR" ~doc)

(* The map as [prefix]<spec>.json and .dot under --out-dir. *)
let map_artifacts ~out_dir ~prefix t map =
  if out_dir <> "" then begin
    let stem = artifact out_dir (prefix ^ spec_stem t.spec) in
    write (stem ^ ".json") (map_text map);
    write (stem ^ ".dot") (Dot.to_string map);
    Format.printf "wrote %s.json and %s.dot@." stem stem
  end

let depth_arg =
  let doc = "Exploration depth (default: the oracle bound Q+D+1)." in
  Arg.(value & opt (some (count ~min:1)) None & info [ "depth" ] ~docv:"N" ~doc)

let load =
  let doc =
    "Drive background worm load while the daemon runs: $(docv) worms per \
     host per simulated millisecond ride the installed routes every \
     steady-state epoch, and the measured contention feeds that epoch's \
     probes. 0 disables."
  in
  (* parsed by [resolve_load], not a float conv, so a malformed value
     gets the same one-line error as the other spec grammars *)
  Arg.(value & opt string "0" & info [ "load" ] ~docv:"OFFERED" ~doc)

let load_pattern =
  let doc =
    "Background load shape: $(b,uniform), $(b,hotspot) or $(b,incast)."
  in
  Arg.(
    value & opt string "uniform" & info [ "load-pattern" ] ~docv:"PATTERN" ~doc)

let resolve_load load pattern =
  match float_of_string_opt (String.trim load) with
  | None ->
    Error
      (Printf.sprintf "bad load %S: expected worms/host/ms as a number" load)
  | Some f when f <= 0.0 -> Ok None
  | Some f -> (
    match San_slo.Load.pattern_of_string pattern with
    | None -> Error (Printf.sprintf "unknown load pattern %S" pattern)
    | Some p -> Ok (Some (San_slo.Load.spec ~pattern:p f)))

(* ------------------------------------------------------------------ *)
(* Observability and the provenance ledger                             *)

type obs = {
  trace : string option;
  metrics : string option;
  chrome : string option;
  prom : string option;
}

let trace_arg =
  file_opt "trace"
    "Write a JSON-lines trace (probe, worm, merge and span events) to $(docv)."

let metrics_arg =
  file_opt "metrics"
    "Write a metrics snapshot (counters, gauges, histogram quantiles) as JSON \
     to $(docv)."

(* --trace and --metrics. *)
let obs =
  Term.(
    const (fun trace metrics -> { trace; metrics; chrome = None; prom = None })
    $ trace_arg $ metrics_arg)

(* --trace, --metrics, --chrome-trace and --prom. *)
let obs_all =
  let chrome =
    file_opt "chrome-trace"
      "Write a Chrome trace-event file (loadable in chrome://tracing and \
       Perfetto) to $(docv)."
  in
  let prom =
    file_opt "prom" "Write the metrics in Prometheus text exposition to $(docv)."
  in
  Term.(
    const (fun trace metrics chrome prom -> { trace; metrics; chrome; prom })
    $ trace_arg $ metrics_arg $ chrome $ prom)

(* Run [f] under the observability subsystem when any output was
   requested (or [force]d, for runs that read the in-memory ring and
   registry directly); otherwise leave it disabled (zero-cost
   instrumentation). *)
let with_obs ?(force = false) o f =
  let module Obs = San_obs.Obs in
  if (not force) && o = { trace = None; metrics = None; chrome = None; prom = None }
  then f ()
  else begin
    let trace_oc = Option.map open_file o.trace in
    Obs.set_enabled true;
    Obs.reset ();
    Option.iter
      (fun oc -> San_obs.Trace.add_sink Obs.tracer (San_obs.Trace.jsonl_sink oc))
      trace_oc;
    let finish () =
      San_obs.Trace.clear_sinks Obs.tracer;
      Option.iter close_out trace_oc;
      Option.iter (fun f -> Format.printf "wrote trace %s@." f) o.trace;
      let snap () = San_obs.Metrics.snapshot Obs.registry in
      Option.iter
        (fun f ->
          save ~what:"chrome trace " f
            (San_telemetry.Chrome_trace.of_records
               (San_obs.Trace.records Obs.tracer)
            ^ "\n"))
        o.chrome;
      Option.iter
        (fun f ->
          save ~what:"metrics " f
            (json_text (San_obs.Metrics.to_json (snap ()))))
        o.metrics;
      Option.iter
        (fun f ->
          save ~what:"prometheus metrics " f
            (San_telemetry.Prom.of_snapshot (snap ())))
        o.prom;
      Obs.set_enabled false
    in
    match Fun.protect ~finally:finish f with
    | status -> status
    | exception Fun.Finally_raised e -> raise e
  end

(* Run [f] with the provenance ledger enabled (explain/blame, or any
   run that feeds a flight recorder). *)
let with_why on f =
  if not on then f ()
  else begin
    San_why.Why.set_enabled true;
    Fun.protect ~finally:(fun () -> San_why.Why.set_enabled false) f
  end
