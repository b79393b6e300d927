(* san_map: command-line front end for the SAN mapping system.

   Subcommands:
     topo    — generate a topology, print statistics, optionally DOT
     map     — discover a topology with the Berkeley (or Myricom)
               mapper, verify the result, optionally save JSON/DOT;
               --budget stops at a probe budget and emits a
               confidence-annotated partial map instead
     coverage — budgeted map plus the coverage observatory dashboard
               (frontier sparkline, confidence deciles, explain hooks)
     routes  — map, then compute and check UP*/DOWN* routes
     diff    — compare two saved maps, anchored at host names
     verify  — incrementally check a saved map against the live
               fabric (one probe per known port), remapping on change
     fuzz    — randomized property fuzzing with counterexample
               shrinking (seeded, replayable)
     daemon  — epoch-driven control-plane loop over a fault schedule
     health  — daemon run with fabric telemetry: sparkline dashboard,
               alerts, hottest links
     explain — map with the provenance ledger on, then print the
               minimal justification tree of a switch, link or route
     blame   — map two fabrics, diff the maps, attribute each change
               to the first probe whose answer (or loss) explains it
     postmortem — replay a daemon flight recording (timeline, open
               alerts, last deductions) from the file alone
     version — print the package version

   map, routes, verify and fuzz exit non-zero when any property they
   check fails, so CI cannot green-wash a broken map. *)

open Cmdliner
open San_topology

(* ------------------------------------------------------------------ *)
(* Topology selection                                                  *)

let build_topology_classic spec rng =
  (* Every numeric field goes through this, so `mesh:3xfour` dies with
     a usage line naming the spec, not an uncaught int_of_string. *)
  let dim s =
    match int_of_string_opt s with
    | Some n -> n
    | None ->
      raise
        (Invalid_argument
           (Printf.sprintf "topology %S: %S is not an integer" spec s))
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
    raise
      (Invalid_argument
         (spec
        ^ ": unknown topology (try c, ca, cab, fabric:PRESET, \
           fabric:key=value,..., hypercube:D, mesh:R:C, torus:R:C, ring:N, \
           star:N, chain:N, fat-tree:L:H:S, ccc:D, shuffle:D, \
           random:SW:HOSTS, pendant, lone, stub)"))

(* Returns the graph plus a suggested fixed exploration depth when the
   spec is a generated fabric: at data-center scale the oracle bound's
   per-node min-cost flow is infeasible, and the generator knows a safe
   depth analytically. *)
let build_topology_ex spec seed =
  match String.split_on_char ':' spec with
  | "fabric" :: rest when rest <> [] -> (
    let arg = String.concat ":" rest in
    match San_fabric.Fabric.parse arg with
    | Ok p -> (p.San_fabric.Fabric.p_build ~seed, p.San_fabric.Fabric.p_depth)
    | Error e -> raise (Invalid_argument e))
  | _ -> (
    (* A bare fabric preset name (`ft-100`) works without the
       `fabric:` prefix; preset names never collide with the classic
       generator specs. *)
    match San_fabric.Fabric.find_preset spec with
    | Some p -> (p.San_fabric.Fabric.p_build ~seed, p.San_fabric.Fabric.p_depth)
    | None -> (build_topology_classic spec (San_util.Prng.create seed), None))

let build_topology spec seed = fst (build_topology_ex spec seed)

let topo_arg =
  let doc =
    "Topology to operate on: c | ca | cab | fabric:PRESET (or a bare preset \
     name like ft-100) | fabric:key=value,... | hypercube:D | mesh:R:C | \
     torus:R:C | ring:N | star:N | chain:N | fat-tree:L:H:S | ccc:D | \
     shuffle:D | random:SW:H | pendant | lone | stub. See `san_map gen` for \
     fabric presets."
  in
  Arg.(value & opt string "c" & info [ "t"; "topology" ] ~docv:"SPEC" ~doc)

let seed_arg =
  let doc = "Random seed (topology generation, load balancing)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let dot_arg =
  let doc = "Write the result as a Graphviz file." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let mapper_arg =
  let doc = "Host that runs the mapper (default: first host)." in
  Arg.(value & opt (some string) None & info [ "mapper" ] ~docv:"HOST" ~doc)

(* ------------------------------------------------------------------ *)
(* Observability: --trace / --metrics                                  *)

let trace_arg =
  let doc =
    "Write a JSON-lines trace (probe, worm, merge and span events) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write a metrics snapshot (counters, gauges, histogram quantiles) as JSON \
     to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let chrome_arg =
  let doc =
    "Write a Chrome trace-event file (loadable in chrome://tracing and \
     Perfetto) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "chrome-trace" ] ~docv:"FILE" ~doc)

let prom_arg =
  let doc = "Write the metrics in Prometheus text exposition to $(docv)." in
  Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE" ~doc)

(* Run [f] under the observability subsystem when any output was
   requested (or [force]d, for the health dashboard which reads the
   in-memory ring and registry directly); otherwise leave it disabled
   (zero-cost instrumentation). *)
let with_obs ?(force = false) ?(chrome = None) ?(prom = None) ~trace ~metrics f
    =
  if (not force) && trace = None && metrics = None && chrome = None
     && prom = None
  then f ()
  else
    match
      San_obs.Obs.set_enabled true;
      San_obs.Obs.reset ();
      let trace_oc = Option.map open_out trace in
      Option.iter
        (fun oc ->
          San_obs.Trace.add_sink San_obs.Obs.tracer
            (San_obs.Trace.jsonl_sink oc))
        trace_oc;
      let finish () =
        San_obs.Trace.clear_sinks San_obs.Obs.tracer;
        Option.iter close_out trace_oc;
        Option.iter (fun f -> Format.printf "wrote trace %s@." f) trace;
        Option.iter
          (fun file ->
            San_telemetry.Chrome_trace.to_file
              (San_obs.Trace.records San_obs.Obs.tracer)
              file;
            Format.printf "wrote chrome trace %s@." file)
          chrome;
        let snap () = San_obs.Metrics.snapshot San_obs.Obs.registry in
        Option.iter
          (fun file ->
            let oc = open_out file in
            output_string oc
              (San_util.Json.to_string (San_obs.Metrics.to_json (snap ())));
            output_char oc '\n';
            close_out oc;
            Format.printf "wrote metrics %s@." file)
          metrics;
        Option.iter
          (fun file ->
            San_telemetry.Prom.to_file (snap ()) file;
            Format.printf "wrote prometheus metrics %s@." file)
          prom;
        San_obs.Obs.set_enabled false
      in
      Fun.protect ~finally:finish f
    with
    | status -> status
    | exception Fun.Finally_raised (Sys_error e) | (exception Sys_error e) ->
      San_obs.Obs.set_enabled false;
      Format.eprintf "cannot write observability output: %s@." e;
      1

(* Run [f] with the provenance ledger enabled (explain/blame, or any
   run that feeds a flight recorder). *)
let with_why on f =
  if not on then f ()
  else begin
    San_why.Why.set_enabled true;
    Fun.protect
      ~finally:(fun () -> San_why.Why.set_enabled false)
      f
  end

let out_dir_arg =
  let doc =
    "Directory for run artifacts (map JSON/DOT, daemon flight recordings). \
     An empty string disables artifact writing."
  in
  Arg.(value & opt string "_artifacts" & info [ "out-dir" ] ~docv:"DIR" ~doc)

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let spec_stem spec =
  String.map (fun c -> if c = ':' then '-' else c) spec

let pick_mapper g = function
  | Some name -> (
    match Graph.host_by_name g name with
    | Some h -> h
    | None -> failwith ("no such host: " ^ name))
  | None -> (
    match Graph.hosts g with
    | h :: _ -> h
    | [] -> failwith "topology has no hosts")

(* ------------------------------------------------------------------ *)
(* topo                                                                *)

(* Above this size the all-pairs diameter and the oracle's per-node
   flow computation stop being interactive; the fabric generator's
   suggested depth replaces them. *)
let oracle_feasible g = Graph.num_nodes g <= 2000

let run_topo spec seed dot =
  let g, depth_hint = build_topology_ex spec seed in
  Format.printf "%s: %a@." spec Graph.pp_stats g;
  Format.printf "connected %b, switch bridges %d, |F| %d@."
    (Analysis.is_connected g)
    (List.length (Core_set.switch_bridges g))
    (Array.fold_left
       (fun a b -> if b then a + 1 else a)
       0
       (Core_set.separated_set g));
  if oracle_feasible g then begin
    Format.printf "diameter %d@." (Analysis.diameter g);
    match Graph.hosts g with
    | root :: _ ->
      Format.printf "Q = %d, oracle search depth Q+D+1 = %d@."
        (Core_set.q_bound g ~root)
        (Core_set.search_depth g ~root)
    | [] -> ()
  end
  else
    Format.printf
      "large fabric: diameter/oracle bounds skipped%s@."
      (match depth_hint with
      | Some d -> Printf.sprintf " (suggested exploration depth %d)" d
      | None -> "");
  Option.iter
    (fun f ->
      Dot.to_file ~graph_name:spec g f;
      Format.printf "wrote %s@." f)
    dot;
  0

(* ------------------------------------------------------------------ *)
(* map                                                                 *)

let algo_arg =
  let doc = "Mapping algorithm: berkeley (the paper's) or myricom (baseline)." in
  Arg.(value & opt (enum [ ("berkeley", `Berkeley); ("myricom", `Myricom) ]) `Berkeley
       & info [ "algo" ] ~doc)

let model_arg =
  let doc = "Worm collision model: circuit or cut-through." in
  Arg.(
    value
    & opt
        (enum
           [ ("circuit", San_simnet.Collision.Circuit);
             ("cut-through", San_simnet.Collision.Cut_through) ])
        San_simnet.Collision.Circuit
    & info [ "model" ] ~doc)

let depth_arg =
  let doc = "Exploration depth (default: the oracle bound Q+D+1)." in
  Arg.(value & opt (some int) None & info [ "depth" ] ~docv:"N" ~doc)

let policy_arg =
  let doc = "Probe policy: faithful (default) or exhaustive." in
  Arg.(
    value
    & opt (enum [ ("faithful", San_mapper.Berkeley.faithful);
                  ("exhaustive", San_mapper.Berkeley.exhaustive) ])
        San_mapper.Berkeley.faithful
    & info [ "policy" ] ~doc)

let json_arg =
  let doc = "Save the resulting map as JSON (loadable by `diff' and `verify')." in
  Cmdliner.Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let budget_arg =
  let doc =
    "Stop mapping at a probe budget — a fraction of the full run's probe \
     count (e.g. 0.3) or an absolute count (probes:N) — and emit a \
     confidence-annotated partial map (JSON artifact under --out-dir) \
     instead of a full map. Berkeley mapper only."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "budget" ] ~docv:"FRAC|probes:N" ~doc)

let parse_budget_exn s =
  match San_cover.Cover.parse_budget s with
  | Ok b -> b
  | Error e -> raise (Invalid_argument e)

(* The budgeted mapping mode: full reference run, budget-stopped rerun
   with the why ledger on, confidence-annotated partial-map artifact.
   Exits non-zero if the partial map fails to embed in N - F. *)
let run_map_budgeted ~spec ~seed ~policy ~depth ~out_dir net ~mapper b =
  match San_cover.Cover.run ~policy ~depth ~budget:b net ~mapper with
  | Error e ->
    Format.printf "coverage run failed: %s@." e;
    false
  | Ok rep ->
    Format.printf "%a@." San_cover.Cover.pp_summary rep;
    let ok =
      match rep.San_cover.Cover.r_subgraph with
      | Ok () ->
        Format.printf
          "verified: partial map embeds in the full map (N - F)@.";
        true
      | Error e ->
        Format.printf "subgraph check FAILED: %s@." e;
        false
    in
    if out_dir <> "" then begin
      ensure_dir out_dir;
      let file =
        Filename.concat out_dir
          (Printf.sprintf "partial-map-%s-b%s.json" (spec_stem spec)
             (spec_stem (San_cover.Cover.budget_to_string b)))
      in
      let oc = open_out file in
      output_string oc
        (San_util.Json.to_string
           (San_cover.Cover.report_to_json ~spec ~seed rep));
      output_char oc '\n';
      close_out oc;
      Format.printf "wrote %s@." file
    end;
    ok

let run_map spec seed mapper_name algo model depth policy budget dot json
    out_dir trace metrics chrome prom =
  with_obs ~chrome ~prom ~trace ~metrics @@ fun () ->
  let g, depth_hint = build_topology_ex spec seed in
  let mapper = pick_mapper g mapper_name in
  let failed = ref false in
  let verify map =
    match
      Iso.check ~map ~actual:g ~exclude:(Core_set.separated_set g) ()
    with
    | Ok () -> Format.printf "verified: map isomorphic to N - F@."
    | Error e ->
      failed := true;
      Format.printf "verification FAILED: %s@." e
  in
  let artifacts map =
    if out_dir <> "" then begin
      ensure_dir out_dir;
      let stem = Filename.concat out_dir ("map-" ^ spec_stem spec) in
      Serial.save map (stem ^ ".json");
      Dot.to_file map (stem ^ ".dot");
      Format.printf "wrote %s.json and %s.dot@." stem stem
    end
  in
  (match algo with
  | `Berkeley -> (
    let net = San_simnet.Network.create ~model g in
    let depth =
      (* The exact oracle bound beats the generator's hint whenever the
         flow computation is affordable: surplus depth multiplies
         replicates on multipath fabrics, it is never free. *)
      match (depth, depth_hint) with
      | Some d, _ -> San_mapper.Berkeley.Fixed d
      | None, _ when oracle_feasible g -> San_mapper.Berkeley.Oracle
      | None, Some d ->
        Format.printf "using the fabric generator's suggested depth %d@." d;
        San_mapper.Berkeley.Fixed d
      | None, None -> San_mapper.Berkeley.Oracle
    in
    match Option.map parse_budget_exn budget with
    | Some b ->
      if
        not (run_map_budgeted ~spec ~seed ~policy ~depth ~out_dir net ~mapper b)
      then failed := true
    | None ->
    let r = San_mapper.Berkeley.run ~policy ~depth net ~mapper in
    Format.printf
      "berkeley: %d explorations, %d probes (host %d/%d, switch %d/%d), %.1f \
       ms simulated, depth %d@."
      r.San_mapper.Berkeley.explorations
      (San_mapper.Berkeley.total_probes r)
      r.San_mapper.Berkeley.host_hits r.San_mapper.Berkeley.host_probes
      r.San_mapper.Berkeley.switch_hits r.San_mapper.Berkeley.switch_probes
      (r.San_mapper.Berkeley.elapsed_ns /. 1e6)
      r.San_mapper.Berkeley.depth_used;
    match r.San_mapper.Berkeley.map with
    | Ok map ->
      Format.printf "map: %a@." Graph.pp_stats map;
      verify map;
      artifacts map;
      Option.iter (fun f -> Dot.to_file map f; Format.printf "wrote %s@." f) dot;
      Option.iter (fun f -> Serial.save map f; Format.printf "wrote %s@." f) json
    | Error e ->
      failed := true;
      Format.printf "export failed: %s@." e)
  | `Myricom -> (
    if budget <> None then
      raise
        (Invalid_argument
           "--budget requires the berkeley mapper (the myricom baseline has \
            no budget hook)");
    let r = San_myricom.Myricom.run ~model g ~mapper in
    let c = r.San_myricom.Myricom.counts in
    Format.printf
      "myricom: %d probes (loop %d, host %d, switch %d, compare %d), %.1f ms \
       simulated, %d switches@."
      (San_myricom.Myricom.total c)
      c.San_myricom.Myricom.loop_probes c.San_myricom.Myricom.host_probes
      c.San_myricom.Myricom.switch_probes c.San_myricom.Myricom.compare_probes
      (r.San_myricom.Myricom.elapsed_ns /. 1e6)
      r.San_myricom.Myricom.switches_found;
    match r.San_myricom.Myricom.map with
    | Ok map ->
      Format.printf "map: %a@." Graph.pp_stats map;
      verify map;
      artifacts map;
      Option.iter (fun f -> Dot.to_file map f; Format.printf "wrote %s@." f) dot;
      Option.iter (fun f -> Serial.save map f; Format.printf "wrote %s@." f) json
    | Error e ->
      failed := true;
      Format.printf "export failed: %s@." e));
  if !failed then 1 else 0

(* ------------------------------------------------------------------ *)
(* coverage: the budgeted-mapping observatory dashboard                *)

let coverage_budget_arg =
  let doc =
    "Probe budget for the dashboard run: a fraction of the full run's \
     probes (e.g. 0.3) or probes:N."
  in
  Arg.(value & opt string "0.3" & info [ "budget" ] ~docv:"FRAC|probes:N" ~doc)

let directed_arg =
  let doc =
    "Orient every switch-switch link in a seeded random direction before \
     mapping (the Goldstein directed-fabric variant) and report how probe \
     complexity degrades."
  in
  Arg.(value & flag & info [ "directed" ] ~doc)

(* Resolve a budgeted element back to the full map so the dashboard can
   print a working `explain` query: its discovery probe walks to the
   same place on the exported map (worm turns are frame-shift
   invariant). *)
let explain_hook full_map ~src (e : San_cover.Cover.element) =
  let open San_simnet in
  match e.San_cover.Cover.el_kind with
  | `Host ->
    let self = Graph.name full_map src in
    if e.San_cover.Cover.el_label = self then "-"
    else Printf.sprintf "route:%s->%s" self e.San_cover.Cover.el_label
  | `Switch -> (
    if e.San_cover.Cover.el_path = [] then
      (* the root switch: the mapper's cable neighbour on the map *)
      match Graph.wired_ports full_map src with
      | (_, (s, _)) :: _ -> "switch:" ^ Graph.name full_map s
      | [] -> "-"
    else
      let t = Worm.eval full_map ~src ~turns:e.San_cover.Cover.el_path in
      match t.Worm.outcome with
      | Worm.Stranded n -> "switch:" ^ Graph.name full_map n
      | _ -> "-")
  | `Link -> (
    if e.San_cover.Cover.el_path = [] then "-"
    else
      let t = Worm.eval full_map ~src ~turns:e.San_cover.Cover.el_path in
      match (t.Worm.outcome, List.rev t.Worm.hops) with
      | (Worm.Stranded _ | Worm.Arrived _), h :: _ ->
        let ((na, pa), (nb, pb)) = (h.Worm.exit_end, h.Worm.entry_end) in
        if Graph.is_host full_map na || Graph.is_host full_map nb then "-"
        else
          Printf.sprintf "link:%s.%d-%s.%d" (Graph.name full_map na) pa
            (Graph.name full_map nb) pb
      | _ -> "-")

let print_coverage_dashboard spec budget ~mapper_name
    (rep : San_cover.Cover.report) =
  let open San_cover.Cover in
  Format.printf "== coverage: %s @@ budget %s ==@." spec
    (budget_to_string budget);
  Format.printf "%a@.@." pp_summary rep;
  (* The frontier over the run: how much known-unexplored edge the
     exploration was still holding when the budget ran out. *)
  let series f = List.map f rep.r_trace in
  Format.printf "frontier   %s  (now %d)@."
    (San_util.Tablefmt.sparkline ~width:60
       (series (fun (t : San_mapper.Berkeley.trace_point) ->
            float_of_int t.San_mapper.Berkeley.frontier_length)))
    rep.r_frontier;
  Format.printf "hosts      %s  (%d/%d)@."
    (San_util.Tablefmt.sparkline ~width:60
       (series (fun (t : San_mapper.Berkeley.trace_point) ->
            float_of_int t.San_mapper.Berkeley.hosts_found)))
    rep.r_recovered_hosts rep.r_full_hosts;
  Format.printf "live nodes %s  (%d switch classes)@.@."
    (San_util.Tablefmt.sparkline ~width:60
       (series (fun (t : San_mapper.Berkeley.trace_point) ->
            float_of_int t.San_mapper.Berkeley.live_nodes)))
    (List.length rep.r_switches);
  let all = elements rep in
  let tbl = San_util.Tablefmt.create ~header:[ "confidence"; "elements"; "" ] in
  let n = List.length all in
  for d = 9 downto 0 do
    let lo = float_of_int d /. 10.0 in
    let hi = lo +. 0.1 in
    let count =
      List.length
        (List.filter
           (fun e ->
             e.el_conf >= lo && (e.el_conf < hi || (d = 9 && e.el_conf <= 1.0)))
           all)
    in
    let bar =
      String.make
        (if n = 0 then 0 else count * 40 / max 1 n)
        '#'
    in
    San_util.Tablefmt.add_row tbl
      [ Printf.sprintf "[%.1f,%.1f)" lo hi; string_of_int count; bar ]
  done;
  San_util.Tablefmt.print ~title:"confidence deciles" tbl;
  Format.printf "@.";
  let src =
    Option.value
      ~default:(-1)
      (Graph.host_by_name rep.r_full_map mapper_name)
  in
  let worst =
    List.filteri (fun i _ -> i < 10)
      (List.sort (fun a b -> compare a.el_conf b.el_conf) all)
  in
  let tbl =
    San_util.Tablefmt.create
      ~header:[ "element"; "conf"; "probes"; "merges"; "d1/d2"; "explain" ]
  in
  List.iter
    (fun e ->
      San_util.Tablefmt.add_row tbl
        [
          e.el_label;
          Printf.sprintf "%.3f" e.el_conf;
          string_of_int e.el_probes;
          string_of_int e.el_merges;
          string_of_int e.el_corrob;
          (if src < 0 then "-"
           else
             let q = explain_hook rep.r_full_map ~src e in
             if q = "-" then "-"
             else Printf.sprintf "san_map explain -t %s --why '%s'" spec q);
        ])
    worst;
  San_util.Tablefmt.print ~title:"top 10 least-confident elements" tbl

let run_coverage spec seed mapper_name budget_str directed depth out_dir trace
    metrics chrome prom =
  with_obs ~chrome ~prom ~trace ~metrics @@ fun () ->
  let b = parse_budget_exn budget_str in
  let g, depth_hint = build_topology_ex spec seed in
  let mapper = pick_mapper g mapper_name in
  let net = San_simnet.Network.create g in
  let depth =
    match (depth, depth_hint) with
    | Some d, _ -> San_mapper.Berkeley.Fixed d
    | None, _ when oracle_feasible g -> San_mapper.Berkeley.Oracle
    | None, Some d -> San_mapper.Berkeley.Fixed d
    | None, None -> San_mapper.Berkeley.Oracle
  in
  let dir =
    if directed then Some (San_cover.Directed.create ~seed g) else None
  in
  match San_cover.Cover.run ?directed:dir ~depth ~budget:b net ~mapper with
  | Error e ->
    Format.printf "coverage run failed: %s@." e;
    1
  | Ok rep ->
    print_coverage_dashboard spec b ~mapper_name:(Graph.name g mapper) rep;
    Option.iter
      (fun d ->
        Format.printf
          "@.directed fabric: %d oriented links, %d probes silenced by \
           orientation@."
          (San_cover.Directed.oriented_wires d)
          (San_cover.Directed.blocked d))
      dir;
    if out_dir <> "" then begin
      ensure_dir out_dir;
      let file =
        Filename.concat out_dir
          (Printf.sprintf "partial-map-%s-b%s.json" (spec_stem spec)
             (spec_stem (San_cover.Cover.budget_to_string b)))
      in
      let oc = open_out file in
      output_string oc
        (San_util.Json.to_string
           (San_cover.Cover.report_to_json ~spec ~seed rep));
      output_char oc '\n';
      close_out oc;
      Format.printf "@.wrote %s@." file
    end;
    (match rep.San_cover.Cover.r_subgraph with Ok () -> 0 | Error _ -> 1)

(* ------------------------------------------------------------------ *)
(* shard: N concurrent mappers, conflict-resolved merge               *)

let shards_arg =
  let doc = "Number of concurrent mapper shards." in
  Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc)

let stale_arg =
  let doc =
    "Give shard $(docv) a stale-epoch view (a seeded recabling of two \
     overlap wires), forcing real merge conflicts. Enables the why \
     ledger so every resolution is justified by probe evidence."
  in
  Arg.(value & opt (some int) None & info [ "stale" ] ~docv:"IDX" ~doc)

let compare_solo_arg =
  let doc =
    "Also run the single-mapper baseline and check the merged map is \
     isomorphic to it (and report the probe and wall-clock ratios)."
  in
  Arg.(value & flag & info [ "compare-solo" ] ~doc)

let pp_resolution fmt (r : San_shard.Merge.resolution) =
  Format.fprintf fmt "resolved [%s] shard %d over shard %d: %s (%s)%s"
    r.San_shard.Merge.r_class r.San_shard.Merge.r_winner
    r.San_shard.Merge.r_loser r.San_shard.Merge.r_action
    r.San_shard.Merge.r_detail
    (if r.San_shard.Merge.r_did >= 0 then
       Printf.sprintf " [why #%d]" r.San_shard.Merge.r_did
     else "")

let run_shard spec seed mapper_name shards stale compare_solo json out_dir
    trace metrics chrome prom =
  with_obs ~chrome ~prom ~trace ~metrics @@ fun () ->
  with_why (stale <> None) @@ fun () ->
  let g, depth_hint = build_topology_ex spec seed in
  let root =
    Option.map
      (fun name ->
        match Graph.host_by_name g name with
        | Some h -> h
        | None -> failwith ("no such host: " ^ name))
      mapper_name
  in
  match San_shard.Runner.run ~seed ?root ?stale g ~shards with
  | Error e ->
    Format.printf "shard planning failed: %s@." e;
    1
  | Ok r -> (
    let open San_shard in
    Format.printf "plan: %a@." Region.pp r.Runner.plan;
    List.iter
      (fun s ->
        Format.printf
          "shard %d: mapper %-8s radius %d depth %2d probes %7d/%d%s %8.1f \
           ms simulated, %d map nodes%s@."
          s.Runner.s_idx s.Runner.s_mapper s.Runner.s_radius s.Runner.s_depth
          s.Runner.s_probes s.Runner.s_budget
          (if s.Runner.s_over_budget then " (OVER BUDGET)" else "")
          (s.Runner.s_elapsed_ns /. 1e6)
          s.Runner.s_map_nodes
          (if s.Runner.s_stale then " [stale view]" else ""))
      r.Runner.reports;
    List.iter
      (fun res -> Format.printf "%a@." pp_resolution res)
      r.Runner.resolutions;
    if r.Runner.dropped_views <> [] then
      Format.printf "dropped views: %s@."
        (String.concat ", "
           (List.map string_of_int r.Runner.dropped_views));
    Format.printf
      "sharded: %d probes total, %.1f ms simulated wall (slowest shard + \
       %.2f ms merge), %.2fx parallel speedup, coordinator %s@."
      r.Runner.total_probes
      (r.Runner.wall_ns /. 1e6)
      (r.Runner.merge_ns /. 1e6)
      (if r.Runner.wall_ns > 0.0 then r.Runner.sum_ns /. r.Runner.wall_ns
       else 1.0)
      r.Runner.coordinator;
    match r.Runner.map with
    | Error e ->
      Format.printf "merge FAILED: %s@." e;
      1
    | Ok merged ->
      Format.printf "merged map: %a@." Graph.pp_stats merged;
      let failed = ref false in
      (match
         Iso.check ~map:merged ~actual:g
           ~exclude:(Core_set.separated_set g) ()
       with
      | Ok () -> Format.printf "verified: merged map isomorphic to N - F@."
      | Error e ->
        failed := true;
        Format.printf "verification FAILED: %s@." e);
      if compare_solo then begin
        let net = San_simnet.Network.create g in
        let mapper =
          match root with
          | Some h -> h
          | None -> List.hd (Graph.hosts g)
        in
        let depth =
          if oracle_feasible g then San_mapper.Berkeley.Oracle
          else
            match depth_hint with
            | Some d -> San_mapper.Berkeley.Fixed d
            | None -> San_mapper.Berkeley.Oracle
        in
        let s = San_mapper.Berkeley.run ~depth net ~mapper in
        let solo_probes = San_mapper.Berkeley.total_probes s in
        Format.printf
          "solo baseline: %d probes, %.1f ms simulated, depth %d@."
          solo_probes
          (s.San_mapper.Berkeley.elapsed_ns /. 1e6)
          s.San_mapper.Berkeley.depth_used;
        (match s.San_mapper.Berkeley.map with
        | Error e ->
          failed := true;
          Format.printf "solo baseline export failed: %s@." e
        | Ok solo -> (
          match Iso.check ~map:merged ~actual:solo () with
          | Ok () ->
            Format.printf "verified: merged map isomorphic to solo map@."
          | Error e ->
            failed := true;
            Format.printf "solo comparison FAILED: %s@." e));
        if s.San_mapper.Berkeley.elapsed_ns > 0.0 then
          Format.printf
            "ratios vs solo: %.2fx probes, %.2fx simulated wall@."
            (float_of_int r.Runner.total_probes /. float_of_int solo_probes)
            (r.Runner.wall_ns /. s.San_mapper.Berkeley.elapsed_ns)
      end;
      if out_dir <> "" then begin
        ensure_dir out_dir;
        let stem =
          Filename.concat out_dir ("shard-map-" ^ spec_stem spec)
        in
        Serial.save merged (stem ^ ".json");
        Dot.to_file merged (stem ^ ".dot");
        Format.printf "wrote %s.json and %s.dot@." stem stem
      end;
      Option.iter
        (fun f ->
          Serial.save merged f;
          Format.printf "wrote %s@." f)
        json;
      if !failed then 1 else 0)

(* ------------------------------------------------------------------ *)
(* gen: emit a generated fabric as a replayable artifact              *)

let run_gen spec seed out_dir dot json =
  match String.split_on_char ':' spec with
  | "fabric" :: rest when rest <> [] -> (
    let arg = String.concat ":" rest in
    match San_fabric.Fabric.parse arg with
    | Error e ->
      Format.eprintf "%s@." e;
      2
    | Ok p ->
      let g = p.San_fabric.Fabric.p_build ~seed in
      let header = San_fabric.Fabric.header_lines p ~seed g in
      List.iter (fun l -> Format.printf "# %s@." l) header;
      let dot_text =
        String.concat "" (List.map (fun l -> "// " ^ l ^ "\n") header)
        ^ Dot.to_string ~graph_name:p.San_fabric.Fabric.p_name g
      in
      let write_text file text =
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        Format.printf "wrote %s@." file
      in
      if out_dir <> "" then begin
        ensure_dir out_dir;
        let stem =
          Filename.concat out_dir
            (Printf.sprintf "fabric-%s-seed%d"
               (spec_stem p.San_fabric.Fabric.p_name)
               seed)
        in
        write_text (stem ^ ".spec")
          (String.concat "" (List.map (fun l -> "# " ^ l ^ "\n") header));
        write_text (stem ^ ".dot") dot_text
      end;
      Option.iter (fun f -> write_text f dot_text) dot;
      Option.iter
        (fun f ->
          Serial.save g f;
          Format.printf "wrote %s@." f)
        json;
      0)
  | _ ->
    Format.eprintf
      "gen needs a generated-fabric spec: -t fabric:PRESET or -t \
       fabric:key=value,... (presets: %s)@."
      (String.concat ", "
         (List.map
            (fun p -> p.San_fabric.Fabric.p_name)
            San_fabric.Fabric.presets));
    2

(* ------------------------------------------------------------------ *)
(* routes                                                              *)

let loads_arg =
  let doc = "Print the N hottest channels." in
  Arg.(value & opt int 0 & info [ "loads" ] ~docv:"N" ~doc)

let spread_arg =
  let doc =
    "Spread equal-cost routes randomly over parallel wires and \
     equal-length paths (seeded load balancing). Without it the table \
     is deterministic: the same fabric always yields byte-identical \
     routes."
  in
  Arg.(value & flag & info [ "spread" ] ~doc)

let run_routes spec seed mapper_name algo loads spread trace metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let g = build_topology spec seed in
  let mapper = pick_mapper g mapper_name in
  let failed = ref false in
  let map_result =
    match algo with
    | `Berkeley ->
      let net = San_simnet.Network.create g in
      (San_mapper.Berkeley.run net ~mapper).San_mapper.Berkeley.map
    | `Myricom -> (San_myricom.Myricom.run g ~mapper).San_myricom.Myricom.map
  in
  (match map_result with
  | Error e ->
    failed := true;
    Format.printf "mapping failed: %s@." e
  | Ok map ->
    let rng = if spread then Some (San_util.Prng.create seed) else None in
    let table = San_routing.Routes.compute ?rng map in
    let st = San_routing.Routes.length_stats table in
    Format.printf "routes: %d pairs, turns %d / %.2f / %d (min/avg/max)@."
      st.San_routing.Routes.pairs st.San_routing.Routes.min_len
      st.San_routing.Routes.avg_len st.San_routing.Routes.max_len;
    Format.printf "delivery on actual network: %s@."
      (match San_routing.Routes.verify_delivery ~against:g table with
      | Ok () -> "ok"
      | Error e ->
        failed := true;
        e);
    Format.printf "deadlock freedom: %s@."
      (match San_routing.Deadlock.check_routes table with
      | Ok () -> "channel dependency graph acyclic"
      | Error e ->
        failed := true;
        e);
    if loads > 0 then
      San_routing.Routes.channel_loads table
      |> List.filteri (fun i _ -> i < loads)
      |> List.iter (fun ((n, p), l) ->
             Format.printf "  channel (%s, port %d): %d routes@."
               (let nm = Graph.name map n in
                if nm = "" then string_of_int n else nm)
               p l));
  if !failed then 1 else 0

(* ------------------------------------------------------------------ *)
(* diff                                                                *)

let map_file pos_name =
  Arg.(required & pos pos_name (some string) None & info [] ~docv:"MAP.json")

let run_diff old_file new_file =
  match (Serial.load old_file, Serial.load new_file) with
  | Error e, _ -> Format.printf "%s: %s@." old_file e; 1
  | _, Error e -> Format.printf "%s: %s@." new_file e; 1
  | Ok old_map, Ok new_map -> (
    match Diff.diff ~old_map ~new_map with
    | [] ->
      Format.printf "maps are identical (up to port offsets)@.";
      0
    | changes ->
      List.iter (fun c -> Format.printf "%a@." Diff.pp_change c) changes;
      0)

(* ------------------------------------------------------------------ *)
(* verify: incremental check of a saved map against a live topology    *)

let prev_arg =
  let doc = "Previously saved map (JSON) to verify against the live fabric." in
  Arg.(required & opt (some string) None & info [ "previous" ] ~docv:"FILE" ~doc)

let run_verify spec seed mapper_name prev_file json trace metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let g = build_topology spec seed in
  let mapper = pick_mapper g mapper_name in
  match Serial.load prev_file with
  | Error e -> Format.printf "%s: %s@." prev_file e; 1
  | Ok previous ->
    let net = San_simnet.Network.create g in
    let r = San_mapper.Incremental.run net ~mapper ~previous in
    (match r.San_mapper.Incremental.verdict with
    | San_mapper.Incremental.Unchanged ->
      Format.printf "map verified unchanged: %d probes, %.1f ms simulated@."
        r.San_mapper.Incremental.verify_probes
        (r.San_mapper.Incremental.total_elapsed_ns /. 1e6)
    | San_mapper.Incremental.Changed n ->
      Format.printf
        "%d discrepancies; remapped in full (total %.1f ms simulated)@." n
        (r.San_mapper.Incremental.total_elapsed_ns /. 1e6));
    let failed = ref false in
    (match r.San_mapper.Incremental.map with
    | Error e ->
      failed := true;
      Format.printf "map export failed: %s@." e
    | Ok m ->
      (match
         Iso.check ~map:m ~actual:g ~exclude:(Core_set.separated_set g) ()
       with
      | Ok () -> Format.printf "final map isomorphic to N - F@."
      | Error e ->
        failed := true;
        Format.printf "final map verification FAILED: %s@." e);
      Option.iter
        (fun f ->
          Serial.save m f;
          Format.printf "wrote %s@." f)
        json);
    if !failed then 1 else 0

(* ------------------------------------------------------------------ *)
(* fuzz: randomized property checking with shrinking                   *)

let cases_arg =
  let doc = "Number of random fabrics to generate and check." in
  Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N" ~doc)

let prop_arg =
  let doc =
    "Check only this property (repeatable). One of: "
    ^ String.concat ", " San_check.Props.names ^ "."
  in
  Arg.(value & opt_all string [] & info [ "prop" ] ~docv:"NAME" ~doc)

let replay_arg =
  let doc =
    "Replay a single case by its case seed (printed in a counterexample \
     report) instead of generating fresh cases."
  in
  Arg.(value & opt (some int) None & info [ "replay" ] ~docv:"CASE_SEED" ~doc)

let artifacts_arg =
  let doc =
    "Write each counterexample as DOT plus a replay command under $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "artifacts" ] ~docv:"DIR" ~doc)

let shrink_budget_arg =
  let doc = "Maximum shrink attempts per counterexample." in
  Arg.(
    value
    & opt int San_check.Runner.default_shrink_budget
    & info [ "shrink-budget" ] ~docv:"N" ~doc)

let progress_arg =
  let doc = "Print a progress line every N cases (0: silent)." in
  Arg.(value & opt int 100 & info [ "progress" ] ~docv:"N" ~doc)

let write_artifacts dir (failures : San_check.Runner.failure list) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iteri
    (fun i (f : San_check.Runner.failure) ->
      let stem =
        Filename.concat dir (Printf.sprintf "counterexample-%02d-%s" i f.San_check.Runner.f_prop)
      in
      let dot = stem ^ ".dot" in
      let oc = open_out dot in
      output_string oc (San_check.Runner.dot_of_failure f);
      close_out oc;
      let seed_file = stem ^ ".seed" in
      let oc = open_out seed_file in
      Printf.fprintf oc
        "prop: %s\ncase_seed: %d\nreplay: san_map fuzz --replay %d --prop %s\nerror: %s\n"
        f.San_check.Runner.f_prop f.San_check.Runner.f_case_seed
        f.San_check.Runner.f_case_seed f.San_check.Runner.f_prop
        f.San_check.Runner.f_shrunk_error;
      close_out oc;
      Format.printf "wrote %s and %s@." dot seed_file)
    failures

let run_fuzz cases seed props replay artifacts shrink_budget progress trace
    metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let props = if props = [] then None else Some props in
  let unknown =
    match props with
    | None -> []
    | Some ps -> List.filter (fun p -> not (List.mem p San_check.Props.names)) ps
  in
  if unknown <> [] then begin
    Format.eprintf "unknown propert%s %s (try: %s)@."
      (if List.length unknown = 1 then "y" else "ies")
      (String.concat ", " unknown)
      (String.concat ", " San_check.Props.names);
    2
  end
  else
  match replay with
  | Some case_seed ->
    let failures =
      San_check.Runner.run_case ?props ~shrink_budget ~case_seed ()
    in
    Format.printf "replay of case %d (%a):@." case_seed San_check.Fuzz_gen.pp
      (San_check.Fuzz_gen.gen ~seed:case_seed);
    if failures = [] then begin
      Format.printf "all properties hold@.";
      0
    end
    else begin
      List.iter
        (fun f -> Format.printf "%a@." San_check.Runner.pp_failure f)
        failures;
      Option.iter (fun dir -> write_artifacts dir failures) artifacts;
      1
    end
  | None ->
    let on_progress =
      if progress <= 0 then None
      else
        Some
          (fun i ->
            if i mod progress = 0 then
              Format.printf "... %d/%d cases@." i cases)
    in
    let report =
      San_check.Runner.run ?props ~shrink_budget ?on_progress ~cases ~seed ()
    in
    Format.printf "%a@." San_check.Runner.pp_report report;
    (match report.San_check.Runner.r_failures with
    | [] -> 0
    | failures ->
      Option.iter (fun dir -> write_artifacts dir failures) artifacts;
      1)

(* ------------------------------------------------------------------ *)
(* daemon: the epoch-driven control-plane loop                         *)

let epochs_arg =
  let doc = "Number of control-plane epochs to run." in
  Arg.(value & opt int 10 & info [ "epochs" ] ~docv:"N" ~doc)

let schedule_arg =
  let doc =
    "Scripted faults, comma-separated EPOCH:ACTION entries. Actions: cut | \
     cut=N | flap | flap=DOWN_EPOCHS | isolate | add | kill=HOST | \
     kill-leader | revive=HOST | storm=LINKSxHOSTS | upgrade=EPOCHS | \
     partition=EPOCHS | flapstorm=COUNTxEPOCHS. Example: \
     2:cut,5:flap=2,8:kill-leader."
  in
  Arg.(value & opt string "" & info [ "schedule" ] ~docv:"SCRIPT" ~doc)

let scenario_arg =
  let doc =
    Printf.sprintf
      "Named adversarial schedule preset scaled to the run length: %s. \
       Mutually exclusive with $(b,--schedule)."
      (String.concat ", "
         (List.map (Printf.sprintf "$(b,%s)")
            San_service.Schedule.scenario_names))
  in
  Arg.(value & opt string "" & info [ "scenario" ] ~docv:"NAME" ~doc)

let load_arg =
  let doc =
    "Drive background worm load while the daemon runs: $(docv) worms per \
     host per simulated millisecond ride the installed routes every \
     steady-state epoch, and the measured contention feeds that epoch's \
     probes. 0 disables."
  in
  (* parsed by [resolve_load], not a float conv, so a malformed value
     is a one-line usage error naming the spec (exit 2) like the other
     spec grammars, not a cmdliner parse failure *)
  Arg.(value & opt string "0" & info [ "load" ] ~docv:"OFFERED" ~doc)

let load_pattern_arg =
  let doc =
    "Background load shape: $(b,uniform), $(b,hotspot) or $(b,incast)."
  in
  Arg.(
    value & opt string "uniform" & info [ "load-pattern" ] ~docv:"PATTERN" ~doc)

let slo_arg =
  let doc =
    "Convergence SLOs to track, comma-separated \
     METRIC:pNN<LIMIT[@MAXLOAD] specs (metrics: converge, epoch, drop, \
     coverage; e.g. converge:p99<2e8\\@0.3). Default: the built-in \
     objectives when $(b,--load) is on, none otherwise."
  in
  Arg.(value & opt string "" & info [ "slo" ] ~docv:"SPECS" ~doc)

let resolve_schedule ~epochs schedule scenario =
  match (schedule, scenario) with
  | "", "" -> Ok San_service.Schedule.empty
  | _, "" -> San_service.Schedule.parse schedule
  | "", _ ->
    Result.map San_service.Schedule.of_list
      (San_service.Schedule.scenario ~epochs scenario)
  | _, _ -> Error "--schedule and --scenario are mutually exclusive"

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

let resolve_slos slo_str load =
  if slo_str = "" then Ok (if load > 0.0 then San_slo.Slo.defaults else [])
  else
    List.fold_left
      (fun acc s ->
        match (acc, San_slo.Slo.parse (String.trim s)) with
        | (Error _ as e), _ -> e
        | _, Error e -> Error e
        | Ok l, Ok o -> Ok (l @ [ o ]))
      (Ok [])
      (String.split_on_char ',' slo_str)

let retries_arg =
  let doc = "Distribution re-send passes for missed route slices." in
  Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)

let quiet_arg =
  let doc = "Print only the final summary, not per-epoch reports." in
  Arg.(value & flag & info [ "quiet" ] ~doc)

let daemon_shards_arg =
  let doc =
    "Run full remaps (cold start and stale-map fallback) as $(docv) \
     concurrent sharded mappers instead of one global mapper."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let pp_epoch_report (r : San_service.Daemon.epoch_report) =
  let open San_service in
  Format.printf "epoch %3d  %-8s %-13s [%s]  probes %5d  coverage %d/%d%s@."
    r.Daemon.epoch r.Daemon.leader
    (match r.Daemon.verdict with
    | Daemon.Cold_start -> "cold-start"
    | Daemon.Verified -> "verified"
    | Daemon.Changed d -> Printf.sprintf "changed(%d)" d
    | Daemon.Backing_off -> "backing-off"
    | Daemon.Halted -> "halted")
    (String.concat ">" (List.map Daemon.phase_to_string r.Daemon.phases))
    r.Daemon.probes r.Daemon.hosts_covered r.Daemon.hosts_total
    (match r.Daemon.dist with
    | None -> ""
    | Some d ->
      Printf.sprintf "  shipped %dB (full %dB, %d unchanged, %d missed)"
        d.Delta.sent_bytes d.Delta.full_sent_bytes
        d.Delta.plan.Delta.unchanged_hosts
        d.Delta.dist.San_routing.Distribute.hosts_missed);
  List.iter (fun ev -> Format.printf "           * %s@." ev) r.Daemon.events;
  (match r.Daemon.load with
  | None -> ()
  | Some l ->
    Format.printf
      "           ~ load %s %.2f/host/ms: %d worms, drop %.3f, loss \
       %.4f/crossing@."
      (San_slo.Load.pattern_to_string l.San_slo.Load.r_pattern)
      l.San_slo.Load.r_offered l.San_slo.Load.r_injected
      l.San_slo.Load.r_drop_rate l.San_slo.Load.r_loss_per_crossing);
  List.iter
    (fun a ->
      Format.printf "           ! alert raised: %s (epoch %d)@." a
        r.Daemon.epoch)
    r.Daemon.alerts_raised;
  List.iter
    (fun a ->
      Format.printf "           . alert cleared: %s (epoch %d)@." a
        r.Daemon.epoch)
    r.Daemon.alerts_cleared

let run_daemon spec seed epochs schedule scenario load lpat slo retries shards
    quiet out_dir trace metrics chrome prom =
  let flight = out_dir <> "" in
  with_obs ~force:flight ~chrome ~prom ~trace ~metrics @@ fun () ->
  with_why flight @@ fun () ->
  let open San_service in
  let g = build_topology spec seed in
  match
    let ( let* ) = Result.bind in
    let* schedule = resolve_schedule ~epochs schedule scenario in
    let* load = resolve_load load lpat in
    let* slos = resolve_slos slo (match load with Some _ -> 1.0 | None -> 0.0) in
    Ok (schedule, load, slos)
  with
  | Error e -> Format.eprintf "san_map: bad arguments: %s@." e; 2
  | Ok (schedule, load, slos) -> (
    let config =
      {
        Daemon.default_config with
        Daemon.dist_retries = retries;
        seed;
        shards;
        flight_dir = (if flight then Some out_dir else None);
        load;
        slos;
      }
    in
    let on_epoch = if quiet then fun _ -> () else pp_epoch_report in
    match Daemon.run ~config ~schedule ~on_epoch ~epochs g with
    | Error e -> Format.printf "daemon: %s@." e; 1
    | Ok o ->
      Format.printf
        "daemon: %d epochs, final %s; %d remaps, %d elections, %d probes@."
        (List.length o.Daemon.reports)
        (Daemon.phase_to_string o.Daemon.final_phase)
        o.Daemon.remaps o.Daemon.elections o.Daemon.total_probes;
      Format.printf
        "distribution: %d B shipped as deltas vs %d B full (%.1f%% saved)@."
        o.Daemon.delta_bytes o.Daemon.full_bytes
        (if o.Daemon.full_bytes = 0 then 0.0
         else
           100.0
           *. (1.0
              -. float_of_int o.Daemon.delta_bytes
                 /. float_of_int o.Daemon.full_bytes));
      List.iter
        (fun (i : Daemon.incident) ->
          Format.printf
            "incident: detected epoch %d, resolved epoch %d, converged in \
             %.2f ms simulated@."
            i.Daemon.detected_epoch i.Daemon.resolved_epoch
            (i.Daemon.converge_ns /. 1e6))
        o.Daemon.incidents;
      List.iter
        (fun st -> Format.printf "slo: %a@." San_slo.Slo.pp_status st)
        o.Daemon.slo;
      if flight then
        Format.printf "flight recordings under %s/ (read with `san_map \
                       postmortem')@." out_dir;
      0)

(* ------------------------------------------------------------------ *)
(* health: the daemon run as a fabric-health dashboard                 *)

let link_name g ((a, pa), (b, pb)) =
  let name n =
    let s = Graph.name g n in
    if s = "" then Printf.sprintf "sw%d" n else s
  in
  Printf.sprintf "%s:%d -- %s:%d" (name a) pa (name b) pb

let print_dashboard spec schedule (o : San_service.Daemon.outcome) fabric =
  let open San_service in
  let module Slo = San_slo.Slo in
  let sampled =
    List.filter_map
      (fun (r : Daemon.epoch_report) ->
        Option.map (fun s -> (r, s)) r.Daemon.sample)
      o.Daemon.reports
  in
  let spark name f unit_ =
    match List.map f sampled with
    | [] -> ()
    | series ->
      let last = List.nth series (List.length series - 1) in
      Format.printf "  %-12s %s  last %.2f%s@." name
        (San_util.Tablefmt.sparkline ~width:60 series)
        last unit_
  in
  Format.printf "fabric health: %s over %d epochs%s@." spec
    (List.length o.Daemon.reports)
    (if schedule = "" then "" else Printf.sprintf " (schedule %s)" schedule);
  spark "coverage" (fun (_, s) -> s.Slo.s_coverage) "";
  spark "drop rate" (fun (_, s) -> s.Slo.s_probe_drop_rate) "";
  spark "delta bytes"
    (fun (r, _) ->
      match r.Daemon.dist with
      | Some d -> float_of_int d.Delta.sent_bytes
      | None -> 0.0)
    " B";
  spark "epoch sim ms" (fun (_, s) -> s.Slo.s_epoch_ns /. 1e6) " ms";
  (* One row per alert an objective raised, or one row for an
     objective that never alerted. *)
  let t =
    San_util.Tablefmt.create
      ~header:
        [ "alert"; "objective"; "burn"; "bad/eligible"; "raised"; "cleared";
          "worst" ]
  in
  List.iter
    (fun (st : Slo.status) ->
      let row ledger =
        San_util.Tablefmt.add_row t
          ([
             st.Slo.st_objective.Slo.name;
             Slo.to_string st.Slo.st_objective;
             Printf.sprintf "%.2f" st.Slo.st_burn_rate;
             Printf.sprintf "%d/%d" st.Slo.st_bad st.Slo.st_eligible;
           ]
          @ ledger)
      in
      match st.Slo.st_alerts with
      | [] -> row [ "-"; "-"; "-" ]
      | alerts ->
        List.iter
          (fun (a : Slo.alert) ->
            row
              [
                string_of_int a.Slo.raised_epoch;
                (match a.Slo.cleared_epoch with
                | Some e -> string_of_int e
                | None -> "ACTIVE");
                Printf.sprintf "%.3f" a.Slo.worst;
              ])
          alerts)
    o.Daemon.slo;
  San_util.Tablefmt.print ~title:"alerts" t;
  match o.Daemon.map with
  | None -> ()
  | Some g ->
    let links = San_telemetry.Fabric_stats.links fabric g in
    let t =
      San_util.Tablefmt.create
        ~header:
          [ "link"; "transits"; "occupied ms"; "blocked ms"; "coll"; "drops";
            "util" ]
    in
    List.iteri
      (fun i (l : San_telemetry.Fabric_stats.link) ->
        if i < 10 then
          San_util.Tablefmt.add_row t
            [
              link_name g l.San_telemetry.Fabric_stats.ends;
              string_of_int l.San_telemetry.Fabric_stats.l_transits;
              Printf.sprintf "%.3f"
                (l.San_telemetry.Fabric_stats.l_occupied_ns /. 1e6);
              Printf.sprintf "%.3f"
                (l.San_telemetry.Fabric_stats.l_blocked_ns /. 1e6);
              string_of_int l.San_telemetry.Fabric_stats.l_collisions;
              string_of_int l.San_telemetry.Fabric_stats.l_drops;
              Printf.sprintf "%.2f" l.San_telemetry.Fabric_stats.utilization;
            ])
      links;
    San_util.Tablefmt.print ~title:"hottest links" t

let run_health spec seed epochs schedule scenario load lpat slo retries dot
    out_dir trace metrics chrome prom =
  let flight = out_dir <> "" in
  with_obs ~force:true ~chrome ~prom ~trace ~metrics @@ fun () ->
  with_why flight @@ fun () ->
  let open San_service in
  let g = build_topology spec seed in
  match
    let ( let* ) = Result.bind in
    let* parsed = resolve_schedule ~epochs schedule scenario in
    let* load_spec = resolve_load load lpat in
    let* slos =
      resolve_slos slo (match load_spec with Some _ -> 1.0 | None -> 0.0)
    in
    Ok (parsed, load_spec, slos)
  with
  | Error e -> Format.eprintf "san_map: bad arguments: %s@." e; 2
  | Ok (parsed, load_spec, slos) -> (
    let fabric = San_telemetry.Fabric_stats.create () in
    San_telemetry.Fabric_stats.install fabric;
    Fun.protect ~finally:San_telemetry.Fabric_stats.uninstall @@ fun () ->
    let config =
      {
        Daemon.default_config with
        Daemon.dist_retries = retries;
        seed;
        flight_dir = (if flight then Some out_dir else None);
        load = load_spec;
        slos;
      }
    in
    match Daemon.run ~config ~schedule:parsed ~epochs g with
    | Error e -> Format.printf "daemon: %s@." e; 1
    | Ok o ->
      print_dashboard spec schedule o fabric;
      (match (dot, o.Daemon.map) with
      | Some f, Some m ->
        Dot.to_file ~graph_name:spec
          ~heat:(San_telemetry.Fabric_stats.heat fabric m)
          m f;
        Format.printf "wrote heat map %s@." f
      | Some f, None ->
        Format.printf "no map at exit; skipped heat map %s@." f
      | None, _ -> ());
      0)

(* ------------------------------------------------------------------ *)
(* explain / blame / postmortem: the provenance ledger surfaced        *)

let why_arg =
  let doc =
    "The map fact to explain: $(b,switch:NAME) (map name m<vid> or the \
     actual switch's name), $(b,link:A.P-B.Q) with each end written \
     NAME.PORT (e.g. $(b,link:h0.0-m1.0)), $(b,route:H1->H2), or \
     $(b,conflicts) (sharded runs: justify every merge-conflict \
     resolution; combine with $(b,--shards)/$(b,--stale))."
  in
  Arg.(required & opt (some string) None & info [ "why" ] ~docv:"QUERY" ~doc)

let write_dot_roots snap roots = function
  | None -> ()
  | Some f ->
    let oc = open_out f in
    output_string oc (San_why.Explain.dot_of_roots snap roots);
    close_out oc;
    Format.printf "wrote %s@." f

(* Sharded explain: re-run the sharded mapping with the ledger on and
   print the justification tree of every merge-conflict resolution.
   Only the [conflicts] query makes sense here — {!San_why.Replay}
   rebuilds a model from vid-keyed notes, and with N shard models
   appending to one ledger those ids collide, so switch/link/route
   queries stay solo-only. *)
let run_explain_conflicts g seed root shards stale =
  match San_shard.Runner.run ~seed ?root ?stale g ~shards with
  | Error e ->
    Format.printf "shard planning failed: %s@." e;
    1
  | Ok r -> (
    match r.San_shard.Runner.resolutions with
    | [] ->
      Format.printf "no merge conflicts: %d shard views agreed%s@." shards
        (if stale = None then
           " (quiescent shards never contradict; try --stale IDX)"
         else "");
      0
    | resolutions ->
      let snap = San_why.Why.capture () in
      Format.printf "%d merge conflict%s resolved:@."
        (List.length resolutions)
        (if List.length resolutions = 1 then "" else "s");
      List.iter
        (fun res ->
          Format.printf "%a@." pp_resolution res;
          if res.San_shard.Merge.r_did >= 0 then
            San_why.Explain.pp_roots snap Format.std_formatter
              [ res.San_shard.Merge.r_did ])
        resolutions;
      0)

let run_explain spec seed mapper_name query shards stale dot =
  with_why true @@ fun () ->
  let g = build_topology spec seed in
  let mapper = pick_mapper g mapper_name in
  if query = "conflicts" then
    run_explain_conflicts g seed
      (if mapper_name = None then None else Some mapper)
      (max shards 2) stale
  else
  let net = San_simnet.Network.create g in
  let r = San_mapper.Berkeley.run net ~mapper in
  match r.San_mapper.Berkeley.map with
  | Error e ->
    Format.printf "mapping failed: %s@." e;
    1
  | Ok map -> (
    (* Computing routes up front records the UP*/DOWN* orientation
       entries, so link and route explanations can cite them. *)
    let table = San_routing.Routes.compute map in
    let snap = San_why.Why.capture () in
    let replay = San_why.Replay.build snap in
    match San_why.Explain.parse_query query with
    | Error e ->
      Format.eprintf "%s@." e;
      2
    | Ok (San_why.Explain.Route (src, dst)) -> (
      match (Graph.host_by_name map src, Graph.host_by_name map dst) with
      | None, _ ->
        Format.printf "%s: no such host in the map@." src;
        1
      | _, None ->
        Format.printf "%s: no such host in the map@." dst;
        1
      | Some s, Some d -> (
        match San_routing.Routes.route table ~src:s ~dst:d with
        | None ->
          Format.printf "no route %s -> %s@." src dst;
          1
        | Some turns ->
          let tr = San_simnet.Worm.eval map ~src:s ~turns in
          let hops = tr.San_simnet.Worm.hops in
          Format.printf "route %s -> %s: turns [%s], %d hops@." src dst
            (String.concat ";" (List.map string_of_int turns))
            (List.length hops);
          let per_hop = San_why.Explain.route_roots ~map ~snap ~replay ~hops in
          List.iter
            (fun (desc, roots) ->
              Format.printf "%s@." desc;
              San_why.Explain.pp_roots snap Format.std_formatter roots)
            per_hop;
          write_dot_roots snap (List.concat_map snd per_hop) dot;
          0))
    | Ok q -> (
      match San_why.Explain.roots_of ~actual:g ~map ~snap ~replay q with
      | Error e ->
        Format.printf "%s@." e;
        1
      | Ok (header, roots) ->
        Format.printf "%s@." header;
        San_why.Explain.pp_roots snap Format.std_formatter roots;
        write_dot_roots snap roots dot;
        0))

let old_spec_arg =
  let doc = "Topology spec of the $(i,old) run (same grammar as -t)." in
  Arg.(required & opt (some string) None & info [ "old" ] ~docv:"SPEC" ~doc)

let new_spec_arg =
  let doc = "Topology spec of the $(i,new) run (same grammar as -t)." in
  Arg.(required & opt (some string) None & info [ "new" ] ~docv:"SPEC" ~doc)

let run_blame old_spec new_spec seed mapper_name =
  with_why true @@ fun () ->
  let run spec =
    let g = build_topology spec seed in
    let mapper = pick_mapper g mapper_name in
    let net = San_simnet.Network.create g in
    let r = San_mapper.Berkeley.run net ~mapper in
    match r.San_mapper.Berkeley.map with
    | Error e -> Error (Printf.sprintf "%s: mapping failed: %s" spec e)
    | Ok map ->
      Ok { San_why.Blame.b_map = map; b_snap = San_why.Why.capture () }
  in
  match run old_spec with
  | Error e ->
    Format.printf "%s@." e;
    1
  | Ok old_ -> (
    match run new_spec with
    | Error e ->
      Format.printf "%s@." e;
      1
    | Ok new_ -> (
      match San_why.Blame.run ~old_ ~new_ with
      | [] ->
        Format.printf "maps agree: nothing to blame@.";
        0
      | attrs ->
        Format.printf "%d change%s from %s to %s:@." (List.length attrs)
          (if List.length attrs = 1 then "" else "s")
          old_spec new_spec;
        List.iter
          (fun a -> Format.printf "%a@." San_why.Blame.pp_attribution a)
          attrs;
        0))

let flight_file_arg =
  Arg.(
    required & pos 0 (some string) None & info [] ~docv:"FLIGHT.jsonl")

let run_postmortem file =
  match San_why.Postmortem.read file with
  | Error e ->
    Format.printf "%s: %s@." file e;
    1
  | Ok t ->
    Format.printf "%a" San_why.Postmortem.pp t;
    0

(* ------------------------------------------------------------------ *)

let topo_cmd =
  Cmd.v
    (Cmd.info "topo" ~doc:"Generate a topology and print its statistics")
    Term.(const run_topo $ topo_arg $ seed_arg $ dot_arg)

let gen_cmd =
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a parametric fabric and emit it as replayable artifacts \
          (spec header + DOT, optional JSON)")
    Term.(
      const run_gen $ topo_arg $ seed_arg $ out_dir_arg $ dot_arg $ json_arg)

let map_cmd =
  Cmd.v
    (Cmd.info "map" ~doc:"Discover a topology with in-band probes")
    Term.(
      const run_map $ topo_arg $ seed_arg $ mapper_arg $ algo_arg $ model_arg
      $ depth_arg $ policy_arg $ budget_arg $ dot_arg $ json_arg $ out_dir_arg
      $ trace_arg $ metrics_arg $ chrome_arg $ prom_arg)

let coverage_cmd =
  Cmd.v
    (Cmd.info "coverage"
       ~doc:
         "Map under a probe budget and print the coverage observatory \
          dashboard (frontier sparkline, confidence deciles, least-confident \
          elements with explain hooks)")
    Term.(
      const run_coverage $ topo_arg $ seed_arg $ mapper_arg
      $ coverage_budget_arg $ directed_arg $ depth_arg $ out_dir_arg
      $ trace_arg $ metrics_arg $ chrome_arg $ prom_arg)

let shard_cmd =
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Map a fabric with N concurrent mapper shards and a \
          conflict-resolved merge")
    Term.(
      const run_shard $ topo_arg $ seed_arg $ mapper_arg $ shards_arg
      $ stale_arg $ compare_solo_arg $ json_arg $ out_dir_arg $ trace_arg
      $ metrics_arg $ chrome_arg $ prom_arg)

(* ------------------------------------------------------------------ *)
(* serve: the route-query plane                                        *)

let queries_arg =
  let doc = "Route queries to answer through the zero-allocation path." in
  Arg.(value & opt int 200_000 & info [ "queries" ] ~docv:"N" ~doc)

let serve_dsts_arg =
  let doc =
    "Destination working-set size (a seeded sample of hosts); bounds \
     resident per-destination tables and therefore serving memory."
  in
  Arg.(value & opt int 24 & info [ "dsts" ] ~docv:"N" ~doc)

let serve_check_arg =
  let doc =
    "Verify the serving plane: every served route in the working set \
     must deliver its worm, and the set must be deadlock-free."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let run_serve spec seed queries dsts check load lpat trace metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let g = build_topology spec seed in
  let hosts = Array.of_list (Graph.hosts g) in
  let nh = Array.length hosts in
  if nh < 2 then begin
    Format.eprintf "serve: topology %s has %d host(s); need at least 2@." spec
      nh;
    2
  end
  else begin
    match resolve_load load lpat with
    | Error e ->
      Format.eprintf "san_map: %s@." e;
      2
    | Ok load_spec ->
      let rng = San_util.Prng.create seed in
      let ndst = max 1 (min dsts nh) in
      let shuffled = Array.copy hosts in
      San_util.Prng.shuffle rng shuffled;
      let dst_set = Array.sub shuffled 0 ndst in
      (* Traffic awareness: measure link heat and loss under the
         offered load riding the deterministic table, then serve
         equal-cost choices away from both. *)
      let prefer =
        match load_spec with
        | None -> None
        | Some ls ->
          let baseline = San_routing.Routes.compute g in
          let stats = San_telemetry.Fabric_stats.create () in
          San_telemetry.Fabric_stats.install stats;
          let rep =
            San_slo.Load.drive ~rng:(San_util.Prng.copy rng) ls ~table:baseline
              g
          in
          San_telemetry.Fabric_stats.uninstall ();
          (* A drop costs one median redelivery; occupancy and queueing
             are already nanoseconds, so the units agree. *)
          let drop_ns =
            San_obs.Digest.quantile rep.San_slo.Load.r_latency 0.5
          in
          Format.printf
            "traffic: %s load %.2f — loss %.4f/crossing, drop cost %.0f ns@."
            (San_slo.Load.pattern_to_string rep.San_slo.Load.r_pattern)
            rep.San_slo.Load.r_offered rep.San_slo.Load.r_loss_per_crossing
            drop_ns;
          Some
            (fun u v ->
              List.fold_left
                (fun acc (port, (w, _)) ->
                  if w <> v then acc
                  else
                    let p =
                      match
                        San_telemetry.Fabric_stats.port_stat stats (u, port)
                      with
                      | None -> 0.0
                      | Some s ->
                        s.San_telemetry.Fabric_stats.occupied_ns
                        +. s.San_telemetry.Fabric_stats.blocked_ns
                        +. float_of_int s.San_telemetry.Fabric_stats.drops
                           *. drop_ns
                    in
                    Float.min acc p)
                infinity (Graph.wired_ports g u))
      in
      let serve =
        San_routing.Serve.create ~cache_limit:(max 64 ndst) ?prefer g
      in
      let t0 = Unix.gettimeofday () in
      Array.iter (fun dst -> San_routing.Serve.warm serve ~dst) dst_set;
      let warm_s = Unix.gettimeofday () -. t0 in
      let q =
        Array.init queries (fun _ ->
            let dst = dst_set.(San_util.Prng.int rng ndst) in
            let rec src () =
              let s = hosts.(San_util.Prng.int rng nh) in
              if s = dst then src () else s
            in
            (src (), dst))
      in
      let buf = Array.make (Graph.num_nodes g + 1) 0 in
      let t1 = Unix.gettimeofday () in
      let served = San_routing.Serve.batch serve q ~buf in
      let dt = Unix.gettimeofday () -. t1 in
      let rate = if dt > 0.0 then float_of_int queries /. dt else 0.0 in
      let st = San_routing.Serve.stats serve in
      Format.printf
        "served %d/%d queries over %d destinations in %.3f s — %.2fM \
         lookups/s (tables compiled in %.3f s)@."
        served queries ndst dt (rate /. 1e6) warm_s;
      Format.printf
        "pool: %d routes, %d turns in %d shared cells; %d B packed vs %d B \
         naive (%.1f%%)@."
        st.San_routing.Serve.entries st.San_routing.Serve.turns_total
        st.San_routing.Serve.pool_cells st.San_routing.Serve.packed_bytes
        st.San_routing.Serve.naive_bytes
        (100.0
        *. float_of_int st.San_routing.Serve.packed_bytes
        /. float_of_int (max 1 st.San_routing.Serve.naive_bytes));
      if not check then 0
      else begin
        let failed = ref 0 in
        let routes = ref [] in
        Array.iter
          (fun dst ->
            Array.iter
              (fun src ->
                if src <> dst then
                  match San_routing.Serve.lookup serve ~src ~dst with
                  | None -> incr failed
                  | Some turns -> (
                    routes := (src, turns) :: !routes;
                    let trace = San_simnet.Worm.eval g ~src ~turns in
                    match trace.San_simnet.Worm.outcome with
                    | San_simnet.Worm.Arrived h when h = dst -> ()
                    | _ -> incr failed))
              hosts)
          dst_set;
        (match San_routing.Deadlock.check_acyclic g !routes with
        | Ok () ->
          Format.printf "deadlock freedom: channel dependency graph acyclic@."
        | Error e ->
          incr failed;
          Format.printf "deadlock: %s@." e);
        if !failed = 0 then begin
          Format.printf "check: every served route delivered@.";
          0
        end
        else begin
          Format.printf "check: %d served routes failed@." !failed;
          1
        end
      end
  end

let routes_cmd =
  Cmd.v
    (Cmd.info "routes" ~doc:"Map, then compute and verify UP*/DOWN* routes")
    Term.(
      const run_routes $ topo_arg $ seed_arg $ mapper_arg $ algo_arg
      $ loads_arg $ spread_arg $ trace_arg $ metrics_arg)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve route queries from lazily compiled, shared-suffix \
          compressed per-destination tables, optionally traffic-aware \
          (give $(b,--load) to steer equal-cost choices away from \
          measured heat and loss)")
    Term.(
      const run_serve $ topo_arg $ seed_arg $ queries_arg $ serve_dsts_arg
      $ serve_check_arg $ load_arg $ load_pattern_arg $ trace_arg
      $ metrics_arg)

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the mapper: random fabrics, six invariants, shrunk \
          counterexamples")
    Term.(
      const run_fuzz $ cases_arg $ seed_arg $ prop_arg $ replay_arg
      $ artifacts_arg $ shrink_budget_arg $ progress_arg $ trace_arg
      $ metrics_arg)

let diff_cmd =
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare two saved maps (JSON), anchored at hosts")
    Term.(const run_diff $ map_file 0 $ map_file 1)

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Incrementally verify a saved map against the live fabric")
    Term.(
      const run_verify $ topo_arg $ seed_arg $ mapper_arg $ prev_arg $ json_arg
      $ trace_arg $ metrics_arg)

let daemon_cmd =
  Cmd.v
    (Cmd.info "daemon"
       ~doc:
         "Run the epoch-driven control-plane daemon over a scripted \
          fault/repair schedule")
    Term.(
      const run_daemon $ topo_arg $ seed_arg $ epochs_arg $ schedule_arg
      $ scenario_arg $ load_arg $ load_pattern_arg $ slo_arg $ retries_arg
      $ daemon_shards_arg $ quiet_arg $ out_dir_arg $ trace_arg $ metrics_arg
      $ chrome_arg $ prom_arg)

let health_cmd =
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run the daemon with fabric telemetry and print a health dashboard \
          (epoch sparklines, alerts, hottest links)")
    Term.(
      const run_health $ topo_arg $ seed_arg $ epochs_arg $ schedule_arg
      $ scenario_arg $ load_arg $ load_pattern_arg $ slo_arg $ retries_arg
      $ dot_arg $ out_dir_arg $ trace_arg $ metrics_arg $ chrome_arg
      $ prom_arg)

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Map with the provenance ledger on, then print the minimal \
          justification tree for a switch, link, route, or sharded \
          merge conflicts")
    Term.(
      const run_explain $ topo_arg $ seed_arg $ mapper_arg $ why_arg
      $ shards_arg $ stale_arg $ dot_arg)

let blame_cmd =
  Cmd.v
    (Cmd.info "blame"
       ~doc:
         "Map two fabrics and attribute each map difference to the first \
          probe whose answer explains it")
    Term.(
      const run_blame $ old_spec_arg $ new_spec_arg $ seed_arg $ mapper_arg)

let postmortem_cmd =
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:
         "Reconstruct the epoch story from a daemon flight recording \
          (flight-*.jsonl)")
    Term.(const run_postmortem $ flight_file_arg)

let version_cmd =
  Cmd.v
    (Cmd.info "version" ~doc:"Print the package version")
    Term.(
      const (fun () ->
          print_endline Version.version;
          0)
      $ const ())

let () =
  let info =
    Cmd.info "san_map" ~version:Version.version
      ~doc:"System area network mapping (SPAA'97 reproduction)"
  in
  exit
    (try
       Cmd.eval' ~catch:false
         (Cmd.group info
            [
              topo_cmd; gen_cmd; map_cmd; coverage_cmd; shard_cmd; routes_cmd;
              serve_cmd;
              diff_cmd; verify_cmd;
              fuzz_cmd; daemon_cmd; health_cmd; explain_cmd; blame_cmd;
              postmortem_cmd; version_cmd;
            ])
     with Invalid_argument msg | Failure msg ->
       (* Malformed specs (topologies, fabrics, schedules) surface as a
          one-line usage error, never a backtrace. *)
       Format.eprintf "san_map: %s@." msg;
       2)
