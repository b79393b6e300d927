(* map, coverage, routes, diff, verify: discovering a topology and
   checking what was discovered. *)

open Cmdliner
open San_topology
module Berkeley = San_mapper.Berkeley
module Cover = San_cover.Cover

let algo =
  let doc = "Mapping algorithm: berkeley (the paper's) or myricom (baseline)." in
  Arg.(
    value
    & opt (enum [ ("berkeley", `Berkeley); ("myricom", `Myricom) ]) `Berkeley
    & info [ "algo" ] ~doc)

let model =
  let doc = "Worm collision model: circuit or cut-through." in
  Arg.(
    value
    & opt
        (enum
           [ ("circuit", San_simnet.Collision.Circuit);
             ("cut-through", San_simnet.Collision.Cut_through) ])
        San_simnet.Collision.Circuit
    & info [ "model" ] ~doc)

let policy =
  let doc = "Probe policy: faithful (default) or exhaustive." in
  Arg.(
    value
    & opt (enum [ ("faithful", Berkeley.faithful);
                  ("exhaustive", Berkeley.exhaustive) ])
        Berkeley.faithful
    & info [ "policy" ] ~doc)

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

let parse_budget s =
  match Cover.parse_budget s with Ok b -> b | Error e -> invalid_arg e

(* The budgeted run behind both `map --budget` and `coverage`: a full
   reference run, a budget-stopped rerun with the why ledger on, and
   the confidence-annotated partial-map artifact under --out-dir.
   [report] prints what the subcommand shows before the artifact is
   written and returns the exit status. *)
let run_budgeted ?directed ?policy (t : Cli.topology) ~depth ~out_dir b net
    ~mapper report =
  match Cover.run ?directed ?policy ~depth ~budget:b net ~mapper with
  | Error e ->
    Format.printf "coverage run failed: %s@." e;
    1
  | Ok rep ->
    let status = report rep in
    if out_dir <> "" then
      Cli.save
        (Cli.artifact out_dir
           (Printf.sprintf "partial-map-%s-b%s.json" (Cli.spec_stem t.spec)
              (Cli.spec_stem (Cover.budget_to_string b))))
        (Cli.json_text (Cover.report_to_json ~spec:t.spec ~seed:t.seed rep));
    status

let run_map (t : Cli.topology) mapper_name algo model depth policy budget dot
    json out_dir obs =
  Cli.with_obs obs @@ fun () ->
  let mapper = Cli.host t.g mapper_name in
  let finish = function
    | Error e ->
      Format.printf "export failed: %s@." e;
      1
    | Ok map ->
      Format.printf "map: %a@." Graph.pp_stats map;
      let ok =
        Cli.verify_n_minus_f t map ~ok:"verified: map"
          ~failed:"verification FAILED"
      in
      Cli.map_artifacts ~out_dir ~prefix:"map-" t map;
      Option.iter (fun f -> Cli.save f (Dot.to_string map)) dot;
      Option.iter (fun f -> Cli.save f (Cli.map_text map)) json;
      Cli.status ok
  in
  match algo with
  | `Berkeley -> (
    let net = San_simnet.Network.create ~model t.g in
    let depth = Cli.depth t depth in
    match Option.map parse_budget budget with
    | Some b ->
      run_budgeted ~policy t ~depth ~out_dir b net ~mapper (fun rep ->
          Format.printf "%a@." Cover.pp_summary rep;
          match rep.Cover.r_subgraph with
          | Ok () ->
            Format.printf
              "verified: partial map embeds in the full map (N - F)@.";
            0
          | Error e ->
            Format.printf "subgraph check FAILED: %s@." e;
            1)
    | None ->
      let r = Berkeley.run ~policy ~depth net ~mapper in
      Format.printf
        "berkeley: %d explorations, %d probes (host %d/%d, switch %d/%d), %.1f \
         ms simulated, depth %d@."
        r.Berkeley.explorations (Berkeley.total_probes r) r.Berkeley.host_hits
        r.Berkeley.host_probes r.Berkeley.switch_hits r.Berkeley.switch_probes
        (r.Berkeley.elapsed_ns /. 1e6)
        r.Berkeley.depth_used;
      finish r.Berkeley.map)
  | `Myricom ->
    if budget <> None then
      invalid_arg
        "--budget requires the berkeley mapper (the myricom baseline has no \
         budget hook)";
    let module M = San_myricom.Myricom in
    let r = M.run ~model t.g ~mapper in
    let c = r.M.counts in
    Format.printf
      "myricom: %d probes (loop %d, host %d, switch %d, compare %d), %.1f ms \
       simulated, %d switches@."
      (M.total c) c.M.loop_probes c.M.host_probes c.M.switch_probes
      c.M.compare_probes
      (r.M.elapsed_ns /. 1e6)
      r.M.switches_found;
    finish r.M.map

(* ------------------------------------------------------------------ *)
(* coverage: the budgeted-mapping observatory dashboard                *)

(* Resolve a budgeted element back to the full map so the dashboard can
   print a working `explain` query: its discovery probe walks to the
   same place on the exported map (worm turns are frame-shift
   invariant). *)
let explain_hook full_map ~src (e : Cover.element) =
  let open San_simnet in
  match e.Cover.el_kind with
  | `Host ->
    let self = Graph.name full_map src in
    if e.Cover.el_label = self then "-"
    else Printf.sprintf "route:%s->%s" self e.Cover.el_label
  | `Switch -> (
    if e.Cover.el_path = [] then
      (* the root switch: the mapper's cable neighbour on the map *)
      match Graph.wired_ports full_map src with
      | (_, (s, _)) :: _ -> "switch:" ^ Graph.name full_map s
      | [] -> "-"
    else
      let t = Worm.eval full_map ~src ~turns:e.Cover.el_path in
      match t.Worm.outcome with
      | Worm.Stranded n -> "switch:" ^ Graph.name full_map n
      | _ -> "-")
  | `Link -> (
    if e.Cover.el_path = [] then "-"
    else
      let t = Worm.eval full_map ~src ~turns:e.Cover.el_path in
      match (t.Worm.outcome, List.rev t.Worm.hops) with
      | (Worm.Stranded _ | Worm.Arrived _), h :: _ ->
        let ((na, pa), (nb, pb)) = (h.Worm.exit_end, h.Worm.entry_end) in
        if Graph.is_host full_map na || Graph.is_host full_map nb then "-"
        else
          Printf.sprintf "link:%s.%d-%s.%d" (Graph.name full_map na) pa
            (Graph.name full_map nb) pb
      | _ -> "-")

let print_coverage_dashboard spec budget ~mapper_name (rep : Cover.report) =
  let open Cover in
  Format.printf "== coverage: %s @@ budget %s ==@." spec
    (budget_to_string budget);
  Format.printf "%a@.@." pp_summary rep;
  (* The frontier over the run: how much known-unexplored edge the
     exploration was still holding when the budget ran out. *)
  let spark f =
    San_util.Tablefmt.sparkline ~width:60
      (List.map (fun (t : Berkeley.trace_point) -> float_of_int (f t)) rep.r_trace)
  in
  Format.printf "frontier   %s  (now %d)@."
    (spark (fun t -> t.Berkeley.frontier_length))
    rep.r_frontier;
  Format.printf "hosts      %s  (%d/%d)@."
    (spark (fun t -> t.Berkeley.hosts_found))
    rep.r_recovered_hosts rep.r_full_hosts;
  Format.printf "live nodes %s  (%d switch classes)@.@."
    (spark (fun t -> t.Berkeley.live_nodes))
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
    let bar = String.make (if n = 0 then 0 else count * 40 / max 1 n) '#' in
    San_util.Tablefmt.add_row tbl
      [ Printf.sprintf "[%.1f,%.1f)" lo hi; string_of_int count; bar ]
  done;
  San_util.Tablefmt.print ~title:"confidence deciles" tbl;
  Format.printf "@.";
  let src =
    Option.value ~default:(-1) (Graph.host_by_name rep.r_full_map mapper_name)
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

let run_coverage (t : Cli.topology) mapper_name budget directed depth out_dir
    obs =
  Cli.with_obs obs @@ fun () ->
  let b = parse_budget budget in
  let mapper = Cli.host t.g mapper_name in
  let net = San_simnet.Network.create t.g in
  let depth = Cli.depth t depth in
  let directed =
    if directed then Some (San_cover.Directed.create ~seed:t.seed t.g) else None
  in
  run_budgeted ?directed t ~depth ~out_dir b net ~mapper (fun rep ->
      print_coverage_dashboard t.spec b ~mapper_name:(Graph.name t.g mapper) rep;
      Option.iter
        (fun d ->
          Format.printf
            "@.directed fabric: %d oriented links, %d probes silenced by \
             orientation@."
            (San_cover.Directed.oriented_wires d)
            (San_cover.Directed.blocked d))
        directed;
      if out_dir <> "" then Format.printf "@.";
      match rep.Cover.r_subgraph with Ok () -> 0 | Error _ -> 1)

(* ------------------------------------------------------------------ *)
(* routes                                                              *)

let run_routes (t : Cli.topology) mapper_name algo loads spread obs =
  Cli.with_obs obs @@ fun () ->
  let g = t.g in
  let mapper = Cli.host g mapper_name in
  let map_result =
    match algo with
    | `Berkeley ->
      let net = San_simnet.Network.create g in
      (Berkeley.run net ~mapper).Berkeley.map
    | `Myricom -> (San_myricom.Myricom.run g ~mapper).San_myricom.Myricom.map
  in
  match map_result with
  | Error e ->
    Format.printf "mapping failed: %s@." e;
    1
  | Ok map ->
    let module R = San_routing.Routes in
    let rng = if spread then Some (San_util.Prng.create t.seed) else None in
    let table = R.compute ?rng map in
    let st = R.length_stats table in
    Format.printf "routes: %d pairs, turns %d / %.2f / %d (min/avg/max)@."
      st.R.pairs st.R.min_len st.R.avg_len st.R.max_len;
    let failed = ref false in
    Format.printf "delivery on actual network: %s@."
      (match R.verify_delivery ~against:g table with
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
      R.channel_loads table
      |> List.filteri (fun i _ -> i < loads)
      |> List.iter (fun ((n, p), l) ->
             Format.printf "  channel (%s, port %d): %d routes@."
               (let nm = Graph.name map n in
                if nm = "" then string_of_int n else nm)
               p l);
    Cli.status (not !failed)

(* ------------------------------------------------------------------ *)
(* diff and verify: saved maps                                         *)

let load_map file = Cli.loaded file (Serial.load file)

let run_diff old_file new_file =
  let old_map = load_map old_file in
  let new_map = load_map new_file in
  (match Diff.diff ~old_map ~new_map with
  | [] -> Format.printf "maps are identical (up to port offsets)@."
  | changes -> List.iter (fun c -> Format.printf "%a@." Diff.pp_change c) changes);
  0

let run_verify (t : Cli.topology) mapper_name prev_file json obs =
  Cli.with_obs obs @@ fun () ->
  let mapper = Cli.host t.g mapper_name in
  let previous = load_map prev_file in
  let module I = San_mapper.Incremental in
  let r = I.run (San_simnet.Network.create t.g) ~mapper ~previous in
  (match r.I.verdict with
  | I.Unchanged ->
    Format.printf "map verified unchanged: %d probes, %.1f ms simulated@."
      r.I.verify_probes
      (r.I.total_elapsed_ns /. 1e6)
  | I.Changed n ->
    Format.printf
      "%d discrepancies; remapped in full (total %.1f ms simulated)@." n
      (r.I.total_elapsed_ns /. 1e6));
  match r.I.map with
  | Error e ->
    Format.printf "map export failed: %s@." e;
    1
  | Ok m ->
    let ok =
      Cli.verify_n_minus_f t m ~ok:"final map"
        ~failed:"final map verification FAILED"
    in
    Option.iter (fun f -> Cli.save f (Cli.map_text m)) json;
    Cli.status ok

(* ------------------------------------------------------------------ *)

let map =
  Cmd.v
    (Cmd.info "map" ~doc:"Discover a topology with in-band probes")
    Term.(
      const run_map $ Cli.topology $ Cli.mapper $ algo $ model $ Cli.depth_arg
      $ policy $ budget_arg $ Cli.dot $ Cli.json $ Cli.out_dir $ Cli.obs_all)

let coverage =
  let budget =
    let doc =
      "Probe budget for the dashboard run: a fraction of the full run's \
       probes (e.g. 0.3) or probes:N."
    in
    Arg.(value & opt string "0.3" & info [ "budget" ] ~docv:"FRAC|probes:N" ~doc)
  in
  let directed =
    let doc =
      "Orient every switch-switch link in a seeded random direction before \
       mapping (the Goldstein directed-fabric variant) and report how probe \
       complexity degrades."
    in
    Arg.(value & flag & info [ "directed" ] ~doc)
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:
         "Map under a probe budget and print the coverage observatory \
          dashboard (frontier sparkline, confidence deciles, least-confident \
          elements with explain hooks)")
    Term.(
      const run_coverage $ Cli.topology $ Cli.mapper $ budget $ directed
      $ Cli.depth_arg $ Cli.out_dir $ Cli.obs_all)

let routes =
  let loads =
    let doc = "Print the N hottest channels." in
    Arg.(value & opt (Cli.count ~min:0) 0 & info [ "loads" ] ~docv:"N" ~doc)
  in
  let spread =
    let doc =
      "Spread equal-cost routes randomly over parallel wires and \
       equal-length paths (seeded load balancing). Without it the table \
       is deterministic: the same fabric always yields byte-identical \
       routes."
    in
    Arg.(value & flag & info [ "spread" ] ~doc)
  in
  Cmd.v
    (Cmd.info "routes" ~doc:"Map, then compute and verify UP*/DOWN* routes")
    Term.(
      const run_routes $ Cli.topology $ Cli.mapper $ algo $ loads $ spread
      $ Cli.obs)

let diff =
  let map_file pos_name =
    Arg.(required & pos pos_name (some string) None & info [] ~docv:"MAP.json")
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare two saved maps (JSON), anchored at hosts")
    Term.(const run_diff $ map_file 0 $ map_file 1)

let verify =
  let previous =
    let doc = "Previously saved map (JSON) to verify against the live fabric." in
    Arg.(required & opt (some string) None & info [ "previous" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Incrementally verify a saved map against the live fabric")
    Term.(
      const run_verify $ Cli.topology $ Cli.mapper $ previous $ Cli.json
      $ Cli.obs)
