open San_topology
open San_telemetry
module Obs = San_obs.Obs
module Trace = San_obs.Trace
module Metrics = San_obs.Metrics
module Digest = San_obs.Digest
module Slo = San_slo.Slo
module Event_sim = San_simnet.Event_sim

let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let with_fabric fabric f =
  Fabric_stats.install fabric;
  Fun.protect ~finally:Fabric_stats.uninstall f

(* ---------- Chrome trace exporter ---------- *)

(* A deterministic sim-only workload: every all-pairs route on a tiny
   two-switch network, injected at t=0. All its trace events carry
   simulated timestamps, so the export must be byte-identical across
   runs — the acceptance criterion for diffable trace artifacts. *)
let chrome_of_seeded_run () =
  with_obs @@ fun () ->
  let g = Generators.ring ~switches:2 ~hosts_per_switch:2 () in
  let table = San_routing.Routes.compute g in
  (* drop the route-computation span: its wall-clock timestamps are the
     one non-deterministic thing here, and the contract under test is
     that a sim-only trace (all fabric events on the simulated clock)
     exports byte-identically *)
  Obs.reset ();
  let sim = Event_sim.create g in
  List.iter
    (fun (src, _, turns) ->
      ignore (Event_sim.inject sim ~at_ns:0.0 ~src ~turns ~payload_bytes:256 ()))
    (San_routing.Routes.all table);
  Event_sim.run sim;
  Chrome_trace.of_records (Trace.records Obs.tracer)

let test_chrome_byte_stable () =
  let a = chrome_of_seeded_run () in
  let b = chrome_of_seeded_run () in
  Alcotest.(check bool) "two seeded runs export identically" true (a = b);
  Alcotest.(check bool) "export is not trivially empty" true
    (String.length a > 200)

let test_chrome_valid_json () =
  let s = chrome_of_seeded_run () in
  match San_util.Json.of_string s with
  | Error e -> Alcotest.fail ("chrome trace does not parse: " ^ e)
  | Ok (San_util.Json.Obj fields) ->
    (match List.assoc_opt "traceEvents" fields with
    | Some (San_util.Json.Arr evs) ->
      Alcotest.(check bool) "has events beyond metadata" true
        (List.length evs > 5)
    | _ -> Alcotest.fail "no traceEvents array");
    Alcotest.(check bool) "displayTimeUnit present" true
      (List.assoc_opt "displayTimeUnit" fields = Some (San_util.Json.Str "ms"))
  | Ok _ -> Alcotest.fail "chrome trace is not a JSON object"

let test_chrome_handles_all_events () =
  (* Every constructor the tracer can emit must export without raising
     — driven by the same compiler-maintained witness list the JSON
     round-trip uses. *)
  let records =
    List.mapi
      (fun i ev -> { Trace.seq = i; wall_ns = float_of_int (i * 1000); event = ev })
      Trace.all_events
  in
  let s = Chrome_trace.of_records records in
  match San_util.Json.of_string s with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("all-constructor export invalid: " ^ e)

(* ---------- Prometheus exporter ---------- *)

let test_prom_roundtrip () =
  let r = Metrics.create () in
  Metrics.incr ~by:7 (Metrics.counter r "probes.sent");
  Metrics.incr (Metrics.counter r "worms.dropped");
  Metrics.set (Metrics.gauge r "daemon.coverage") 0.8333333333333334;
  Metrics.set (Metrics.gauge r "window.depth") (-2.5);
  let h = Metrics.histogram r "probe.latency_ns" in
  List.iter (Metrics.observe h) [ 120.0; 450.0; 450.0; 88_000.0; 0.0 ];
  let snap = Metrics.snapshot r in
  let text = Prom.of_snapshot snap in
  let values = Prom.parse_values text in
  let find series =
    match List.assoc_opt series values with
    | Some v -> v
    | None ->
      Alcotest.fail (Printf.sprintf "series %s missing from:\n%s" series text)
  in
  (* every counter and gauge recovers exactly *)
  List.iter
    (fun (name, v) ->
      Alcotest.(check (float 0.0))
        ("counter " ^ name)
        (float_of_int v)
        (find ("san_" ^ String.map (fun c -> if c = '.' then '_' else c) name)))
    snap.Metrics.s_counters;
  List.iter
    (fun (name, v) ->
      Alcotest.(check (float 0.0))
        ("gauge " ^ name)
        v
        (find ("san_" ^ String.map (fun c -> if c = '.' then '_' else c) name)))
    snap.Metrics.s_gauges;
  (* summaries carry the exact count and sum, and the library's own
     quantiles *)
  let hs = List.assoc "probe.latency_ns" snap.Metrics.s_histograms in
  Alcotest.(check (float 0.0)) "summary count"
    (float_of_int (Digest.count hs))
    (find "san_probe_latency_ns_count");
  Alcotest.(check (float 0.0)) "summary sum" (Digest.sum hs)
    (find "san_probe_latency_ns_sum");
  List.iter
    (fun (label, q) ->
      Alcotest.(check (float 0.0))
        ("quantile " ^ label)
        (Digest.quantile hs q)
        (find (Printf.sprintf "san_probe_latency_ns{quantile=%S}" label)))
    [ ("0.5", 0.5); ("0.9", 0.9); ("0.99", 0.99) ]

(* An empty registry must expose as an empty, parseable document —
   the scrape endpoint serves whatever exists, including nothing. *)
let test_prom_empty_registry () =
  let r = Metrics.create () in
  let text = Prom.of_snapshot (Metrics.snapshot r) in
  Alcotest.(check string) "empty registry exposes empty text" "" text;
  Alcotest.(check int) "no series parsed" 0
    (List.length (Prom.parse_values text))

(* A gauge overwritten within a scrape window exports once, with the
   last value, exactly — and the exposition is deterministic text
   with no duplicated series or metadata lines. *)
let test_prom_gauge_overwrite () =
  let r = Metrics.create () in
  let g = Metrics.gauge r "daemon.coverage" in
  Metrics.set g 0.25;
  Metrics.set g 0.7071067811865476;
  Metrics.incr (Metrics.counter r "probes.sent");
  ignore (Metrics.histogram r "probe.latency_ns");
  let snap = Metrics.snapshot r in
  let text = Prom.of_snapshot snap in
  Alcotest.(check string) "exposition is deterministic" text
    (Prom.of_snapshot snap);
  let values = Prom.parse_values text in
  let coverage =
    List.filter (fun (s, _) -> s = "san_daemon_coverage") values
  in
  (match coverage with
  | [ (_, v) ] ->
    Alcotest.(check (float 0.0)) "last write round-trips exactly"
      0.7071067811865476 v
  | l ->
    Alcotest.failf "gauge exported %d times, want exactly once"
      (List.length l));
  (* metadata lines (# HELP / # TYPE) must be unique per series *)
  let meta =
    List.filter
      (fun l -> String.length l > 0 && l.[0] = '#')
      (String.split_on_char '\n' text)
  in
  let uniq = List.sort_uniq compare meta in
  Alcotest.(check int) "no duplicate # HELP/# TYPE lines"
    (List.length uniq) (List.length meta)

let test_prom_sanitizes_names () =
  let r = Metrics.create () in
  Metrics.incr (Metrics.counter r "weird name-with:stuff!");
  let text = Prom.of_snapshot (Metrics.snapshot r) in
  let ok =
    List.for_all
      (fun line ->
        String.length line = 0
        || line.[0] = '#'
        || String.for_all
             (fun c ->
               (c >= 'a' && c <= 'z')
               || (c >= 'A' && c <= 'Z')
               || (c >= '0' && c <= '9')
               || c = '_' || c = ':' || c = ' ')
             line)
      (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "only prometheus-charset names" true ok

(* ---------- fabric conservation ---------- *)

let storm_fabric () =
  (* All-pairs application storm on the paper's C subcluster, counted
     by an explicitly-passed table (no global slot involved). *)
  let g, _ = Generators.now_c () in
  let table = San_routing.Routes.compute g in
  let fabric = Fabric_stats.create () in
  let sim = Event_sim.create ~fabric g in
  List.iter
    (fun (src, _, turns) ->
      ignore (Event_sim.inject sim ~at_ns:0.0 ~src ~turns ~payload_bytes:4096 ()))
    (San_routing.Routes.all table);
  Event_sim.run sim;
  (g, fabric, Event_sim.stats sim)

let test_fabric_conservation () =
  let _, fabric, st = storm_fabric () in
  Alcotest.(check int) "storm fully drains" 0 st.Event_sim.in_flight;
  Alcotest.(check bool) "storm acquired channels" true
    (st.Event_sim.hops_acquired > 0);
  (* channel-side and worm-side accounting meet in the middle: every
     acquired hop was charged to exactly one channel *)
  Alcotest.(check int) "transits conserved" st.Event_sim.hops_acquired
    (Fabric_stats.total_transits fabric)

let test_fabric_links_cover_transits () =
  let g, fabric, _ = storm_fabric () in
  let links = Fabric_stats.links fabric g in
  Alcotest.(check int) "one row per wire" (Graph.num_wires g)
    (List.length links);
  let link_sum =
    List.fold_left (fun acc l -> acc + l.Fabric_stats.l_transits) 0 links
  in
  Alcotest.(check int) "undirected rows sum to the directed total"
    (Fabric_stats.total_transits fabric)
    link_sum;
  (* hottest-first ordering, utilization normalized into [0,1] with the
     hottest link at 1 *)
  (match links with
  | top :: _ ->
    Alcotest.(check (float 1e-9)) "hottest link pegs utilization" 1.0
      top.Fabric_stats.utilization
  | [] -> Alcotest.fail "no links");
  List.iter
    (fun l ->
      Alcotest.(check bool) "utilization within [0,1]" true
        (l.Fabric_stats.utilization >= 0.0 && l.Fabric_stats.utilization <= 1.0))
    links;
  let sorted =
    List.sort
      (fun a b -> compare b.Fabric_stats.utilization a.Fabric_stats.utilization)
      links
  in
  Alcotest.(check bool) "rows arrive hottest-first" true
    (List.map (fun l -> l.Fabric_stats.utilization) links
    = List.map (fun l -> l.Fabric_stats.utilization) sorted)

let test_fabric_global_slot () =
  let fabric = Fabric_stats.create () in
  with_fabric fabric @@ fun () ->
  let g = Generators.ring ~switches:2 ~hosts_per_switch:2 () in
  let table = San_routing.Routes.compute g in
  let sim = Event_sim.create g in
  (* no ~fabric argument: the simulator must pick up the slot *)
  List.iter
    (fun (src, _, turns) ->
      ignore (Event_sim.inject sim ~at_ns:0.0 ~src ~turns ()))
    (San_routing.Routes.all table);
  Event_sim.run sim;
  Alcotest.(check int) "slot table sees the storm"
    (Event_sim.stats sim).Event_sim.hops_acquired
    (Fabric_stats.total_transits fabric)

(* A network resolves its table once, at creation: one installed later
   sees neither that network's transits nor its collisions, and a
   network created while it is installed records both there. *)
let test_fabric_network_resolves_once () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g () and s1 = Graph.add_switch g () in
  let s2 = Graph.add_switch g () in
  let h0 = Graph.add_host g ~name:"h0" and h1 = Graph.add_host g ~name:"h1" in
  Graph.connect g (h0, 0) (s0, 0);
  Graph.connect g (h1, 0) (s1, 7);
  Graph.connect g (s0, 1) (s1, 1);
  Graph.connect g (s1, 2) (s2, 2);
  Graph.connect g (s2, 3) (s0, 3);
  (* Once round the triangle, then over s0 -> s1 again: a circuit worm
     blocks on its own tail at channel (s0, 1). *)
  let lap = [ 1; 1; 1; -2; 6 ] in
  let probe net =
    match San_simnet.Network.host_probe net ~src:h0 ~turns:lap with
    | San_simnet.Network.Nothing, _ -> ()
    | _ -> Alcotest.fail "the lap must collide"
  in
  let before = San_simnet.Network.create g in
  let late = Fabric_stats.create () in
  with_fabric late @@ fun () ->
  probe before;
  Alcotest.(check int) "no transits from a network created before" 0
    (Fabric_stats.total_transits late);
  Alcotest.(check bool) "no collision either" true
    (Fabric_stats.port_stat late (s0, 1) = None);
  probe (San_simnet.Network.create g);
  Alcotest.(check int) "a network created after records its transits" 6
    (Fabric_stats.total_transits late);
  Alcotest.(check int) "and its collision" 1
    (Option.get (Fabric_stats.port_stat late (s0, 1))).Fabric_stats.collisions

let test_dot_heat_renders () =
  let g, fabric, _ = storm_fabric () in
  let dot = Dot.to_string ~heat:(Fabric_stats.heat fabric g) g in
  Alcotest.(check bool) "heat map widens wires" true
    (Astring.String.is_infix ~affix:"penwidth" dot);
  Alcotest.(check bool) "heat map colors wires" true
    (Astring.String.is_infix ~affix:"color=" dot)

(* ---------- daemon alerting end to end ---------- *)

let test_daemon_link_cut_alerts () =
  (* The acceptance scenario: a link cut at epoch 2 on the C subcluster
     dips coverage for exactly one epoch, so the daemon raises exactly
     one coverage alert and clears it on the next verified epoch —
     visible both in the typed trace and in the outcome's health
     report. *)
  with_obs @@ fun () ->
  let g, _ = Generators.now_c () in
  let schedule = Result.get_ok (San_service.Schedule.parse "2:cut") in
  let o = Result.get_ok (San_service.Daemon.run ~schedule ~epochs:6 g) in
  let coverage_raised, coverage_cleared =
    List.fold_left
      (fun (r, c) ev ->
        match ev with
        | Trace.Alert_raised { name = "coverage"; epoch } -> (epoch :: r, c)
        | Trace.Alert_cleared { name = "coverage"; epoch } -> (r, epoch :: c)
        | _ -> (r, c))
      ([], [])
      (Trace.events Obs.tracer)
  in
  Alcotest.(check (list int)) "exactly one raise, at the cut epoch" [ 2 ]
    coverage_raised;
  Alcotest.(check (list int)) "cleared on the next verified epoch" [ 3 ]
    coverage_cleared;
  let cov_alerts =
    List.concat_map
      (fun st ->
        if st.Slo.st_objective.Slo.name = "coverage" then st.Slo.st_alerts
        else [])
      o.San_service.Daemon.slo
  in
  (match cov_alerts with
  | [ a ] ->
    Alcotest.(check int) "report raised epoch" 2 a.Slo.raised_epoch;
    Alcotest.(check bool) "report cleared epoch" true
      (a.Slo.cleared_epoch = Some 3);
    Alcotest.(check bool) "worst coverage is a real dip" true
      (a.Slo.worst < 1.0)
  | l ->
    Alcotest.failf "expected one coverage alert in history, got %d"
      (List.length l));
  Alcotest.(check int) "nothing left active" 0
    (List.length
       (List.filter (fun st -> st.Slo.st_alerting) o.San_service.Daemon.slo));
  (* the per-epoch reports carry the same story *)
  let by_epoch e =
    List.find (fun r -> r.San_service.Daemon.epoch = e) o.San_service.Daemon.reports
  in
  Alcotest.(check (list string)) "epoch 2 report flags the raise" [ "coverage" ]
    (by_epoch 2).San_service.Daemon.alerts_raised;
  Alcotest.(check (list string)) "epoch 3 report flags the clear" [ "coverage" ]
    (by_epoch 3).San_service.Daemon.alerts_cleared

let test_daemon_quiet_run_no_alerts () =
  with_obs @@ fun () ->
  let g, _ = Generators.now_c () in
  let o = Result.get_ok (San_service.Daemon.run ~epochs:4 g) in
  Alcotest.(check int) "no alerts on a healthy fabric" 0
    (List.length
       (List.concat_map (fun st -> st.Slo.st_alerts) o.San_service.Daemon.slo));
  Alcotest.(check bool) "no alert events traced" true
    (List.for_all
       (fun ev ->
         match ev with
         | Trace.Alert_raised _ | Trace.Alert_cleared _ -> false
         | _ -> true)
       (Trace.events Obs.tracer));
  (* every warm epoch sampled *)
  Alcotest.(check int) "one sample per warm epoch" 3
    (List.length
       (List.filter
          (fun r -> r.San_service.Daemon.sample <> None)
          o.San_service.Daemon.reports))

(* ---------- sparklines ---------- *)

let test_sparkline_shapes () =
  Alcotest.(check string) "empty series" "" (San_util.Tablefmt.sparkline []);
  Alcotest.(check string) "flat series renders mid-height bars" "▄▄▄"
    (San_util.Tablefmt.sparkline [ 5.0; 5.0; 5.0 ]);
  Alcotest.(check string) "ramp sweeps the glyph range" "▁▃▆█"
    (San_util.Tablefmt.sparkline [ 0.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check string) "width keeps the most recent samples" "▁█"
    (San_util.Tablefmt.sparkline ~width:2 [ 9.0; 9.0; 0.0; 1.0 ])

let () =
  Alcotest.run "telemetry"
    [
      ( "chrome",
        [
          Alcotest.test_case "seeded export is byte-stable" `Quick
            test_chrome_byte_stable;
          Alcotest.test_case "export is valid json" `Quick
            test_chrome_valid_json;
          Alcotest.test_case "every event constructor exports" `Quick
            test_chrome_handles_all_events;
        ] );
      ( "prom",
        [
          Alcotest.test_case "exposition round-trips" `Quick
            test_prom_roundtrip;
          Alcotest.test_case "names sanitized" `Quick test_prom_sanitizes_names;
          Alcotest.test_case "empty registry" `Quick test_prom_empty_registry;
          Alcotest.test_case "gauge overwrite within window" `Quick
            test_prom_gauge_overwrite;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "transit conservation" `Quick
            test_fabric_conservation;
          Alcotest.test_case "link aggregation covers transits" `Quick
            test_fabric_links_cover_transits;
          Alcotest.test_case "global slot wiring" `Quick
            test_fabric_global_slot;
          Alcotest.test_case "network resolves its table once" `Quick
            test_fabric_network_resolves_once;
          Alcotest.test_case "dot heat rendering" `Quick test_dot_heat_renders;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "link cut raises and clears coverage" `Quick
            test_daemon_link_cut_alerts;
          Alcotest.test_case "quiet run stays quiet" `Quick
            test_daemon_quiet_run_no_alerts;
        ] );
      ( "sparkline",
        [ Alcotest.test_case "shapes" `Quick test_sparkline_shapes ] );
    ]
