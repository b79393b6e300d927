(* The SLO observatory and alert engine: load-window coupling,
   burn-rate alerts raising and clearing under a scripted load ramp,
   and the fabric-health rules as one-epoch-window objectives. *)

open San_slo

let close ?(rel = 0.10) msg expected got =
  let ok = Float.abs (got -. expected) <= rel *. Float.abs expected in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected ~%g, got %g" msg expected got)
    true ok

(* ------------------------------------------------------------------ *)
(* SLO burn rate under a scripted ramp                                 *)

let sample ?(epoch = 0) ?(load = 0.1) ?converge ?(epoch_ns = 1e6)
    ?(drop = 0.0) ?(coverage = 1.0) ?(convergence = 0) ?(missed = 0)
    ?(probe_drop = 0.0) () =
  {
    Slo.s_epoch = epoch;
    s_load = load;
    s_converge_ns = converge;
    s_epoch_ns = epoch_ns;
    s_drop_rate = drop;
    s_coverage = coverage;
    s_convergence_epochs = convergence;
    s_missed_slices = missed;
    s_probe_drop_rate = probe_drop;
  }

let test_burn_raise_and_clear () =
  (* p50 drop-rate objective (budget 0.5), 10-epoch window, raise
     after 2 sustained burning epochs: a load ramp pushes the bad
     fraction past half the window, the alert raises once burn has
     held >= 1.0 for two epochs, and clears when the ramp backs off
     and the bad epochs age out of the window. *)
  let o =
    Slo.objective ~name:"drop" ~quantile:0.5 ~window:10 ~for_epochs:2
      ~metric:Slo.Drop_rate ~cmp:Slo.Below 0.2
  in
  let t = Slo.create [ o ] in
  let feed epoch drop = Slo.observe t (sample ~epoch ~drop ()) in
  (* Healthy epochs: no alert. *)
  for e = 0 to 3 do
    let raised, cleared = feed e 0.05 in
    Alcotest.(check (list string)) "healthy: nothing raised" [] raised;
    Alcotest.(check (list string)) "healthy: nothing cleared" [] cleared
  done;
  (* The ramp: drops breach the limit every epoch. Burn only reaches
     1.0 once half the window is bad (epoch 7: 4/8 bad against the
     50% budget) and must sustain [for_epochs] before raising. *)
  for e = 4 to 7 do
    let raised, _ = feed e 0.9 in
    Alcotest.(check (list string))
      (Printf.sprintf "epoch %d: not yet" e)
      [] raised
  done;
  let raised, _ = feed 8 0.9 in
  Alcotest.(check (list string)) "second burning epoch raises"
    [ "drop" ] raised;
  let st = List.hd (Slo.status t) in
  Alcotest.(check bool) "alerting" true st.Slo.st_alerting;
  Alcotest.(check bool)
    (Printf.sprintf "burning (%.2f)" st.Slo.st_burn_rate)
    true (st.Slo.st_burn_rate >= 1.0);
  (* Re-raising while active would be alert spam. *)
  let raised, _ = feed 9 0.9 in
  Alcotest.(check (list string)) "no re-raise while active" [] raised;
  (* Back off: bad epochs age out of the window until burn < 1. *)
  let cleared = ref [] in
  for e = 10 to 25 do
    let _, c = feed e 0.05 in
    cleared := !cleared @ c
  done;
  Alcotest.(check (list string)) "recovery clears" [ "drop" ] !cleared;
  let st = List.hd (Slo.status t) in
  Alcotest.(check bool) "not alerting after clear" false st.Slo.st_alerting

let test_max_load_exempts () =
  (* Epochs above the objective's load contract are never charged. *)
  let o =
    Slo.objective ~name:"drop" ~quantile:0.5 ~max_load:0.3 ~window:10
      ~for_epochs:1 ~metric:Slo.Drop_rate ~cmp:Slo.Below 0.2
  in
  let t = Slo.create [ o ] in
  for e = 0 to 5 do
    let raised, _ =
      Slo.observe t (sample ~epoch:e ~load:2.0 ~drop:0.99 ())
    in
    Alcotest.(check (list string)) "over-contract epochs exempt" [] raised
  done;
  let st = List.hd (Slo.status t) in
  Alcotest.(check int) "nothing eligible" 0 st.Slo.st_eligible

let test_converge_charged_only_on_incidents () =
  let o =
    Slo.objective ~name:"cvg" ~quantile:0.5 ~window:10 ~for_epochs:1
      ~metric:Slo.Converge_ns ~cmp:Slo.Below 100.0
  in
  let t = Slo.create [ o ] in
  (* Quiet epochs carry no incident: not eligible. *)
  for e = 0 to 4 do
    ignore (Slo.observe t (sample ~epoch:e ()))
  done;
  Alcotest.(check int) "quiet epochs not charged" 0
    (List.hd (Slo.status t)).Slo.st_eligible;
  let raised, _ = Slo.observe t (sample ~epoch:5 ~converge:500.0 ()) in
  Alcotest.(check (list string)) "slow incident raises" [ "cvg" ] raised

let test_coverage_is_lower_bound () =
  let o =
    Slo.objective ~name:"cov" ~quantile:0.5 ~window:10 ~for_epochs:1
      ~metric:Slo.Coverage ~cmp:Slo.Above 0.5
  in
  let t = Slo.create [ o ] in
  let raised, _ = Slo.observe t (sample ~coverage:0.2 ()) in
  Alcotest.(check (list string)) "low coverage raises" [ "cov" ] raised

let test_parse_roundtrip () =
  List.iter
    (fun s ->
      match Slo.parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok o ->
        Alcotest.(check string)
          (Printf.sprintf "roundtrip %S" s)
          s (Slo.to_string o))
    [ "converge:p99<2e+08@0.3"; "drop:p95<0.25"; "coverage:p90>0.8" ];
  List.iter
    (fun s ->
      match Slo.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse %S should have failed" s)
    [
      ""; "converge"; "converge:p0<1"; "bogus:p95<1"; "drop:p95!0.2";
      "converge:p99<nan"; "converge:p99<inf"; "converge:p99<1e8@nan";
    ];
  (* The ship-with defaults round-trip through the grammar too. *)
  List.iter
    (fun o ->
      match Slo.parse (Slo.to_string o) with
      | Error e -> Alcotest.failf "default %S: %s" (Slo.to_string o) e
      | Ok o' ->
        Alcotest.(check string) "default roundtrips" (Slo.to_string o)
          (Slo.to_string o'))
    Slo.defaults

(* ------------------------------------------------------------------ *)
(* Health rules: threshold-for-N-epochs as one-epoch windows           *)

let rule ?(quantile = 0.5) ?(for_epochs = 1) name metric cmp limit =
  Slo.objective ~name ~quantile ~window:1 ~for_epochs ~metric ~cmp limit

let alerting t = List.filter (fun st -> st.Slo.st_alerting) (Slo.status t)

let test_health_for_epochs_streak () =
  (* a for_epochs=2 rule ignores a single bad epoch but fires on the
     streak, and clears on the first good epoch *)
  let t =
    Slo.create [ rule ~for_epochs:2 "drops" Slo.Probe_drop_rate Slo.Below 0.25 ]
  in
  let feed epoch drop = Slo.observe t (sample ~epoch ~probe_drop:drop ()) in
  let r1, c1 = feed 1 0.5 in
  Alcotest.(check (list string)) "one bad epoch is weather" [] r1;
  Alcotest.(check (list string)) "nothing to clear" [] c1;
  let r2, _ = feed 2 0.0 in
  Alcotest.(check (list string)) "streak broken, still quiet" [] r2;
  let _ = feed 3 0.5 in
  let r4, _ = feed 4 0.6 in
  Alcotest.(check (list string)) "second consecutive breach raises"
    [ "drops" ] r4;
  Alcotest.(check int) "alert is active" 1 (List.length (alerting t));
  let r5, c5 = feed 5 0.7 in
  Alcotest.(check (list string)) "no re-raise while active" [] r5;
  Alcotest.(check (list string)) "not cleared while breaching" [] c5;
  let _, c6 = feed 6 0.0 in
  Alcotest.(check (list string)) "first good epoch clears" [ "drops" ] c6;
  Alcotest.(check int) "no active alerts left" 0 (List.length (alerting t));
  match (List.hd (Slo.status t)).Slo.st_alerts with
  | [ a ] ->
    Alcotest.(check int) "raised on the streak's second epoch" 4
      a.Slo.raised_epoch;
    Alcotest.(check bool) "cleared at 6" true (a.Slo.cleared_epoch = Some 6);
    Alcotest.(check (float 1e-9)) "worst value tracked" 0.7 a.Slo.worst
  | l -> Alcotest.failf "expected one alert in history, got %d" (List.length l)

let test_health_below_rule_and_window () =
  (* the quantile only scales a breach's burn: p99 alerts on the same
     epochs as p50 *)
  let t =
    Slo.create [ rule ~quantile:0.99 "coverage" Slo.Coverage Slo.Above 1.0 ]
  in
  let r1, _ = Slo.observe t (sample ~epoch:1 ~coverage:0.8 ()) in
  Alcotest.(check (list string)) "below threshold raises immediately"
    [ "coverage" ] r1;
  let _, c2 = Slo.observe t (sample ~epoch:2 ~coverage:1.0 ()) in
  Alcotest.(check (list string)) "full coverage clears" [ "coverage" ] c2;
  List.iter (fun e -> ignore (Slo.observe t (sample ~epoch:e ()))) [ 3; 4; 5 ];
  Alcotest.(check int) "window keeps only the trailing epoch" 1
    (List.hd (Slo.status t)).Slo.st_eligible

let test_health_emits_trace_events () =
  San_obs.Obs.set_enabled true;
  San_obs.Obs.reset ();
  Fun.protect ~finally:(fun () -> San_obs.Obs.set_enabled false) @@ fun () ->
  let t = Slo.create [ rule "missed" Slo.Missed_slices Slo.Below 0.0 ] in
  ignore (Slo.observe t (sample ~epoch:7 ~missed:2 ()));
  ignore (Slo.observe t (sample ~epoch:8 ()));
  let evs = San_obs.Trace.events San_obs.Obs.tracer in
  Alcotest.(check bool) "raise hits the tracer" true
    (List.mem (San_obs.Trace.Alert_raised { name = "missed"; epoch = 7 }) evs);
  Alcotest.(check bool) "clear hits the tracer" true
    (List.mem (San_obs.Trace.Alert_cleared { name = "missed"; epoch = 8 }) evs)

(* ------------------------------------------------------------------ *)
(* Load windows on a live graph                                        *)

let test_load_drive_and_coupling () =
  let g, _ = San_topology.Generators.now_cab () in
  let table = San_routing.Routes.compute g in
  let rng = San_util.Prng.create 11 in
  let r = Load.drive ~rng (Load.spec ~pattern:Load.Incast 5.0) ~table g in
  Alcotest.(check bool) "worms injected" true (r.Load.r_injected > 0);
  Alcotest.(check int) "injections accounted" r.Load.r_injected
    (r.Load.r_delivered + r.Load.r_dropped_reset
   + r.Load.r_dropped_bad_route);
  Alcotest.(check bool) "drop rate in [0,1]" true
    (r.Load.r_drop_rate >= 0.0 && r.Load.r_drop_rate <= 1.0);
  Alcotest.(check bool) "loss clamped" true
    (r.Load.r_loss_per_crossing >= 0.0
    && r.Load.r_loss_per_crossing <= 0.5);
  Alcotest.(check int) "latency digest counts deliveries"
    r.Load.r_delivered
    (San_obs.Digest.count r.Load.r_latency);
  match Load.traffic_of_report r (San_util.Prng.create 12) with
  | None ->
    Alcotest.(check bool) "no traffic only when lossless" true
      (r.Load.r_loss_per_crossing = 0.0)
  | Some (p, _) ->
    close ~rel:1e-9 "coupled loss is the measured loss"
      r.Load.r_loss_per_crossing p

let test_daemon_under_load_runs_slos () =
  (* End to end: daemon with background load and the default SLOs;
     every steady-state epoch gets a load report and the outcome
     carries a status per objective. *)
  let g, _ = San_topology.Generators.now_cab () in
  let config =
    {
      San_service.Daemon.default_config with
      San_service.Daemon.seed = 5;
      load = Some (Load.spec ~pattern:Load.Hotspot 1.0);
      slos = Slo.defaults;
    }
  in
  match San_service.Daemon.run ~config ~epochs:5 g with
  | Error e -> Alcotest.failf "daemon: %s" e
  | Ok o ->
    Alcotest.(check int) "one status per objective"
      (List.length Slo.health + List.length Slo.defaults)
      (List.length o.San_service.Daemon.slo);
    let loaded =
      List.filter
        (fun (r : San_service.Daemon.epoch_report) ->
          r.San_service.Daemon.load <> None)
        o.San_service.Daemon.reports
    in
    Alcotest.(check bool) "steady-state epochs drove load" true
      (List.length loaded >= 3)

let () =
  Alcotest.run "san_slo"
    [
      ( "slo",
        [
          Alcotest.test_case "burn raises and clears" `Quick
            test_burn_raise_and_clear;
          Alcotest.test_case "max_load exempts" `Quick test_max_load_exempts;
          Alcotest.test_case "converge charged on incidents" `Quick
            test_converge_charged_only_on_incidents;
          Alcotest.test_case "coverage lower bound" `Quick
            test_coverage_is_lower_bound;
          Alcotest.test_case "spec grammar roundtrips" `Quick
            test_parse_roundtrip;
        ] );
      ( "health",
        [
          Alcotest.test_case "for-epochs streak semantics" `Quick
            test_health_for_epochs_streak;
          Alcotest.test_case "below rule and window bound" `Quick
            test_health_below_rule_and_window;
          Alcotest.test_case "alerts hit the tracer" `Quick
            test_health_emits_trace_events;
        ] );
      ( "load",
        [
          Alcotest.test_case "drive and coupling" `Quick
            test_load_drive_and_coupling;
          Alcotest.test_case "daemon under load" `Slow
            test_daemon_under_load_runs_slos;
        ] );
    ]
