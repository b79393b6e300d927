(* daemon and health: one run of the epoch-driven control-plane loop,
   printed either as per-epoch reports or as a fabric-health dashboard. *)

open Cmdliner
open San_topology
module Daemon = San_service.Daemon
module Delta = San_service.Delta
module Schedule = San_service.Schedule
module Slo = San_slo.Slo
module Fabric_stats = San_telemetry.Fabric_stats

(* What daemon and health share: the fabric, the fault schedule, the
   background load, the objectives and the outputs. *)
type args = {
  t : Cli.topology;
  epochs : int;
  script : string;  (** --schedule as given, for the dashboard title *)
  schedule : Schedule.t;
  load : San_slo.Load.spec option;
  slos : Slo.objective list;
  retries : int;
  out_dir : string;
  obs : Cli.obs;
}

let resolve_schedule ~epochs schedule scenario =
  match (schedule, scenario) with
  | "", "" -> Ok Schedule.empty
  | _, "" -> Schedule.parse schedule
  | "", _ -> Result.map Schedule.of_list (Schedule.scenario ~epochs scenario)
  | _, _ -> Error "--schedule and --scenario are mutually exclusive"

let resolve_slos slo_str ~load =
  if slo_str = "" then Ok (if load then Slo.defaults else [])
  else
    List.fold_left
      (fun acc s ->
        match (acc, Slo.parse (String.trim s)) with
        | (Error _ as e), _ -> e
        | _, Error e -> Error e
        | Ok l, Ok o -> Ok (l @ [ o ]))
      (Ok [])
      (String.split_on_char ',' slo_str)

let args =
  let epochs =
    let doc = "Number of control-plane epochs to run." in
    Arg.(value & opt (Cli.count ~min:0) 10 & info [ "epochs" ] ~docv:"N" ~doc)
  in
  let schedule =
    let doc =
      "Scripted faults, comma-separated EPOCH:ACTION entries. Actions: cut | \
       cut=N | flap | flap=DOWN_EPOCHS | isolate | add | kill=HOST | \
       kill-leader | revive=HOST | storm=LINKSxHOSTS | upgrade=EPOCHS | \
       partition=EPOCHS | flapstorm=COUNTxEPOCHS. Example: \
       2:cut,5:flap=2,8:kill-leader."
    in
    Arg.(value & opt string "" & info [ "schedule" ] ~docv:"SCRIPT" ~doc)
  in
  let scenario =
    let doc =
      Printf.sprintf
        "Named adversarial schedule preset scaled to the run length: %s. \
         Mutually exclusive with $(b,--schedule)."
        (String.concat ", "
           (List.map (Printf.sprintf "$(b,%s)") Schedule.scenario_names))
    in
    Arg.(value & opt string "" & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let slo =
    let doc =
      "Convergence SLOs to track, comma-separated \
       METRIC:pNN<LIMIT[@MAXLOAD] specs (metrics: converge, epoch, drop, \
       coverage; e.g. converge:p99<2e8@0.3). Default: the built-in \
       objectives when $(b,--load) is on, none otherwise."
    in
    Arg.(value & opt string "" & info [ "slo" ] ~docv:"SPECS" ~doc)
  in
  let retries =
    let doc = "Distribution re-send passes for missed route slices." in
    Arg.(value & opt (Cli.count ~min:0) 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let make t epochs script scenario load lpat slo retries out_dir obs =
    let ( let* ) = Result.bind in
    match
      let* schedule = resolve_schedule ~epochs script scenario in
      let* load = Cli.resolve_load load lpat in
      let* slos = resolve_slos slo ~load:(load <> None) in
      Ok { t; epochs; script; schedule; load; slos; retries; out_dir; obs }
    with
    | Ok a -> a
    | Error e -> failwith ("bad arguments: " ^ e)
  in
  Term.(
    const make $ Cli.topology $ epochs $ schedule $ scenario $ Cli.load
    $ Cli.load_pattern $ slo $ retries $ Cli.out_dir $ Cli.obs_all)

(* The one daemon run: flight recordings (and so the why ledger) under
   --out-dir unless it is empty; [k] prints the outcome and returns the
   exit status. *)
let run ?(force_obs = false) ?(shards = 1) ?on_epoch a k =
  let flight = a.out_dir <> "" in
  Cli.with_obs ~force:(force_obs || flight) a.obs @@ fun () ->
  Cli.with_why flight @@ fun () ->
  if flight then Cli.ensure_dir a.out_dir;
  let config =
    {
      Daemon.default_config with
      Daemon.dist_retries = a.retries;
      seed = a.t.seed;
      shards;
      flight_dir = (if flight then Some a.out_dir else None);
      load = a.load;
      slos = a.slos;
    }
  in
  match
    Daemon.run ~config ~schedule:a.schedule ?on_epoch ~epochs:a.epochs a.t.g
  with
  | Error e ->
    Format.printf "daemon: %s@." e;
    1
  | Ok o -> k o

(* ------------------------------------------------------------------ *)
(* daemon: per-epoch reports and a summary                             *)

let pp_epoch_report (r : Daemon.epoch_report) =
  Format.printf "epoch %3d  %-8s %-13s [%s]  probes %5d  coverage %d/%d%s@."
    r.Daemon.epoch r.Daemon.leader
    (Daemon.verdict_to_string r.Daemon.verdict)
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
  Option.iter
    (fun (l : San_slo.Load.report) ->
      Format.printf
        "           ~ load %s %.2f/host/ms: %d worms, drop %.3f, loss \
         %.4f/crossing@."
        (San_slo.Load.pattern_to_string l.San_slo.Load.r_pattern)
        l.San_slo.Load.r_offered l.San_slo.Load.r_injected
        l.San_slo.Load.r_drop_rate l.San_slo.Load.r_loss_per_crossing)
    r.Daemon.load;
  List.iter
    (fun a ->
      Format.printf "           ! alert raised: %s (epoch %d)@." a r.Daemon.epoch)
    r.Daemon.alerts_raised;
  List.iter
    (fun a ->
      Format.printf "           . alert cleared: %s (epoch %d)@." a r.Daemon.epoch)
    r.Daemon.alerts_cleared

let print_summary a (o : Daemon.outcome) =
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
        "incident: detected epoch %d, resolved epoch %d, converged in %.2f ms \
         simulated@."
        i.Daemon.detected_epoch i.Daemon.resolved_epoch
        (i.Daemon.converge_ns /. 1e6))
    o.Daemon.incidents;
  List.iter (fun st -> Format.printf "slo: %a@." Slo.pp_status st) o.Daemon.slo;
  if a.out_dir <> "" then
    Format.printf "flight recordings under %s/ (read with `san_map \
                   postmortem')@." a.out_dir;
  0

let run_daemon a shards quiet =
  let on_epoch = if quiet then fun _ -> () else pp_epoch_report in
  run ~shards ~on_epoch a (print_summary a)

(* ------------------------------------------------------------------ *)
(* health: the same run as a fabric-health dashboard                   *)

let link_name g ((a, pa), (b, pb)) =
  let name n =
    let s = Graph.name g n in
    if s = "" then Printf.sprintf "sw%d" n else s
  in
  Printf.sprintf "%s:%d -- %s:%d" (name a) pa (name b) pb

let print_dashboard a (o : Daemon.outcome) fabric =
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
  Format.printf "fabric health: %s over %d epochs%s@." a.t.spec
    (List.length o.Daemon.reports)
    (if a.script = "" then "" else Printf.sprintf " (schedule %s)" a.script);
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
          (fun (al : Slo.alert) ->
            row
              [
                string_of_int al.Slo.raised_epoch;
                (match al.Slo.cleared_epoch with
                | Some e -> string_of_int e
                | None -> "ACTIVE");
                Printf.sprintf "%.3f" al.Slo.worst;
              ])
          alerts)
    o.Daemon.slo;
  San_util.Tablefmt.print ~title:"alerts" t;
  match o.Daemon.map with
  | None -> ()
  | Some g ->
    let t =
      San_util.Tablefmt.create
        ~header:
          [ "link"; "transits"; "occupied ms"; "blocked ms"; "coll"; "drops";
            "util" ]
    in
    List.iteri
      (fun i (l : Fabric_stats.link) ->
        if i < 10 then
          San_util.Tablefmt.add_row t
            [
              link_name g l.Fabric_stats.ends;
              string_of_int l.Fabric_stats.l_transits;
              Printf.sprintf "%.3f" (l.Fabric_stats.l_occupied_ns /. 1e6);
              Printf.sprintf "%.3f" (l.Fabric_stats.l_blocked_ns /. 1e6);
              string_of_int l.Fabric_stats.l_collisions;
              string_of_int l.Fabric_stats.l_drops;
              Printf.sprintf "%.2f" l.Fabric_stats.utilization;
            ])
      (Fabric_stats.links fabric g);
    San_util.Tablefmt.print ~title:"hottest links" t

let run_health a dot =
  let fabric = Fabric_stats.create () in
  Fabric_stats.install fabric;
  Fun.protect ~finally:Fabric_stats.uninstall @@ fun () ->
  (* The dashboard reads the in-memory ring and registry directly. *)
  run ~force_obs:true a (fun o ->
      print_dashboard a o fabric;
      (match (dot, o.Daemon.map) with
      | Some f, Some m ->
        Cli.save ~what:"heat map " f
          (Dot.to_string ~graph_name:a.t.spec ~heat:(Fabric_stats.heat fabric m) m)
      | Some f, None -> Format.printf "no map at exit; skipped heat map %s@." f
      | None, _ -> ());
      0)

let daemon =
  let shards =
    let doc =
      "Run full remaps (cold start and stale-map fallback) as $(docv) \
       concurrent sharded mappers instead of one global mapper."
    in
    Arg.(value & opt (Cli.count ~min:1) 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let quiet =
    let doc = "Print only the final summary, not per-epoch reports." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:
         "Run the epoch-driven control-plane daemon over a scripted \
          fault/repair schedule")
    Term.(const run_daemon $ args $ shards $ quiet)

let health =
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run the daemon with fabric telemetry and print a health dashboard \
          (epoch sparklines, alerts, hottest links)")
    Term.(const run_health $ args $ Cli.dot)
