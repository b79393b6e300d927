open San_topology
open San_simnet
open San_mapper
module D = San_routing.Distribute

type phase = Stable | Verifying | Remapping | Distributing | Degraded

let phase_to_string = function
  | Stable -> "stable"
  | Verifying -> "verifying"
  | Remapping -> "remapping"
  | Distributing -> "distributing"
  | Degraded -> "degraded"

type verdict = Cold_start | Verified | Changed of int | Backing_off | Halted

let verdict_to_string = function
  | Cold_start -> "cold-start"
  | Verified -> "verified"
  | Changed d -> Printf.sprintf "changed(%d)" d
  | Backing_off -> "backing-off"
  | Halted -> "halted"

type incident = {
  detected_epoch : int;
  resolved_epoch : int;
  converge_ns : float;
}

type epoch_report = {
  epoch : int;
  events : string list;
  leader : string;
  elected : bool;
  verdict : verdict;
  phases : phase list;
  probes : int;
  detect_ns : float;
  verify_ns : float;
  remap_ns : float;
  dist : Delta.report option;
  load : San_slo.Load.report option;
  hosts_total : int;
  hosts_covered : int;
  epoch_ns : float;
  sample : San_slo.Slo.sample option;
  alerts_raised : string list;
  alerts_cleared : string list;
}

type outcome = {
  reports : epoch_report list;
  incidents : incident list;
  final_phase : phase;
  map : Graph.t option;
  remaps : int;
  elections : int;
  total_probes : int;
  delta_bytes : int;
  full_bytes : int;
  slo : San_slo.Slo.status list;
}

type config = {
  dist_retries : int;
  params : Params.t;
  policy : Berkeley.policy;
  seed : int;
  shards : int;
  flight_dir : string option;
  load : San_slo.Load.spec option;
  slos : San_slo.Slo.objective list;
}

let default_config =
  {
    dist_retries = 2;
    params = Params.default;
    policy = Berkeley.faithful;
    seed = 1;
    shards = 1;
    flight_dir = None;
    load = None;
    slos = [];
  }

(* A failed epoch sleeps this many epochs, doubling after each further
   failure up to the cap; a Stable epoch resets it. *)
let backoff_start = 1
let backoff_max = 8

(* The daemon's whole memory between epochs. *)
type state = {
  mutable map : Graph.t option;
  mutable table : San_routing.Routes.t option;  (** routes of [map], cached *)
  mutable installed : Delta.tables;
  mutable missing : string list;  (** hosts whose installed slice is stale *)
  mutable phase : phase;
  mutable leader : string option;
  mutable backoff : int;  (** epochs the next failure will sleep *)
  mutable sleep : int;  (** backoff epochs still to sit out *)
  mutable incident_start : int option;
  mutable incident_acc : float;
}

let run ?(config = default_config) ?(schedule = Schedule.empty)
    ?(on_epoch = fun _ -> ()) ~epochs g0 =
  if Graph.hosts g0 = [] then Error "network has no hosts"
  else begin
    let world = World.create g0 in
    let rng = San_util.Prng.create config.seed in
    (* Separate streams so turning load on cannot perturb which wires
       the schedule cuts (and vice versa). *)
    let load_rng = San_util.Prng.create (config.seed lxor 0x10AD) in
    let traffic_rng = San_util.Prng.create (config.seed lxor 0x7AFF1C) in
    let slo = San_slo.Slo.create (San_slo.Slo.health @ config.slos) in
    (* Cumulative simulated clock for the phase timeline: epochs abut,
       each epoch's detect/verify/remap/distribute spans laid end to
       end. *)
    let sim_clock = ref 0.0 in
    let st =
      {
        map = None;
        table = None;
        installed = Delta.empty;
        missing = [];
        phase = Stable;
        leader = None;
        backoff = backoff_start;
        sleep = 0;
        incident_start = None;
        incident_acc = 0.0;
      }
    in
    let reports = ref [] in
    let incidents = ref [] in
    (* Flight recorder plumbing: a bounded recording on every
       transition into Degraded and one more at end of run. *)
    let flight ~name ~note ?epoch () =
      match config.flight_dir with
      | None -> ()
      | Some dir ->
        ignore
          (San_why.Flight.write ~path:(Filename.concat dir name) ~note ?epoch
             ())
    in
    for e = 0 to epochs - 1 do
      let phases = ref [] in
      let goto p =
        if st.phase <> p then begin
          San_obs.Obs.emit
            (San_obs.Trace.Daemon_transition
               {
                 epoch = e;
                 from_ = phase_to_string st.phase;
                 to_ = phase_to_string p;
               });
          if p = Degraded then
            flight
              ~name:(Printf.sprintf "flight-%d.jsonl" e)
              ~note:
                (Printf.sprintf "entered degraded from %s"
                   (phase_to_string st.phase))
              ~epoch:e ();
          st.phase <- p
        end;
        phases := p :: !phases
      in
      let back_off () =
        goto Degraded;
        st.sleep <- st.backoff;
        st.backoff <- min (st.backoff * 2) backoff_max
      in
      (* 1. The world moves, whether the daemon is looking or not. *)
      let events =
        ref
          (Schedule.apply schedule world ~rng
             ~leader:(Option.value ~default:"" st.leader)
             ~epoch:e)
      in
      (* 2. Leadership: sticky while the leader's daemon answers; on
         death the highest-address responding host takes over (§4.2's
         election rule, modelled as its outcome). *)
      let elected = ref false in
      (match st.leader with
      | Some l when not (World.is_down world l) -> ()
      | previous -> (
        match List.rev (World.responding_hosts world) with
        | [] -> st.leader <- None
        | best :: _ ->
          let name = Graph.name (World.graph world) best in
          st.leader <- Some name;
          if previous <> Some name then begin
            elected := true;
            San_obs.Obs.count "daemon.elections";
            events := !events @ [ Printf.sprintf "%s elected leader" name ]
          end));
      let verdict = ref Verified in
      let probes = ref 0 in
      let detect_ns = ref 0.0 in
      let verify_ns = ref 0.0 in
      let remap_ns = ref 0.0 in
      let dist_report = ref None in
      let load_report = ref None in
      (match st.leader with
      | None ->
        goto Degraded;
        verdict := Halted
      | Some _ when st.sleep > 0 ->
        st.sleep <- st.sleep - 1;
        goto Degraded;
        verdict := Backing_off
      | Some leader_name -> (
        let g = World.graph world in
        (* Detection: the leader's liveness sweep — one ping per
           responding daemon before it trusts this epoch's verdict.
           This is the "detect" slice of the phase timeline. *)
        let responding_n = List.length (World.responding_hosts world) in
        detect_ns :=
          float_of_int responding_n
          *. (config.params.Params.send_overhead_ns
             +. config.params.Params.reply_overhead_ns
             +. config.params.Params.recv_overhead_ns);
        (* Background load rides the *installed* table (nothing rides a
           network with no routes yet) and the measured attrition feeds
           the probe network, so verification and remapping genuinely
           contend with the traffic. *)
        (match (config.load, st.table) with
        | Some spec, Some table ->
          load_report :=
            Some
              (San_slo.Load.drive ~rng:load_rng ~params:config.params spec
                 ~table g)
        | _ -> ());
        let traffic =
          Option.bind !load_report (fun r ->
              San_slo.Load.traffic_of_report r traffic_rng)
        in
        let net =
          Network.create ~params:config.params
            ~responding:(World.responding world) ?traffic g
        in
        let mapper = Option.get (Graph.host_by_name g leader_name) in
        (* Full remaps run sharded when configured: N concurrent
           mappers over the San_shard region plan, the wall being the
           slowest shard's simulated time. *)
        let sharded_remap ~discrepancies:_ =
          match
            San_shard.Runner.run ~seed:config.seed ~root:mapper
              ~responding:(World.responding world) ~policy:config.policy
              ~params:config.params ?traffic ~epoch:(e + 1) g
              ~shards:config.shards
          with
          | Error err -> (Error err, 0, 0.0)
          | Ok r ->
            events :=
              !events
              @ [
                  Printf.sprintf "sharded remap: %d shards, coordinator %s"
                    r.San_shard.Runner.plan.San_shard.Region.shards
                    r.San_shard.Runner.coordinator;
                ];
            ( r.San_shard.Runner.map,
              r.San_shard.Runner.total_probes,
              r.San_shard.Runner.wall_ns )
        in
        let remap =
          if config.shards > 1 then Some sharded_remap else None
        in
        (* 3-4. Cheap verification sweep; on change, a patch of the
           map or a full remap. *)
        let map_result =
          match st.map with
          | None ->
            goto Remapping;
            verdict := Cold_start;
            San_obs.Obs.count "daemon.remaps";
            let map, p, ns =
              match remap with
              | Some f -> f ~discrepancies:0
              | None ->
                let r = Berkeley.run ~policy:config.policy net ~mapper in
                (r.Berkeley.map, Berkeley.total_probes r, r.Berkeley.elapsed_ns)
            in
            probes := p;
            remap_ns := ns;
            map
          | Some previous -> (
            goto Verifying;
            let r =
              Incremental.run ~policy:config.policy ?remap net ~mapper
                ~previous
            in
            verify_ns := r.Incremental.verify_elapsed_ns;
            match r.Incremental.verdict with
            | Incremental.Unchanged ->
              verdict := Verified;
              probes := r.Incremental.verify_probes;
              r.Incremental.map
            | Incremental.Changed d ->
              goto Remapping;
              verdict := Changed d;
              San_obs.Obs.count "daemon.remaps";
              probes := r.Incremental.verify_probes + r.Incremental.remap_probes;
              (match r.Incremental.repair with
              | Incremental.Patched lost ->
                events :=
                  !events
                  @ [
                      Printf.sprintf
                        "patched map: %d wire%s lost, re-verified in %d probes"
                        lost
                        (if lost = 1 then "" else "s")
                        r.Incremental.remap_probes;
                    ]
              | Incremental.No_repair | Incremental.Remapped -> ());
              remap_ns :=
                r.Incremental.total_elapsed_ns
                -. r.Incremental.verify_elapsed_ns;
              if st.incident_start = None then begin
                st.incident_start <- Some e;
                st.incident_acc <- 0.0
              end;
              r.Incremental.map)
        in
        match map_result with
        | Error err ->
          (* Keep the stale map; retry after the backoff. *)
          events := !events @ [ "remap failed: " ^ err ];
          back_off ()
        | Ok m ->
          let map_changed =
            match !verdict with
            | Cold_start | Changed _ -> true
            | _ -> st.table = None
          in
          st.map <- Some m;
          (* The cached table is the previous epoch's: every route whose
             walk did not change keeps its cell, and the delta below is
             planned from the pairs that did. *)
          if map_changed then
            st.table <- Some (San_routing.Routes.compute ?previous:st.table m);
          let table = Option.get st.table in
          (* 5-6. Recompute and delta-install routes when the map moved
             or some host still runs a stale table. *)
          if map_changed || st.missing <> [] then begin
            goto Distributing;
            match
              Delta.distribute ~params:config.params
                ~retries:config.dist_retries ?traffic ~installed:st.installed
                table ~actual:g ~leader:mapper
            with
            | Error err ->
              events := !events @ [ "distribution failed: " ^ err ];
              back_off ()
            | Ok rep ->
              dist_report := Some rep;
              st.installed <- rep.Delta.installed;
              let map_of_table = San_routing.Routes.graph table in
              st.missing <-
                List.map
                  (fun n -> Graph.name map_of_table n)
                  rep.Delta.dist.D.missed;
              San_obs.Obs.count ~by:rep.Delta.sent_bytes "daemon.delta_bytes";
              San_obs.Obs.count ~by:rep.Delta.full_sent_bytes
                "daemon.full_bytes";
              if st.missing = [] then begin
                goto Stable;
                st.backoff <- backoff_start
              end
              else back_off ()
          end
          else goto Stable));
      (* Close the books on the epoch. *)
      let dist_ns =
        match !dist_report with
        | Some r -> r.Delta.dist.D.duration_ns
        | None -> 0.0
      in
      let epoch_ns = !verify_ns +. !remap_ns +. dist_ns in
      (* The phase timeline: spans laid end to end on the cumulative
         simulated clock, mirrored into per-phase histograms. *)
      let emit_phase name start dur =
        if dur > 0.0 then begin
          San_obs.Obs.emit
            (San_obs.Trace.Phase_timed
               { epoch = e; phase = name; start_ns = start; dur_ns = dur });
          San_obs.Obs.observe ("daemon.phase." ^ name ^ "_ns") dur
        end
      in
      let t0 = !sim_clock in
      emit_phase "detect" t0 !detect_ns;
      emit_phase "verify" (t0 +. !detect_ns) !verify_ns;
      emit_phase "remap" (t0 +. !detect_ns +. !verify_ns) !remap_ns;
      emit_phase "distribute"
        (t0 +. !detect_ns +. !verify_ns +. !remap_ns)
        dist_ns;
      sim_clock := t0 +. !detect_ns +. epoch_ns;
      if st.incident_start <> None then
        st.incident_acc <- st.incident_acc +. epoch_ns;
      let closed_converge = ref None in
      (match st.incident_start with
      | Some d when st.phase = Stable && st.missing = [] ->
        let inc =
          { detected_epoch = d; resolved_epoch = e; converge_ns = st.incident_acc }
        in
        incidents := inc :: !incidents;
        closed_converge := Some inc.converge_ns;
        San_obs.Obs.observe "daemon.converge_ns" inc.converge_ns;
        st.incident_start <- None;
        st.incident_acc <- 0.0
      | _ -> ());
      let hosts_total =
        match st.map with Some m -> Graph.num_hosts m | None -> 0
      in
      let hosts_covered = max 0 (hosts_total - List.length st.missing) in
      San_obs.Obs.count "daemon.epochs";
      San_obs.Obs.count ~by:!probes "daemon.probes";
      if hosts_total > 0 then
        San_obs.Obs.set_gauge "daemon.coverage"
          (float_of_int hosts_covered /. float_of_int hosts_total);
      if st.phase = Degraded then San_obs.Obs.count "daemon.degraded_epochs";
      (* One alert sample per steady-state epoch. Cold start is
         skipped on purpose — the bootstrap ships every slice by
         definition, and alerting on it would make every run open with
         a spurious incident. *)
      let sample, alerts_raised, alerts_cleared =
        match !verdict with
        | Cold_start -> (None, [], [])
        | _ ->
          let coverage =
            if hosts_total = 0 then 0.0
            else
              match !verdict with
              | Verified when st.missing = [] -> 1.0
              | Changed _ -> (
                (* A detected change means some hosts ran stale routes
                   this epoch, even if the delta repaired them before
                   the books closed: the plan's unchanged count is the
                   honest coverage of the epoch as lived. *)
                match !dist_report with
                | Some rep ->
                  float_of_int rep.Delta.plan.Delta.unchanged_hosts
                  /. float_of_int hosts_total
                | None -> 0.0)
              | Cold_start | Verified | Backing_off | Halted ->
                float_of_int hosts_covered /. float_of_int hosts_total
          in
          let missed_slices, probe_drop_rate =
            match !dist_report with
            | None -> (0, 0.0)
            | Some rep ->
              let missed = rep.Delta.dist.D.hosts_missed in
              let msgs = rep.Delta.dist.D.total_messages in
              ( missed,
                if msgs = 0 then 0.0
                else float_of_int missed /. float_of_int msgs )
          in
          let sample =
            {
              San_slo.Slo.s_epoch = e;
              s_load =
                (match !load_report with
                | Some r -> r.San_slo.Load.r_offered
                | None -> 0.0);
              s_converge_ns = !closed_converge;
              s_epoch_ns = epoch_ns;
              s_drop_rate =
                (match !load_report with
                | Some r -> r.San_slo.Load.r_drop_rate
                | None -> probe_drop_rate);
              s_coverage = coverage;
              s_convergence_epochs =
                (match st.incident_start with
                | Some d -> e - d + 1
                | None -> 0);
              s_missed_slices = missed_slices;
              s_probe_drop_rate = probe_drop_rate;
            }
          in
          let raised, cleared = San_slo.Slo.observe slo sample in
          (Some sample, raised, cleared)
      in
      let report =
        {
          epoch = e;
          events = !events;
          leader = Option.value ~default:"(none)" st.leader;
          elected = !elected;
          verdict = !verdict;
          phases = List.rev !phases;
          probes = !probes;
          detect_ns = !detect_ns;
          verify_ns = !verify_ns;
          remap_ns = !remap_ns;
          dist = !dist_report;
          load = !load_report;
          hosts_total;
          hosts_covered;
          epoch_ns;
          sample;
          alerts_raised;
          alerts_cleared;
        }
      in
      San_obs.Obs.emit
        (San_obs.Trace.Daemon_epoch
           {
             epoch = e;
             verdict = verdict_to_string !verdict;
             leader = Option.value ~default:"(none)" st.leader;
             covered = hosts_covered;
             total = hosts_total;
           });
      on_epoch report;
      reports := report :: !reports
    done;
    flight ~name:"flight-final.jsonl"
      ~note:
        (Printf.sprintf "end of run after %d epochs, final phase %s" epochs
           (phase_to_string st.phase))
      ~epoch:(epochs - 1) ();
    let reports = List.rev !reports in
    let count f = List.length (List.filter f reports) in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
    let dist_sum f = sum (fun r -> Option.fold ~none:0 ~some:f r.dist) in
    Ok
      {
        reports;
        incidents = List.rev !incidents;
        final_phase = st.phase;
        map = st.map;
        remaps =
          count (fun r ->
              match r.verdict with Cold_start | Changed _ -> true | _ -> false);
        elections = count (fun r -> r.elected);
        total_probes = sum (fun r -> r.probes);
        delta_bytes = dist_sum (fun rep -> rep.Delta.sent_bytes);
        full_bytes = dist_sum (fun rep -> rep.Delta.full_sent_bytes);
        slo = San_slo.Slo.status slo;
      }
  end
