open San_topology
module Prng = San_util.Prng

(* Everything expensive is computed lazily and shared between
   properties: one Berkeley run serves iso, deadlock, incremental and
   delta; one Myricom run serves agreement and deadlock. *)
type ctx = {
  case : Fuzz_gen.case;
  mapper : Graph.node option;
  responding : Graph.node -> bool;
  eff : Graph.t Lazy.t;
  depth : int Lazy.t;
  berkeley : (Graph.t, string) result Lazy.t;
  myricom : (Graph.t * int, string) result Lazy.t;
  core_exclude : bool array Lazy.t;
  reach_exclude : bool array Lazy.t;
}

(* The graph as the mapper can possibly see it: silent hosts detached
   (their switch port is indistinguishable from a vacancy). *)
let effective_graph (c : Fuzz_gen.case) ~mapper =
  let eff = Graph.copy c.graph in
  List.iter
    (fun name ->
      match Graph.host_by_name eff name with
      | Some h when Some h <> mapper -> Graph.disconnect eff (h, 0)
      | _ -> ())
    c.silent;
  eff

(* ------------------------------------------------------------------ *)
(* Probe budgets.                                                      *)

(* A correct map explores each switch a few times per level of its
   depth (the replicates reached along longer routes before they
   merge), and one exploration sends at most a switch and a host probe
   on each of its 2 (radix - 1) turns, each retried. A budget is
   [budget_factor] times that. *)
let budget_factor = 100

let probe_budget ?(retries = San_mapper.Berkeley.faithful.San_mapper.Berkeley.retries)
    g ~depth =
  budget_factor * (Graph.num_switches g + 1) * max 1 depth * 4
  * max 1 (Graph.radix g - 1)
  * (1 + retries)

let over_budget ~budget ~sent =
  Printf.sprintf "map stopped at its probe budget of %d probes (%d sent)" budget sent

(* A Berkeley map of [net] at [depth] under its fabric's budget, or an
   [Error] naming the budget when the budget stopped it. *)
let berkeley_run ?(policy = San_mapper.Berkeley.faithful) ~depth net ~mapper =
  let module B = San_mapper.Berkeley in
  let budget =
    probe_budget ~retries:policy.B.retries (San_simnet.Network.graph net) ~depth
  in
  let r = B.run ~policy ~depth:(B.Fixed depth) ~probe_budget:budget net ~mapper in
  let sent = B.total_probes r in
  if sent < budget then Ok r else Error (over_budget ~budget ~sent)

let berkeley_map ?policy ~depth net ~mapper =
  Result.bind (berkeley_run ?policy ~depth net ~mapper) (fun r ->
      r.San_mapper.Berkeley.map)

let map_service g ~mapper ~depth sv =
  let module B = San_mapper.Berkeley in
  let budget = probe_budget g ~depth in
  let sent = ref 0 in
  let counted probe ~turns =
    incr sent;
    probe ~turns
  in
  let sv =
    { sv with
      B.sv_host_probe = counted sv.B.sv_host_probe;
      sv_switch_probe = counted sv.B.sv_switch_probe }
  in
  let model =
    San_mapper.Model.create ~mapper_name:(Graph.name g mapper)
      ~radix:(Graph.radix g)
  in
  ignore
    (B.explore_service ~probe_budget:budget ~policy:B.faithful
       ~depth_used:depth ~record_trace:false sv model
       [ San_mapper.Model.root_switch model ]);
  if !sent < budget then Ok () else Error (over_budget ~budget ~sent:!sent)

let make (case : Fuzz_gen.case) =
  let g = case.graph in
  let mapper = Fuzz_gen.mapper_node case in
  let silent = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace silent n ()) case.silent;
  let responding n =
    Some n = mapper || not (Hashtbl.mem silent (Graph.name g n))
  in
  let eff = lazy (effective_graph case ~mapper) in
  let depth =
    lazy
      (match mapper with
      | None -> 0
      | Some m -> Core_set.search_depth (Lazy.force eff) ~root:m)
  in
  let berkeley =
    lazy
      (match mapper with
      | None -> Error "no mapper host"
      | Some m ->
        let net = San_simnet.Network.create ~responding g in
        berkeley_map ~depth:(Lazy.force depth) net ~mapper:m)
  in
  let myricom =
    lazy
      (match mapper with
      | None -> Error "no mapper host"
      | Some m ->
        (* The depth window is a probe-count heuristic (§4.1); widen it
           past any possible depth so the property exercises the
           algorithm's correctness, not the heuristic's probe budget. *)
        let r =
          San_myricom.Myricom.run ~responding
            ~compare_depth_window:(Graph.num_nodes g) g ~mapper:m
        in
        Result.map
          (fun map -> (map, r.San_myricom.Myricom.false_matches))
          r.San_myricom.Myricom.map)
  in
  let reach_exclude =
    lazy
      (let n = Graph.num_nodes g in
       match mapper with
       | None -> Array.make n true
       | Some m ->
         let dist = Analysis.bfs_distances g m in
         Array.init n (fun v ->
             dist.(v) = max_int
             || (Graph.is_host g v && not (responding v))))
  in
  let core_exclude =
    lazy
      (let sep = Core_set.separated_set (Lazy.force eff) in
       let reach = Lazy.force reach_exclude in
       Array.init (Graph.num_nodes g) (fun v -> sep.(v) || reach.(v)))
  in
  { case; mapper; responding; eff; depth; berkeley; myricom;
    core_exclude; reach_exclude }

(* Deterministic fault for the incremental / delta epochs: a random
   switch-to-switch wire of the case's fabric. *)
let fault_link ctx =
  let g = ctx.case.graph in
  let candidates =
    List.filter
      (fun ((a, _), (b, _)) ->
        (not (Graph.is_host g a)) && not (Graph.is_host g b))
      (Graph.wires g)
  in
  match candidates with
  | [] -> None
  | l ->
    let rng = Prng.create (ctx.case.case_seed lxor 0x0FA17) in
    let (e, _) = List.nth l (Prng.int rng (List.length l)) in
    Some e

let run_berkeley_on ctx g' =
  match ctx.mapper with
  | None -> Error "no mapper host"
  | Some m ->
    let mapper_name = Graph.name ctx.case.graph m in
    (match Graph.host_by_name g' mapper_name with
    | None -> Error "mapper host missing from faulted fabric"
    | Some m' ->
      let case' = { ctx.case with Fuzz_gen.graph = g' } in
      let eff' = effective_graph case' ~mapper:(Some m') in
      let depth' = Core_set.search_depth eff' ~root:m' in
      let responding n =
        n = m'
        || not (List.mem (Graph.name g' n) ctx.case.Fuzz_gen.silent)
      in
      let net = San_simnet.Network.create ~responding g' in
      berkeley_map ~depth:depth' net ~mapper:m')

(* N' - F' of a faulted case, as marks: F', the mapper-unreachable
   region and the case's silent hosts. *)
let exclusion_of ctx (case' : Fuzz_gen.case) =
  let g' = case'.graph in
  match ctx.mapper with
  | None -> Array.make (Graph.num_nodes g') true
  | Some m ->
    let mapper_name = Graph.name ctx.case.graph m in
    (match Graph.host_by_name g' mapper_name with
    | None -> Array.make (Graph.num_nodes g') true
    | Some m' ->
      let eff' = effective_graph case' ~mapper:(Some m') in
      let sep = Core_set.separated_set eff' in
      let dist = Analysis.bfs_distances g' m' in
      let silent n =
        Graph.is_host g' n && n <> m' && List.mem (Graph.name g' n) case'.silent
      in
      Array.init (Graph.num_nodes g') (fun v ->
          sep.(v) || dist.(v) = max_int || silent v))

(* ------------------------------------------------------------------ *)
(* The six properties.                                                 *)

(* 1. The Berkeley map is isomorphic to N - F (Theorem 1), with the
   mapper-unreachable region and silent hosts joining F. *)
let prop_iso ctx =
  match ctx.mapper with
  | None -> Ok ()
  | Some _ -> (
    match Lazy.force ctx.berkeley with
    | Error e -> Error ("berkeley export failed: " ^ e)
    | Ok map ->
      Iso.check ~map ~actual:ctx.case.graph
        ~exclude:(Lazy.force ctx.core_exclude) ())

(* 2. UP*/DOWN* routes computed on either algorithm's map have an
   acyclic channel dependency graph, under both labelings. *)
let prop_deadlock ctx =
  let check name map labeling =
    let table = San_routing.Routes.compute ?labeling map in
    match San_routing.Deadlock.check_routes table with
    | Ok () -> Ok ()
    | Error e -> Error (Printf.sprintf "%s: %s" name e)
  in
  let ( >>= ) r f = Result.bind r f in
  (match Lazy.force ctx.berkeley with
  | Error _ -> Ok () (* prop_iso owns mapping failures *)
  | Ok map ->
    check "berkeley/bfs" map None
    >>= fun () -> check "berkeley/dfs" map (Some San_routing.Updown.Dfs))
  >>= fun () ->
  match Lazy.force ctx.myricom with
  | Error _ -> Ok () (* prop_agreement owns myricom failures *)
  | Ok (_, fm) when fm > 0 -> Ok ()
  | Ok (map, _) -> check "myricom/bfs" map None

(* 3. The Myricom map agrees with the actual fabric (and hence, on
   N - F, with the Berkeley map). Myricom does not prune, so its map
   must cover the entire reachable fabric, pendant switches included.
   Runs with comparison matching through coincidental alternative
   paths excepted (a documented weakness, surfaced as
   [false_matches]). *)
let prop_agreement ctx =
  match ctx.mapper with
  | None -> Ok ()
  | Some _ -> (
    match Lazy.force ctx.myricom with
    | Error e -> Error ("myricom export failed: " ^ e)
    | Ok (_, fm) when fm > 0 -> Ok ()
    | Ok (map, _) ->
      Iso.check ~map ~actual:ctx.case.graph
        ~exclude:(Lazy.force ctx.reach_exclude) ())

(* The fault an incremental epoch repairs, drawn from the case's seed:
   cut a switch-to-switch wire, isolate a switch, or silence a
   responding host other than the mapper. *)
let removal_fault ctx ~mapper =
  let c = ctx.case in
  let g = c.graph in
  let rng = Prng.create (c.case_seed lxor 0x1C4E) in
  let pick l = List.nth l (Prng.int rng (List.length l)) in
  match Prng.int rng 3 with
  | 0 -> (
    match fault_link ctx with
    | None -> c
    | Some e -> { c with graph = Faults.remove_link g e })
  | 1 -> (
    match Graph.switches g with
    | [] -> c
    | l -> { c with graph = Faults.isolate_switch g (pick l) })
  | _ -> (
    match
      List.filter
        (fun h -> h <> mapper && ctx.responding h)
        (Graph.hosts g)
    with
    | [] -> c
    | l -> { c with silent = Graph.name g (pick l) :: c.silent })

(* 4. Incremental repair after a removal (a cut wire, an isolated
   switch or a silenced host) converges to the same map a from-scratch
   run produces: ~ N' - F'. *)
let prop_incremental ctx =
  match (ctx.mapper, Lazy.force ctx.berkeley) with
  | None, _ | _, Error _ -> Ok ()
  | Some m, Ok previous ->
    let case' = removal_fault ctx ~mapper:m in
    let g' = case'.graph in
    let mapper_name = Graph.name ctx.case.graph m in
    (match Graph.host_by_name g' mapper_name with
    | None -> Ok ()
    | Some m' ->
      let responding n =
        n = m' || not (List.mem (Graph.name g' n) case'.silent)
      in
      let net = San_simnet.Network.create ~responding g' in
      (* The full remap a stale map falls back to, at the depth
         [Incremental.run] would use, under the budget. *)
      let remap ~discrepancies:_ =
        let depth = Core_set.search_depth g' ~root:m' in
        match berkeley_run ~depth net ~mapper:m' with
        | Ok r -> San_mapper.Berkeley.(r.map, total_probes r, r.elapsed_ns)
        | Error e -> (Error e, 0, 0.0) (* only the map is read *)
      in
      let r = San_mapper.Incremental.run ~remap net ~mapper:m' ~previous in
      (match r.San_mapper.Incremental.map with
      | Error e -> Error ("incremental map failed: " ^ e)
      | Ok map ->
        (match
           Iso.check ~map ~actual:g' ~exclude:(exclusion_of ctx case') ()
         with
        | Ok () -> Ok ()
        | Error e -> Error ("incremental map not iso to N'-F': " ^ e))))

(* 5. Delta distribution over an installed ledger ends with exactly the
   tables a full redistribution would install. *)
let prop_delta ctx =
  match (ctx.mapper, Lazy.force ctx.berkeley) with
  | None, _ | _, Error _ -> Ok ()
  | Some m, Ok map0 ->
    let mapper_name = Graph.name ctx.case.graph m in
    let module Delta = San_service.Delta in
    let distribute ~installed map =
      match Graph.host_by_name map mapper_name with
      | None -> Error "leader missing from map"
      | Some leader ->
        let table = San_routing.Routes.compute map in
        (match Delta.distribute ~installed table ~actual:map ~leader with
        | Error e -> Error ("distribute failed: " ^ e)
        | Ok r -> Ok (table, r))
    in
    let check_ledger table (r : Delta.report) =
      if r.Delta.dist.San_routing.Distribute.hosts_missed > 0 then Ok ()
        (* contention losses are Distribute's own test surface *)
      else if r.Delta.sent_bytes > r.Delta.full_sent_bytes then
        Error
          (Printf.sprintf "delta shipped %dB > full %dB" r.Delta.sent_bytes
             r.Delta.full_sent_bytes)
      else
        let want = Delta.of_routes table in
        let bad =
          List.find_opt
            (fun h ->
              Delta.entries_for r.Delta.installed h <> Delta.entries_for want h)
            (Delta.hosts want)
        in
        match bad with
        | None -> Ok ()
        | Some h ->
          Error
            (Printf.sprintf
               "host %s: installed table differs from a full redistribution" h)
    in
    (match distribute ~installed:San_service.Delta.empty map0 with
    | Error e -> Error ("epoch 1: " ^ e)
    | Ok (table1, r1) -> (
      match check_ledger table1 r1 with
      | Error e -> Error ("epoch 1: " ^ e)
      | Ok () -> (
        (* Epoch 2: fault, remap, delta-distribute over the ledger. *)
        let g' =
          match fault_link ctx with
          | None -> Graph.copy ctx.case.graph
          | Some e -> Faults.remove_link ctx.case.graph e
        in
        match run_berkeley_on ctx g' with
        | Error _ -> Ok () (* prop_incremental owns post-fault mapping *)
        | Ok map1 -> (
          match
            distribute ~installed:r1.San_service.Delta.installed map1
          with
          | Error e -> Error ("epoch 2: " ^ e)
          | Ok (table2, r2) -> (
            match check_ledger table2 r2 with
            | Error e -> Error ("epoch 2: " ^ e)
            | Ok () -> Ok ())))))

(* 6. Per-channel fabric accounting conserves transits under an
   all-pairs storm: every acquired hop lands on exactly one channel. *)
let prop_conservation ctx =
  let g = ctx.case.graph in
  let table = San_routing.Routes.compute g in
  let fabric = San_telemetry.Fabric_stats.create () in
  let sim = San_simnet.Event_sim.create ~fabric g in
  List.iter
    (fun (src, _, turns) ->
      ignore
        (San_simnet.Event_sim.inject sim ~at_ns:0.0 ~src ~turns
           ~payload_bytes:4096 ()))
    (San_routing.Routes.all table);
  San_simnet.Event_sim.run sim;
  let st = San_simnet.Event_sim.stats sim in
  let transits = San_telemetry.Fabric_stats.total_transits fabric in
  if st.San_simnet.Event_sim.in_flight <> 0 then
    Error
      (Printf.sprintf "storm did not drain: %d worms in flight"
         st.San_simnet.Event_sim.in_flight)
  else if transits <> st.San_simnet.Event_sim.hops_acquired then
    Error
      (Printf.sprintf "transit conservation: channels saw %d, worms acquired %d"
         transits st.San_simnet.Event_sim.hops_acquired)
  else Ok ()

(* 7. Provenance: with the ledger on, every entry cites strictly
   earlier entries (the justification DAG is acyclic by construction,
   so we check the construction held), probe citations point at probe
   entries, and every replicate merge resolves to a justification tree
   with at least one probe that actually ran at its leaves. *)
let prop_provenance ctx =
  match ctx.mapper with
  | None -> Ok ()
  | Some m ->
    let module Why = San_why.Why in
    Why.set_enabled true;
    let run, snap =
      Fun.protect
        ~finally:(fun () -> Why.set_enabled false)
        (fun () ->
          let net =
            San_simnet.Network.create ~responding:ctx.responding ctx.case.graph
          in
          let r = berkeley_run ~depth:(Lazy.force ctx.depth) net ~mapper:m in
          (r, Why.capture ()))
    in
    let structural =
      List.fold_left
        (fun acc (did, e) ->
          match (acc, e) with
          | Error _, _ -> acc
          | Ok (), Why.Deduced { probes; deps; _ } ->
            if List.exists (fun p -> p < 0 || p >= did) (probes @ deps) then
              Error (Printf.sprintf "d%d cites a non-earlier entry" did)
            else if
              List.exists
                (fun p ->
                  match Why.entry snap p with
                  | Some (Why.Probe _) -> false
                  | _ -> true)
                probes
            then
              Error
                (Printf.sprintf "d%d cites a non-probe as probe evidence" did)
            else Ok ()
          | Ok (), _ -> Ok ())
        (Ok ()) (Why.entries snap)
    in
    (match (run, structural) with
    | Error e, _ -> Error e
    | _, (Error _ as e) -> e
    | Ok _, Ok () ->
      let memo = Hashtbl.create 256 in
      let rec has_probe did =
        match Hashtbl.find_opt memo did with
        | Some r -> r
        | None ->
          let r =
            match Why.entry snap did with
            | Some (Why.Probe _) -> true
            | Some (Why.Axiom _) | None -> false
            | Some (Why.Deduced { probes; deps; _ }) ->
              probes <> [] || List.exists has_probe deps
          in
          Hashtbl.add memo did r;
          r
      in
      let bad =
        List.find_opt
          (fun (mr : Why.merge_rec) ->
            mr.Why.m_did < 0 || not (has_probe mr.Why.m_did))
          (Why.merges snap)
      in
      match bad with
      | None -> Ok ()
      | Some mr ->
        Error
          (Printf.sprintf
             "merge v%d <- v%d (d%d) has no probe evidence in its \
              justification tree"
             mr.Why.kept mr.Why.absorbed mr.Why.m_did))

(* 8. Sharded mapping agrees with the solo mapper: for every shard
   count, the conflict-resolved union of the per-shard views is
   isomorphic to the same N - F the single Berkeley mapper produces,
   and no view is dropped (quiescent shards never contradict). *)
let prop_shard_agreement ctx =
  match ctx.mapper with
  | None -> Ok ()
  | Some m -> (
    let g = ctx.case.graph in
    let eligible =
      match Graph.wired_ports g m with
      | (_, (s, _)) :: _ -> not (Graph.is_host g s)
      | [] -> false
    in
    if not eligible then Ok () (* the planner declares such mappers out *)
    else
      match Lazy.force ctx.berkeley with
      | Error _ -> Ok () (* prop_iso owns mapping failures *)
      | Ok _ ->
        List.fold_left
          (fun acc shards ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
              match
                San_shard.Runner.run ~seed:ctx.case.case_seed ~root:m
                  ~responding:ctx.responding g ~shards
              with
              | Error e ->
                Error (Printf.sprintf "%d shards: plan failed: %s" shards e)
              | Ok r -> (
                if r.San_shard.Runner.dropped_views <> [] then
                  Error
                    (Printf.sprintf
                       "%d shards: merge dropped views %s on a quiescent run"
                       shards
                       (String.concat ","
                          (List.map string_of_int
                             r.San_shard.Runner.dropped_views)))
                else
                  match r.San_shard.Runner.map with
                  | Error e ->
                    Error
                      (Printf.sprintf "%d shards: merge failed: %s" shards e)
                  | Ok merged -> (
                    match
                      Iso.check ~map:merged ~actual:g
                        ~exclude:(Lazy.force ctx.core_exclude) ()
                    with
                    | Ok () -> Ok ()
                    | Error e ->
                      Error
                        (Printf.sprintf "%d shards: merged map not iso: %s"
                           shards e)))))
          (Ok ())
          [ 1; 2; 4; 8 ])

(* 9. Mapping under live background load agrees with quiescent
   mapping. The case's generated schedule batters a World for a few
   epochs (storms, upgrades, partitions, flaps); on whatever fabric
   survives, a quiescent Berkeley map is the reference, and a second
   run whose probes contend with measured background traffic — the
   per-crossing loss a driven load window produced, with the §6
   retries defence on — must export an isomorphic map. Windows whose
   measured loss exceeds what [retries = 2] provably absorbs (the 8%
   tolerance of the extension tests, halved for margin) are skipped,
   not failed: past that point disagreement is expected, which is
   exactly what the daemon's Degraded state is for. *)
let prop_load_agreement ctx =
  match ctx.mapper with
  | None -> Ok ()
  | Some m ->
    let module World = San_service.World in
    let module Schedule = San_service.Schedule in
    let module Load = San_slo.Load in
    let seed = ctx.case.case_seed in
    let leader = Graph.name ctx.case.graph m in
    let world = World.create ctx.case.graph in
    let srng = Prng.create (seed lxor 0x10AD5) in
    let sched = Schedule.of_list ctx.case.schedule in
    (* Run past the last scheduled epoch so deferred repairs (flap
       restores, upgrade re-plugs) have landed and the fabric is
       steady again. *)
    for epoch = 1 to Schedule.last_epoch sched + 9 do
      ignore (Schedule.apply sched world ~rng:srng ~leader ~epoch)
    done;
    let g' = World.graph world in
    let killed =
      List.filter_map
        (fun h ->
          let n = Graph.name g' h in
          if World.is_down world n then Some n else None)
        (Graph.hosts g')
    in
    let case' =
      { ctx.case with
        Fuzz_gen.graph = g';
        silent = ctx.case.Fuzz_gen.silent @ killed }
    in
    let ctx' = make case' in
    (match (ctx'.mapper, Lazy.force ctx'.berkeley) with
    | None, _ -> Ok () (* the schedule silenced everyone *)
    | _, Error _ -> Ok () (* quiescent failures are prop_iso territory *)
    | Some m', Ok quiescent ->
      match
        Iso.check ~map:quiescent ~actual:g'
          ~exclude:(Lazy.force ctx'.core_exclude) ()
      with
      | Error _ -> Ok () (* ditto: not a load bug *)
      | Ok () ->
        let table = San_routing.Routes.compute quiescent in
        let report =
          Load.drive
            ~rng:(Prng.create (seed lxor 0x10AD5 lxor 0xFF))
            (Load.spec ~pattern:Load.Hotspot 0.5)
            ~table g'
        in
        if report.Load.r_loss_per_crossing > 0.04 then Ok ()
        else
          let traffic =
            Load.traffic_of_report report
              (Prng.create (seed lxor 0x7AFF1C))
          in
          let net =
            San_simnet.Network.create ~responding:ctx'.responding ?traffic
              g'
          in
          (match
             berkeley_map
               ~policy:{ San_mapper.Berkeley.faithful with retries = 2 }
               ~depth:(Lazy.force ctx'.depth) net ~mapper:m'
           with
          | Error e ->
            Error
              (Printf.sprintf
                 "loaded map export failed (loss %.4f/crossing): %s"
                 report.Load.r_loss_per_crossing e)
          | Ok loaded -> (
            match
              Iso.check ~map:loaded ~actual:g'
                ~exclude:(Lazy.force ctx'.core_exclude) ()
            with
            | Ok () -> Ok ()
            | Error e ->
              Error
                (Printf.sprintf
                   "map under load (loss %.4f/crossing, drop %.3f) \
                    disagrees with quiescent map: %s"
                   report.Load.r_loss_per_crossing
                   report.Load.r_drop_rate e))))

(* 10. Route tables are a pure function of the fabric: two
   computations yield byte-identical tables (no hidden rng in the
   default path — spreading is the explicit [?rng] opt-in), and the
   serving plane reproduces the table entry for entry: the same route
   on every routed pair, none on every unreachable one. *)
let prop_routes_deterministic ctx =
  let g = ctx.case.Fuzz_gen.graph in
  let module R = San_routing.Routes in
  let t1 = R.compute g and t2 = R.compute g in
  if R.all t1 <> R.all t2 then
    Error "two route computations differ on one fabric"
  else begin
    let serve = San_routing.Serve.create g in
    let served src dst = San_routing.Serve.lookup serve ~src ~dst in
    let disagree =
      List.filter_map
        (fun (src, dst, turns) ->
          match served src dst with
          | Some t when t = turns -> None
          | _ -> Some (src, dst))
        (R.all t1)
      @ List.filter
          (fun (src, dst) -> served src dst <> None)
          (R.unreachable_pairs t1)
    in
    match disagree with
    | [] -> Ok ()
    | (s, d) :: more ->
      Error
        (Printf.sprintf "served route differs from table at (%d,%d) (+%d more)"
           s d (List.length more))
  end

(* 11. A budget-stopped partial map embeds in N - F: San_cover's
   re-walk check must pass on whatever prefix of the exploration the
   budget bought (the Guillemin-Robert subgraph guarantee holds at
   every stopping point, not just at completion), every confidence
   score stays in [0, 1], and the spend respects the documented
   overshoot bound — the budget gates whole explorations, so it can
   run over by at most one exploration plus the always-exempt turn-0
   root-confirmation probe. *)
let prop_partial_subgraph ctx =
  match ctx.mapper with
  | None -> Ok ()
  | Some m -> (
    match Lazy.force ctx.berkeley with
    | Error _ -> Ok () (* prop_iso owns full-map failures *)
    | Ok _ ->
      let g = ctx.case.graph in
      let frac = if ctx.case.case_seed land 1 = 0 then 0.3 else 0.6 in
      let net = San_simnet.Network.create ~responding:ctx.responding g in
      match
        San_cover.Cover.run
          ~depth:(San_mapper.Berkeley.Fixed (Lazy.force ctx.depth))
          ~record_trace:false
          ~effective:(Lazy.force ctx.eff)
          ~budget:(San_cover.Cover.Frac frac) net ~mapper:m
      with
      | Error e -> Error ("cover run failed: " ^ e)
      | Ok rep -> (
        match rep.San_cover.Cover.r_subgraph with
        | Error e ->
          Error
            (Printf.sprintf "budget %g: partial map does not embed in N - F: %s"
               frac e)
        | Ok () ->
          let retries = San_mapper.Berkeley.faithful.San_mapper.Berkeley.retries in
          (* One exploration (2(radix-1) turns, two probes per turn,
             retried) plus the exempt turn-0 root confirmation. *)
          let overshoot =
            (4 * (Graph.radix g - 1) * (1 + retries)) + (1 + retries)
          in
          let limit = rep.San_cover.Cover.r_probe_limit + overshoot in
          if rep.San_cover.Cover.r_probes_used > limit then
            Error
              (Printf.sprintf
                 "budget %g: spent %d probes, over the %d limit + %d overshoot \
                  bound"
                 frac rep.San_cover.Cover.r_probes_used
                 rep.San_cover.Cover.r_probe_limit overshoot)
          else
            let bad_conf =
              List.find_opt
                (fun (e : San_cover.Cover.element) ->
                  e.San_cover.Cover.el_conf < 0.0
                  || e.San_cover.Cover.el_conf > 1.0
                  || Float.is_nan e.San_cover.Cover.el_conf)
                (San_cover.Cover.elements rep)
            in
            (match bad_conf with
            | Some e ->
              Error
                (Printf.sprintf "element %s has confidence %g outside [0, 1]"
                   e.San_cover.Cover.el_label e.San_cover.Cover.el_conf)
            | None -> Ok ())))

(* [g] with its node ids permuted: the same names, kinds and wires. *)
let renumber ~rng g =
  let order = Array.init (Graph.num_nodes g) Fun.id in
  Prng.shuffle rng order;
  let g' = Graph.create ~radix:(Graph.radix g) () in
  let id = Array.make (Graph.num_nodes g) (-1) in
  Array.iter
    (fun n ->
      let name = Graph.name g n in
      id.(n) <-
        (if Graph.is_host g n then Graph.add_host g' ~name
         else Graph.add_switch g' ~name ()))
    order;
  List.iter
    (fun ((a, pa), (b, pb)) -> Graph.connect g' (id.(a), pa) (id.(b), pb))
    (Graph.wires g);
  g'

(* The first way two tables of [g] differ: [all], the unreachable
   pairs, [iter]'s order, or [route] on some node pair (ids just
   outside the graph included). *)
let table_difference g a b =
  let module R = San_routing.Routes in
  let visits t =
    let acc = ref [] in
    R.iter t (fun src dst turns -> acc := (src, dst, turns) :: !acc);
    !acc
  in
  if R.all a <> R.all b then Some "all"
  else if R.unreachable_pairs a <> R.unreachable_pairs b then
    Some "unreachable pairs"
  else if visits a <> visits b then Some "iter order"
  else
    let n = Graph.num_nodes g and bad = ref None in
    for src = -1 to n do
      for dst = -1 to n do
        if !bad = None && R.route a ~src ~dst <> R.route b ~src ~dst then
          bad := Some (Printf.sprintf "route %d->%d" src dst)
      done
    done;
    !bad

(* [g] with one cable end moved to a free port of the same switch: the
   same wires but for one port, so the walks keep their exits and
   a destination may keep its anchor but not its cable port. *)
let replug ~rng g =
  let moves =
    List.concat_map
      (fun (a, b) ->
        List.concat_map
          (fun ((n, p), far) ->
            if Graph.is_host g n then []
            else List.map (fun p' -> ((n, p), p', far)) (Graph.free_ports g n))
          [ (a, b); (b, a) ])
      (Graph.wires g)
  in
  match moves with
  | [] -> Graph.copy g
  | l ->
    let (n, p), p', far = List.nth l (Prng.int rng (List.length l)) in
    let g = Graph.copy g in
    Graph.disconnect g (n, p);
    Graph.connect g (n, p') far;
    g

(* [g] with the far ends of two cables swapped: every port stays
   wired, but two of them lead elsewhere. *)
let swap_ends ~rng g =
  match Graph.wires g with
  | [] | [ _ ] -> Graph.copy g
  | l ->
    let w = Array.of_list l in
    Prng.shuffle rng w;
    let (a, b), (c, d) = (w.(0), w.(1)) in
    let g = Graph.copy g in
    Graph.disconnect g a;
    Graph.disconnect g c;
    Graph.connect g a d;
    Graph.connect g c b;
    g

(* The previous epoch's orientation (another root, a DFS labelling,
   each in half the cases) and the next epoch's fabric. *)
let routes_epoch ctx =
  let g = ctx.case.graph in
  let rng = Prng.create (ctx.case.case_seed lxor 0x5EED) in
  let pick l = List.nth l (Prng.int rng (List.length l)) in
  let root =
    if Graph.num_nodes g > 0 && Prng.bool rng then
      Some (Prng.int rng (Graph.num_nodes g))
    else None
  in
  let labeling = if Prng.bool rng then Some San_routing.Updown.Dfs else None in
  let g' =
    match Prng.int rng 6 with
    | 0 -> (
      match fault_link ctx with
      | None -> Graph.copy g
      | Some e -> Faults.remove_link g e)
    | 1 -> (
      match Graph.switches g with
      | [] -> Graph.copy g
      | l -> Faults.isolate_switch g (pick l))
    | 2 -> (
      match Graph.hosts g with
      | [] -> Graph.copy g
      | l ->
        let gone = pick l in
        Graph.induced g ~keep:(fun n -> n <> gone))
    | 3 -> (
      match Faults.add_random_link ~rng g with
      | None -> Graph.copy g
      | Some g' -> g')
    | 4 -> replug ~rng g
    | _ -> swap_ends ~rng g
  in
  (root, labeling, if Prng.bool rng then renumber ~rng g' else g')

(* 12. Routes that persist across epochs: after a seed-drawn change to
   the fabric (a cut wire, an isolated switch, a host gone from the
   map, an added cable, a cable end moved to a free port or two cables'
   far ends swapped; in half the cases with every node id renumbered,
   in half with the previous table oriented from another root, and in
   half with it labelled depth-first), the table compiled against the
   previous one is the from-scratch table byte for byte, and a delta
   plan read off its changed pairs (then a second plan over the
   advanced ledger, where missed rows are patched) equals the plan
   that compares every pair, as does the advanced ledger. Routing does
   not depend on Theorem 1, so the fault is applied to the fabric
   itself. *)
let prop_incremental_routes ctx =
  let g = ctx.case.graph in
  let root, labeling, g' = routes_epoch ctx in
  if Graph.num_nodes g = 0 || Graph.num_nodes g' = 0 then Ok ()
  else begin
    let module R = San_routing.Routes in
    let module Delta = San_service.Delta in
    let previous = R.compute ?root ?labeling g in
    let table = R.compute ~previous g' and scratch = R.compute g' in
    match table_difference g' table scratch with
    | Some what ->
      Error ("table compiled against the previous one differs in " ^ what)
    | None -> (
      match List.rev (Graph.hosts g') with
      | [] -> Ok ()
      | leader :: _ -> (
        let same_ledger a b =
          Delta.hosts a = Delta.hosts b
          && List.for_all
               (fun h -> Delta.entries_for a h = Delta.entries_for b h)
               (Delta.hosts b)
        in
        let installed = Delta.of_routes previous in
        if Delta.plan ~installed table <> Delta.plan ~installed scratch then
          Error "delta plan from the changed pairs differs"
        else
          match
            ( Delta.distribute ~installed table ~actual:g' ~leader,
              Delta.distribute ~installed scratch ~actual:g' ~leader )
          with
          | Ok r, Ok r' ->
            if
              r.Delta.plan <> r'.Delta.plan
              || r.Delta.dist <> r'.Delta.dist
              || r.Delta.sent_bytes <> r'.Delta.sent_bytes
            then Error "distribution from the changed pairs differs"
            else if not (same_ledger r.Delta.installed r'.Delta.installed) then
              Error "ledger advanced from the changed pairs differs"
            else if
              Delta.plan ~installed:r.Delta.installed table
              <> Delta.plan ~installed:r'.Delta.installed scratch
            then Error "re-plan over the advanced ledger differs"
            else Ok ()
          | Error e, Error e' when e = e' -> Ok ()
          | Error e, _ | _, Error e -> Error ("distribution: " ^ e)))
  end

(* Every probe a map sends answers as it would on a network that has
   sent nothing before. A mapper's probes share long turn prefixes, so
   its network keeps walks and channel stamps from one probe to the
   next; each probe is replayed as it is sent on a freshly created
   network, where nothing can be kept, and must get the same response
   and cost. The first difference stops the map, before a wrong answer
   can lead the mapper astray. The map runs twice on one network with
   a wire of the fabric cut in between, so walks kept across an edit
   are replayed too. *)
let prop_probe_replay ctx =
  match ctx.mapper with
  | None -> Ok ()
  | Some m -> (
    let module B = San_mapper.Berkeley in
    let module Net = San_simnet.Network in
    let exception Differs of string in
    let g = Graph.copy ctx.case.graph in
    let net = Net.create ~responding:ctx.responding g in
    let epoch = ref "first map" in
    let replayed ~host turns r =
      let fresh = Net.create ~responding:ctx.responding g in
      if (if host then Net.host_probe else Net.switch_probe) fresh ~src:m ~turns
         <> r
      then
        raise
          (Differs
             (Printf.sprintf
                "%s probe %s (%s) answers otherwise on a fresh network"
                (if host then "host" else "switch")
                (San_simnet.Route.to_string turns) !epoch));
      r
    in
    let sv = B.service_of_network net ~mapper:m in
    let sv =
      { sv with
        B.sv_host_probe =
          (fun ~turns -> replayed ~host:true turns (sv.B.sv_host_probe ~turns));
        sv_switch_probe =
          (fun ~turns ->
            replayed ~host:false turns (sv.B.sv_switch_probe ~turns)) }
    in
    let map () =
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" !epoch e)
        (map_service g ~mapper:m ~depth:(Lazy.force ctx.depth) sv)
    in
    try
      Result.bind (map ()) (fun () ->
          match fault_link ctx with
          | None -> Ok ()
          | Some e ->
            Graph.disconnect g e;
            epoch := "after a cut";
            map ())
    with Differs e -> Error e)

(* ------------------------------------------------------------------ *)

let all =
  [
    ("iso", prop_iso);
    ("deadlock", prop_deadlock);
    ("agreement", prop_agreement);
    ("incremental", prop_incremental);
    ("delta", prop_delta);
    ("conservation", prop_conservation);
    ("provenance", prop_provenance);
    ("shard_agreement", prop_shard_agreement);
    ("load_agreement", prop_load_agreement);
    ("routes_deterministic", prop_routes_deterministic);
    ("partial_subgraph", prop_partial_subgraph);
  ]

let names = List.map fst all

let opt_in =
  [
    ("incremental_routes", prop_incremental_routes);
    ("probe_replay", prop_probe_replay);
  ]

let find name =
  match List.assoc_opt name all with
  | Some _ as p -> p
  | None -> List.assoc_opt name opt_in

(* Exceptions are counterexamples too: a property must never crash on
   a fabric the generator can produce. *)
let run name case =
  match find name with
  | None -> invalid_arg ("San_check.Props.run: unknown property " ^ name)
  | Some f -> (
    let ctx = make case in
    try f ctx with
    | exn -> Error ("exception: " ^ Printexc.to_string exn))
