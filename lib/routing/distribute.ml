open San_topology

type slice = { owner : Graph.node; entries : int; bytes : int }

type plan = { slices : slice list; total_bytes : int }

(* Encoding budget per route entry: a 2-byte destination id, a 1-byte
   length, one byte per turn. *)
let entry_bytes_of_length len = 3 + len
let entry_bytes turns = entry_bytes_of_length (List.length turns)

(* Each host's slice summed from its cells' lengths, nothing decoded. *)
let plan table =
  let hosts = Graph.hosts (Routes.graph table) in
  let cells = Routes.cells table in
  let slice src =
    let entries = ref 0 and bytes = ref 0 in
    List.iter
      (fun dst ->
        let len = Cell.length cells (Routes.cell table ~src ~dst) in
        if len >= 0 then begin
          incr entries;
          bytes := !bytes + entry_bytes_of_length len
        end)
      hosts;
    { owner = src; entries = !entries; bytes = !bytes }
  in
  let slices = List.filter (fun s -> s.entries > 0) (List.map slice hosts) in
  { slices; total_bytes = List.fold_left (fun a s -> a + s.bytes) 0 slices }

type report = {
  hosts_updated : int;
  hosts_missed : int;
  duration_ns : float;
  total_messages : int;
  attempts : int;
  missed : Graph.node list;
}

let simulate_slices_inner ~params ~retries ~traffic table ~actual ~leader
    ~slices =
  let map = Routes.graph table in
  match Graph.host_by_name map (Graph.name actual leader) with
  | None -> Error "leader is not in the route table's graph"
  | Some leader_m ->
    let src =
      Option.get (Graph.host_by_name actual (Graph.name map leader_m))
    in
    (* Resolve each slice to a worm once: a slice without a compliant
       route from the leader, or whose owner has left the actual
       network, is structurally undeliverable and never retried. The
       leader's own slice is installed locally and needs no worm. *)
    let deliverable, skipped =
      List.partition_map
        (fun (owner, bytes) ->
          match
            ( Routes.route table ~src:leader_m ~dst:owner,
              Graph.host_by_name actual (Graph.name map owner) )
          with
          | Some turns, Some _ -> Either.Left (owner, turns, bytes)
          | _ -> Either.Right owner)
        (List.filter (fun (owner, _) -> owner <> leader_m) slices)
    in
    let pending = ref deliverable in
    let delivered = ref 0 in
    let messages = ref 0 in
    let clock = ref 0.0 in
    let attempts = ref 0 in
    while !pending <> [] && !attempts <= retries do
      incr attempts;
      let sim = San_simnet.Event_sim.create ~params actual in
      let t = ref 0.0 in
      let sent =
        List.map
          (fun (owner, turns, bytes) ->
            t := !t +. params.San_simnet.Params.send_overhead_ns;
            let wid =
              San_simnet.Event_sim.inject sim ~at_ns:!t ~src ~turns
                ~payload_bytes:bytes ()
            in
            (owner, turns, bytes, wid))
          !pending
      in
      messages := !messages + List.length sent;
      San_simnet.Event_sim.run sim;
      let missed = ref [] in
      let last = ref 0.0 in
      (* The event simulator already accounts for contention among the
         distribution worms themselves; [traffic] is the load the fabric
         carries underneath them. *)
      List.iter
        (fun (owner, turns, bytes, wid) ->
          match San_simnet.Event_sim.outcome sim wid with
          | San_simnet.Event_sim.Delivered { at_ns; _ }
            when San_simnet.Network.survives traffic
                   ~crossings:(List.length turns + 1) ->
            incr delivered;
            last := Float.max !last at_ns
          | _ -> missed := (owner, turns, bytes) :: !missed)
        sent;
      let pass_end =
        if !missed = [] then !last
        else
          Float.max !last
            (San_simnet.Event_sim.stats sim)
              .San_simnet.Event_sim.finished_at_ns
      in
      clock := !clock +. pass_end;
      pending := List.rev !missed
    done;
    let missed = List.map (fun (owner, _, _) -> owner) !pending @ skipped in
    Ok
      {
        hosts_updated = !delivered;
        hosts_missed = List.length missed;
        duration_ns = !clock;
        total_messages = !messages;
        attempts = !attempts;
        missed;
      }

let simulate_slices ?(params = San_simnet.Params.default) ?(retries = 2)
    ?traffic table ~actual ~leader ~slices =
  San_obs.Obs.with_span "routes.distribute" (fun () ->
      let r =
        simulate_slices_inner ~params ~retries ~traffic table ~actual ~leader
          ~slices
      in
      (if San_obs.Obs.on () then
         match r with
         | Ok rep ->
           let bytes = List.fold_left (fun a (_, b) -> a + b) 0 slices in
           San_obs.Obs.count ~by:(List.length slices) "routes.slices";
           San_obs.Obs.count ~by:rep.hosts_updated "routes.hosts_updated";
           San_obs.Obs.count ~by:rep.hosts_missed "routes.hosts_missed";
           (* [attempts] stays 0 when no slice was deliverable (leader-
              only table, every host skipped), so clamp: a pass that
              never ran is zero retries, not -1. *)
           San_obs.Obs.count
             ~by:(max 0 (rep.attempts - 1))
             "routes.retry_passes";
           San_obs.Obs.emit
             (San_obs.Trace.Routes_distributed
                { slices = List.length slices; bytes })
         | Error _ -> San_obs.Obs.count "routes.distribute_failures");
      r)

let simulate table ~actual ~leader =
  simulate_slices table ~actual ~leader
    ~slices:(List.map (fun s -> (s.owner, s.bytes)) (plan table).slices)
