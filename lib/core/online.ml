open San_topology
open San_simnet

type result = {
  map : (Graph.t, string) Stdlib.result;
  probes : int;
  probe_timeouts : int;
  elapsed_ns : float;
  background_injected : int;
  sim : Event_sim.stats;
}

let run ?(policy = Berkeley.faithful) ?(depth = Berkeley.Oracle)
    ?(params = Params.default) ~traffic_per_ms ~rng g ~mapper =
  if not (Graph.is_host g mapper) then
    invalid_arg "Online.run: mapper must be a host";
  let sim = Event_sim.create ~params g in
  let now = ref 0.0 in
  let probes = ref 0 in
  let timeouts = ref 0 in
  let bg_injected = ref 0 in
  (* Background traffic rides the routes a previous epoch installed. *)
  let bg_routes =
    Array.of_list (San_routing.Routes.all (San_routing.Routes.compute g))
  in
  let background =
    San_util.Prng.arrivals rng
      ~mean_gap:
        (if traffic_per_ms <= 0.0 then infinity else 1e6 /. traffic_per_ms)
  in
  let cover_background horizon =
    if Array.length bg_routes > 0 then
      San_util.Prng.arrivals_before background horizon (fun at_ns ->
          let src, _, turns =
            bg_routes.(San_util.Prng.int rng (Array.length bg_routes))
          in
          ignore
            (Event_sim.inject sim ~at_ns ~src ~turns ~payload_bytes:4096 ());
          incr bg_injected)
  in
  let timeout = params.Params.probe_timeout_ns in
  let await wid ~deadline =
    Event_sim.run ~until_ns:deadline sim;
    match Event_sim.outcome sim wid with
    | Event_sim.Delivered { dst; at_ns; _ } when at_ns <= deadline ->
      Some (dst, at_ns)
    | Event_sim.Delivered _ | Event_sim.Pending | Event_sim.Dropped _ -> None
  in
  (* One in-band exchange; returns (terminal host, response time). *)
  let exchange turns =
    incr probes;
    let t0 = !now in
    let deadline = t0 +. timeout in
    cover_background deadline;
    let send_at = t0 +. params.Params.send_overhead_ns in
    let wid = Event_sim.inject sim ~at_ns:send_at ~src:mapper ~turns () in
    match await wid ~deadline with
    | None -> None
    | Some (dst, at) -> Some (dst, at)
  in
  let miss () =
    incr timeouts;
    let cost = params.Params.send_overhead_ns +. timeout in
    now := !now +. cost;
    (Network.Nothing, cost)
  in
  let hit resp ~response_at =
    let cost =
      response_at -. !now +. params.Params.recv_overhead_ns
    in
    now := !now +. cost;
    (resp, cost)
  in
  let sv_host_probe ~turns =
    match exchange turns with
    | None -> miss ()
    | Some (dst, at) -> (
      if not (Graph.is_host g dst) then miss ()
      else begin
        (* The probed host replies over the reversed route. *)
        let reply_turns = List.rev_map (fun a -> -a) turns in
        let reply_at = at +. params.Params.reply_overhead_ns in
        cover_background (!now +. timeout);
        let rid =
          Event_sim.inject sim ~at_ns:reply_at ~src:dst ~turns:reply_turns ()
        in
        match await rid ~deadline:(!now +. timeout) with
        | Some (back, at_reply) when back = mapper ->
          hit (Network.Host (Graph.name g dst)) ~response_at:at_reply
        | Some _ | None -> miss ()
      end)
  in
  let sv_switch_probe ~turns =
    match exchange (Route.switch_probe turns) with
    | Some (dst, at) when dst = mapper -> hit Network.Switch ~response_at:at
    | Some _ | None -> miss ()
  in
  let service =
    {
      Berkeley.sv_radix = Graph.radix g;
      sv_host_probe;
      sv_switch_probe;
    }
  in
  let depth_used =
    match depth with
    | Berkeley.Fixed d -> d
    | Berkeley.Oracle -> Core_set.search_depth g ~root:mapper
  in
  let model =
    Model.create ~mapper_name:(Graph.name g mapper) ~radix:(Graph.radix g)
  in
  let _, _, _ =
    Berkeley.explore_service ~policy ~depth_used ~record_trace:false service
      model
      [ Model.root_switch model ]
  in
  let map = Model.export model in
  (* Let the remaining traffic drain for honest whole-sim statistics. *)
  Event_sim.run sim;
  {
    map;
    probes = !probes;
    probe_timeouts = !timeouts;
    elapsed_ns = !now;
    background_injected = !bg_injected;
    sim = Event_sim.stats sim;
  }
