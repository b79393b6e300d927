open San_topology

type response = Switch | Host of string | Nothing

type t = {
  net_graph : Graph.t;
  net_model : Collision.model;
  net_params : Params.t;
  responding : Graph.node -> bool;
  slowdown : float;
  jitter : (float * San_util.Prng.t) option;
  traffic : (float * San_util.Prng.t) option;
  run_bias : float;
  mutable host_probes : int;  (* host and walk probes *)
  mutable host_hits : int;
  mutable switch_probes : int;  (* switch and loop probes *)
  mutable switch_hits : int;
  net_fabric : San_telemetry.Fabric_stats.t option;
      (* resolved once at create; collisions and transits both go here *)
  net_walk : Worm.walk; (* every probe is evaluated into this one walk *)
  net_stamps : Collision.stamps;
}

let create ?(model = Collision.Circuit) ?(params = Params.default)
    ?(responding = fun _ -> true) ?(software_slowdown = 1.0) ?jitter ?traffic
    ?fabric g =
  let run_bias =
    (* Per-run correlated load level: most runs sit within ±frac/2 of
       nominal; roughly one in ten lands on a busy machine and pays up
       to 3*frac more (the skew visible in the paper's max columns). *)
    match jitter with
    | None -> 1.0
    | Some (frac, rng) ->
      let base =
        1.0 +. (0.5 *. frac *. ((2.0 *. San_util.Prng.float rng 1.0) -. 1.0))
      in
      if San_util.Prng.float rng 1.0 < 0.1 then
        base +. (3.0 *. frac *. San_util.Prng.float rng 1.0)
      else base
  in
  {
    net_graph = g;
    net_model = model;
    net_params = params;
    responding;
    slowdown = software_slowdown;
    jitter;
    traffic;
    run_bias;
    host_probes = 0;
    host_hits = 0;
    switch_probes = 0;
    switch_hits = 0;
    net_fabric =
      (match fabric with
      | Some _ as f -> f
      | None -> San_telemetry.Fabric_stats.current ());
    net_walk = Worm.walk ();
    net_stamps = Collision.stamps ();
  }

(* Cross-traffic: a worm survives each wire crossing independently.
   A probe's [crossings] count the full round trip, since the reply
   worm shares the fabric too. *)
let survives traffic ~crossings =
  match traffic with
  | None -> true
  | Some (p, rng) ->
    let q = (1.0 -. p) ** float_of_int crossings in
    San_util.Prng.float rng 1.0 < q

let jittered t cost =
  match t.jitter with
  | None -> cost
  | Some (frac, rng) ->
    cost *. t.run_bias
    *. (1.0 +. (0.5 *. frac *. ((2.0 *. San_util.Prng.float rng 1.0) -. 1.0)))

let graph t = t.net_graph
let params t = t.net_params
let host_probes t = t.host_probes
let host_hits t = t.host_hits
let switch_probes t = t.switch_probes
let switch_hits t = t.switch_hits

let reset_stats t =
  t.host_probes <- 0;
  t.host_hits <- 0;
  t.switch_probes <- 0;
  t.switch_hits <- 0

(* Per-channel accounting for the analytic front end: every wire
   crossing the worm actually made transits the forward channel (the
   hop's exit end); a hit means the reply retraced, transiting each
   reverse channel (the hop's entry end) too. *)
let fabric_transits t ~reply (w : Worm.walk) =
  match t.net_fabric with
  | None -> ()
  | Some f ->
    for j = 0 to w.nhops - 1 do
      San_telemetry.Fabric_stats.transit f (w.exit_node.(j), w.exit_port.(j));
      if reply then
        San_telemetry.Fabric_stats.transit f (w.entry_node.(j), w.entry_port.(j))
    done

(* A blocking self-collision is charged, in the network's own table, to
   the directed channel the head was exiting through when it stepped on
   its tail. *)
let blocked t (w : Worm.walk) j =
  if j < 0 then false
  else begin
    (match t.net_fabric with
    | Some f ->
      San_telemetry.Fabric_stats.collision f (w.exit_node.(j), w.exit_port.(j))
    | None -> ());
    true
  end

let host_blocks t w =
  blocked t w
    (Collision.host_blocking_hop t.net_stamps t.net_model t.net_params w)

let switch_blocks t w ~forward_hops =
  blocked t w
    (Collision.switch_blocking_hop t.net_stamps t.net_model t.net_params
       ~forward_hops w)

let probe_cost_hit t ~hops =
  let p = t.net_params in
  (t.slowdown *. (p.send_overhead_ns +. p.recv_overhead_ns))
  +. (float_of_int hops *. Params.hop_latency_ns p)
  +. p.reply_overhead_ns

let probe_cost_miss t =
  let p = t.net_params in
  (t.slowdown *. p.send_overhead_ns) +. p.probe_timeout_ns

(* Single accounting point for every probe the fabric serves: the
   network's own counters (walk and loop probes count in the host and
   switch columns they occupy on the wire), while the global registry
   and tracer see the finer-grained kind and the cost. *)
let account t ~(kind : San_obs.Trace.probe_kind) ~hit ~cost =
  (match kind with
  | San_obs.Trace.Host | San_obs.Trace.Walk ->
    t.host_probes <- t.host_probes + 1;
    if hit then t.host_hits <- t.host_hits + 1
  | San_obs.Trace.Switch | San_obs.Trace.Loop ->
    t.switch_probes <- t.switch_probes + 1;
    if hit then t.switch_hits <- t.switch_hits + 1);
  if San_obs.Obs.on () then begin
    (match kind with
    | San_obs.Trace.Host | San_obs.Trace.Walk ->
      San_obs.Obs.count "net.host_probes";
      if hit then San_obs.Obs.count "net.host_hits"
    | San_obs.Trace.Switch | San_obs.Trace.Loop ->
      San_obs.Obs.count "net.switch_probes";
      if hit then San_obs.Obs.count "net.switch_hits");
    San_obs.Obs.observe "net.probe_cost_ns" cost;
    San_obs.Obs.emit (San_obs.Trace.Probe_sent { kind; hit; cost_ns = cost })
  end

(* Charge a finished probe: its cost ([hops] wire crossings in all on
   a hit, the timeout otherwise), the channels it crossed (and on a hit
   whose reply retraces its path, their reverse channels), and the
   accounting. *)
let settle t w ~kind ~hit ~hops ~reply =
  let cost =
    jittered t (if hit then probe_cost_hit t ~hops else probe_cost_miss t)
  in
  fabric_transits t ~reply:(hit && reply) w;
  account t ~kind ~hit ~cost;
  cost

let host_probe t ~src ~turns =
  let w = t.net_walk in
  Worm.fill w t.net_graph ~src ~turns ~mirror:false;
  let hit =
    w.stop = Worm.Stop_arrived
    && (not (host_blocks t w))
    && t.responding w.stop_node
    && survives t.traffic ~crossings:(2 * w.nhops)
  in
  (* Round trip: the reply retraces the same number of wire crossings
     in the opposite direction. *)
  let cost =
    settle t w ~kind:San_obs.Trace.Host ~hit ~hops:(2 * w.nhops) ~reply:true
  in
  ((if hit then Host (Graph.name t.net_graph w.stop_node) else Nothing), cost)

let walk_probe t ~src ~turns =
  let w = t.net_walk in
  Worm.fill w t.net_graph ~src ~turns ~mirror:false;
  let hit =
    (match w.stop with
    | Worm.Stop_arrived | Worm.Stop_host_too_soon ->
      (* The §6 firmware tweak: a host the worm reached early reads it
         and answers with its identity and the consumed prefix length. *)
      t.responding w.stop_node
    | Worm.Stop_illegal_turn | Worm.Stop_no_such_wire | Worm.Stop_stranded
    | Worm.Stop_unwired ->
      false)
    && (not (host_blocks t w))
    && survives t.traffic ~crossings:(2 * w.nhops)
  in
  let cost =
    settle t w ~kind:San_obs.Trace.Walk ~hit ~hops:(2 * w.nhops) ~reply:true
  in
  let answer =
    if hit then Some (Graph.name t.net_graph w.stop_node, w.stop_index)
    else None
  in
  (answer, cost)

let loop_probe t ~src ~turns ~turn =
  let w = t.net_walk in
  Worm.fill w t.net_graph ~src ~turns ~mirror:false;
  let re_entry =
    match w.stop with
    | Worm.Stop_stranded ->
      (* The worm's head sits at the stranding switch, which it entered
         through the last hop's entry end. *)
      let sw = w.stop_node in
      let out_port = w.entry_port.(w.nhops - 1) + turn in
      if out_port < 0 || out_port >= Graph.radix t.net_graph then None
      else (
        match Graph.peer t.net_graph sw out_port with
        | Some (peer, q) when peer = sw -> Some (q - out_port)
        | Some _ | None -> None)
    | Worm.Stop_arrived | Worm.Stop_illegal_turn | Worm.Stop_no_such_wire
    | Worm.Stop_host_too_soon | Worm.Stop_unwired ->
      None
  in
  let hops = 2 * (w.nhops + 1) in
  let hit =
    match re_entry with
    | Some _ -> survives t.traffic ~crossings:hops
    | None -> false
  in
  let cost = settle t w ~kind:San_obs.Trace.Loop ~hit ~hops ~reply:true in
  ((if hit then re_entry else None), cost)

let switch_probe t ~src ~turns =
  let w = t.net_walk in
  Worm.fill w t.net_graph ~src ~turns ~mirror:true;
  let hit =
    w.stop = Worm.Stop_arrived
    && w.stop_node = src
    && (not (switch_blocks t w ~forward_hops:(w.route_len + 1)))
    && survives t.traffic ~crossings:w.nhops
  in
  (* A loopback probe's route already contains its own retrace, so the
     forward pass over the walk is the whole journey. *)
  let cost =
    settle t w ~kind:San_obs.Trace.Switch ~hit ~hops:w.nhops ~reply:false
  in
  ((if hit then Switch else Nothing), cost)
