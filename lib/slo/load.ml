(* Background worm load: configurable traffic matrices driven through
   the event simulator over installed routes.

   The paper's mapper assumes quiescence; this module is the "network
   fights back" half of the observatory. A load spec shapes who sends
   to whom:

   - [Uniform]: every routed (src, dst) pair equally likely — the
     classic bisection-stressing baseline;
   - [Hotspot]: half the worms converge on one hot destination host,
     half stay uniform — a popular-server skew;
   - [Incast]: every worm targets the hot host AND arrivals are
     quantized onto burst boundaries so they hit the same ingress in
     the same slot — the adversarial synchronized-incast worst case
     for wormhole blocking.

   Arrivals are Poisson at [offered] worms per host per millisecond
   (aggregate rate scales with fleet size, like real traffic). Worms
   ride the *installed* route table — turns computed on the map drive
   the actual network identically (§5.5) — so drops under load are
   honest wormhole outcomes: FIFO blocking, tail occupancy, forward
   resets.

   The report distills the window into the one number the control
   plane can consume: the per-wire-crossing loss probability [p] such
   that a worm crossing [h] wires survives with (1-p)^h. Feeding that
   into [Network.create ~traffic] makes mapping probes experience the
   same attrition the background worms measured, which is how the
   daemon's verify/remap sweeps genuinely contend with traffic. *)

module Prng = San_util.Prng
module Graph = San_topology.Graph
module Fabric_stats = San_telemetry.Fabric_stats

type pattern = Uniform | Hotspot | Incast

let pattern_to_string = function
  | Uniform -> "uniform"
  | Hotspot -> "hotspot"
  | Incast -> "incast"

let pattern_of_string = function
  | "uniform" -> Some Uniform
  | "hotspot" -> Some Hotspot
  | "incast" -> Some Incast
  | _ -> None

type spec = {
  pattern : pattern;
  offered : float;  (* worms per host per simulated millisecond *)
  payload_bytes : int option;
}

let spec ?(pattern = Uniform) ?payload_bytes offered =
  if not (offered >= 0.0 && Float.is_finite offered) then
    invalid_arg
      (Printf.sprintf "Load.spec: offered load %g must be finite and >= 0"
         offered);
  { pattern; offered; payload_bytes }

type report = {
  r_pattern : pattern;
  r_offered : float;
  r_injected : int;
  r_delivered : int;
  r_dropped_reset : int;
  r_dropped_bad_route : int;
  r_mean_crossings : float;
  r_drop_rate : float;
  r_loss_per_crossing : float;
  r_latency : San_obs.Digest.t;
  r_sim_ns : float;
}

let drop_rate r =
  if r.r_injected = 0 then 0.0
  else
    float_of_int (r.r_dropped_reset + r.r_dropped_bad_route)
    /. float_of_int r.r_injected

(* Incast arrivals collapse onto 100 us burst boundaries. *)
let burst_ns = 100_000.0

(* The routed pairs of [table], translated (by host name) onto the
   nodes of [g] — the actual network the worms will ride. Routes whose
   endpoints no longer exist in [g] (a host died since the map) are
   skipped; the load simply no longer originates or targets them. *)
let routed_pairs table ~g =
  let rg = San_routing.Routes.graph table in
  List.filter_map
    (fun (src, dst, route) ->
      match
        ( Graph.host_by_name g (Graph.name rg src),
          Graph.host_by_name g (Graph.name rg dst) )
      with
      | Some s, Some d -> Some (s, d, route)
      | _ -> None)
    (San_routing.Routes.all table)

(* One load window is one simulated millisecond of arrivals. *)
let window_ns = 1e6

let drive_into ?fabric ?(rng = Prng.create 7)
    ?(params = San_simnet.Params.default) spec ~table g =
  let pairs = Array.of_list (routed_pairs table ~g) in
  let n_hosts = Graph.num_hosts g in
  if Array.length pairs = 0 || n_hosts = 0 || spec.offered <= 0.0 then
    {
      r_pattern = spec.pattern;
      r_offered = spec.offered;
      r_injected = 0;
      r_delivered = 0;
      r_dropped_reset = 0;
      r_dropped_bad_route = 0;
      r_mean_crossings = 0.0;
      r_drop_rate = 0.0;
      r_loss_per_crossing = 0.0;
      r_latency = San_obs.Digest.create ();
      r_sim_ns = 0.0;
    }
  else begin
    (* Hot destination: the highest-address host with inbound routes,
       the same pick every epoch so hotspot runs are comparable. *)
    let hot =
      Array.fold_left
        (fun acc (_, d, _) ->
          match acc with
          | Some best when Graph.name g best >= Graph.name g d -> acc
          | _ -> Some d)
        None pairs
    in
    let to_hot =
      match hot with
      | None -> [||]
      | Some h ->
        Array.of_list
          (List.filter (fun (_, d, _) -> d = h) (Array.to_list pairs))
    in
    let pick () =
      match spec.pattern with
      | Uniform -> Prng.choose rng pairs
      | Hotspot ->
        if Array.length to_hot > 0 && Prng.bool rng then Prng.choose rng to_hot
        else Prng.choose rng pairs
      | Incast ->
        if Array.length to_hot > 0 then Prng.choose rng to_hot
        else Prng.choose rng pairs
    in
    let sim = San_simnet.Event_sim.create ?fabric ~params g in
    (* Aggregate Poisson rate: offered worms/host/ms across the fleet. *)
    let mean_gap = 1e6 /. (spec.offered *. float_of_int n_hosts) in
    let crossings = ref 0 in
    let injected = ref 0 in
    Prng.arrivals_before (Prng.arrivals rng ~mean_gap) window_ns (fun t ->
        let src, _, route = pick () in
        let at_ns =
          match spec.pattern with
          | Incast -> Float.of_int (int_of_float (t /. burst_ns)) *. burst_ns
          | Uniform | Hotspot -> t
        in
        ignore
          (San_simnet.Event_sim.inject sim ~at_ns ~src ~turns:route
             ?payload_bytes:spec.payload_bytes ());
        incr injected;
        crossings := !crossings + List.length route + 1);
    San_simnet.Event_sim.run sim;
    let stats = San_simnet.Event_sim.stats sim in
    let latency =
      San_obs.Digest.of_list (San_simnet.Event_sim.latencies sim)
    in
    let inj = float_of_int stats.San_simnet.Event_sim.injected in
    let mean_crossings =
      if !injected = 0 then 0.0 else float_of_int !crossings /. float_of_int !injected
    in
    let survive =
      if inj = 0.0 then 1.0
      else float_of_int stats.San_simnet.Event_sim.delivered /. inj
    in
    (* Per-crossing survival q solves q^mean_crossings = survive; the
       per-crossing loss is 1 - q, clamped to the [0, 0.5] range
       Network's traffic model considers sane. *)
    let loss =
      if survive >= 1.0 || mean_crossings <= 0.0 then 0.0
      else if survive <= 0.0 then 0.5
      else
        Float.min 0.5
          (Float.max 0.0 (1.0 -. Float.pow survive (1.0 /. mean_crossings)))
    in
    let r =
      {
        r_pattern = spec.pattern;
        r_offered = spec.offered;
        r_injected = stats.San_simnet.Event_sim.injected;
        r_delivered = stats.San_simnet.Event_sim.delivered;
        r_dropped_reset = stats.San_simnet.Event_sim.dropped_reset;
        r_dropped_bad_route = stats.San_simnet.Event_sim.dropped_bad_route;
        r_mean_crossings = mean_crossings;
        r_drop_rate = 0.0;
        r_loss_per_crossing = loss;
        r_latency = latency;
        r_sim_ns = stats.San_simnet.Event_sim.finished_at_ns;
      }
    in
    let r = { r with r_drop_rate = drop_rate r } in
    if San_obs.Obs.on () then begin
      San_obs.Obs.count ~by:r.r_injected "load.injected";
      San_obs.Obs.count ~by:r.r_delivered "load.delivered";
      San_obs.Obs.count
        ~by:(r.r_dropped_reset + r.r_dropped_bad_route)
        "load.dropped";
      San_obs.Obs.set_gauge "load.offered" r.r_offered;
      San_obs.Obs.set_gauge "load.drop_rate" r.r_drop_rate;
      San_obs.Obs.set_gauge "load.loss_per_crossing" r.r_loss_per_crossing
    end;
    r
  end

let drive ?rng ?params spec ~table g = drive_into ?rng ?params spec ~table g

let heat ~rng spec ~table g =
  let fabric = Fabric_stats.create () in
  (fabric, drive_into ~fabric ~rng spec ~table g)

(* A drop costs one median redelivery; occupancy and queueing are
   already nanoseconds, so the units agree. *)
let drop_cost_ns r = San_obs.Digest.quantile r.r_latency 0.5

(* Parallel wires take the coolest of their channels. *)
let prefer fabric r g =
  let drop_ns = drop_cost_ns r in
  fun u v ->
    List.fold_left
      (fun acc (port, (w, _)) ->
        if w <> v then acc
        else
          let p =
            match Fabric_stats.port_stat fabric (u, port) with
            | None -> 0.0
            | Some s ->
              s.Fabric_stats.occupied_ns +. s.Fabric_stats.blocked_ns
              +. (float_of_int s.Fabric_stats.drops *. drop_ns)
          in
          Float.min acc p)
      infinity (Graph.wired_ports g u)

let traffic_of_report r rng =
  if r.r_loss_per_crossing > 0.0 then Some (r.r_loss_per_crossing, rng)
  else None
