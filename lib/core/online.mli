(** On-line mapping under live cross-traffic — §6's first open
    question, made executable.

    The paper's proof assumes a quiescent network. Here the Berkeley
    algorithm runs {e unmodified} (via {!Berkeley.explore_service})
    against the discrete-event wormhole simulator while background
    application worms flow between random host pairs on compliant
    routes (the routes a previous mapping epoch would have installed).
    Probes share channels with the traffic: they get delayed behind
    worms, occasionally time out, and the mapper draws whatever
    conclusions it draws — exactly the failure mode the paper warns
    about, quantified.

    Findings live in the bench's `online` section: probe-sized worms
    are absorbed by per-port buffering, so light and moderate traffic
    only slows mapping; heavy traffic starts costing responses and
    eventually map completeness. *)

open San_topology

type result = {
  map : (Graph.t, string) Stdlib.result;
  probes : int;
  probe_timeouts : int;
      (** probes the mapper gave up on (congestion or structure) *)
  elapsed_ns : float;  (** simulated mapping wall time *)
  background_injected : int;
  sim : San_simnet.Event_sim.stats;  (** whole-simulation accounting *)
}

val run :
  traffic_per_ms:float ->
  rng:San_util.Prng.t ->
  Graph.t ->
  mapper:Graph.node ->
  result
(** [run ~traffic_per_ms ~rng g ~mapper] maps [g] faithfully at the
    oracle depth, under the default timing parameters, while 4096-byte
    background worms are injected at the given Poisson rate
    ({!San_util.Prng.arrivals}) over routes computed on the actual
    graph.
    [traffic_per_ms = 0.] reduces to quiescent event-driven mapping. *)
