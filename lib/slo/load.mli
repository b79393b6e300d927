(** Background worm load matrices through the event simulator.

    The live-traffic half of the SLO observatory: a load spec shapes a
    traffic matrix (uniform / hotspot / synchronized incast), Poisson
    arrivals at [offered] worms per host per simulated millisecond ride
    the installed route table through {!San_simnet.Event_sim} on the
    actual network, and the resulting attrition is distilled into a
    per-wire-crossing loss probability. Feeding that loss into
    {!San_simnet.Network.create}'s [traffic] model makes mapping probes
    experience the same contention the background worms measured — the
    coupling that lets the daemon remap {e under} load. *)

open San_topology

type pattern =
  | Uniform  (** every routed (src, dst) pair equally likely *)
  | Hotspot  (** half the worms converge on one hot destination *)
  | Incast
      (** all worms target the hot destination, arrivals quantized onto
          100 us burst boundaries — the adversarial worst case *)

val pattern_to_string : pattern -> string
val pattern_of_string : string -> pattern option

type spec = {
  pattern : pattern;
  offered : float;  (** worms per host per simulated millisecond *)
  payload_bytes : int option;
      (** worm length; [None] uses the params' probe payload *)
}

val spec : ?pattern:pattern -> ?payload_bytes:int -> float -> spec
(** [spec offered] builds a uniform spec.
    @raise Invalid_argument on a negative or non-finite load. *)

type report = {
  r_pattern : pattern;
  r_offered : float;
  r_injected : int;
  r_delivered : int;
  r_dropped_reset : int;  (** forward-reset (blocking) casualties *)
  r_dropped_bad_route : int;  (** stale routes that no longer deliver *)
  r_mean_crossings : float;  (** average wires crossed per worm *)
  r_drop_rate : float;
  r_loss_per_crossing : float;
      (** p such that an h-crossing worm survives with (1-p)^h *)
  r_latency : San_obs.Digest.t;  (** delivery latency digest (ns) *)
  r_sim_ns : float;  (** when the last worm resolved *)
}

val drive :
  ?rng:San_util.Prng.t ->
  ?params:San_simnet.Params.t ->
  spec ->
  table:San_routing.Routes.t ->
  Graph.t ->
  report
(** Run one load window of 1 simulated ms ({!San_util.Prng.arrivals})
    over [g], with worms riding [table]'s routes translated onto [g] by
    host name; routes whose endpoints died since are skipped.
    Per-channel counters go to {!San_telemetry.Fabric_stats.current}.
    Deterministic given [rng]. *)

val heat :
  rng:San_util.Prng.t ->
  spec ->
  table:San_routing.Routes.t ->
  Graph.t ->
  San_telemetry.Fabric_stats.t * report
(** {!drive} into a fresh per-channel table, returned with the report;
    the process-wide slot is neither read nor set. *)

val drop_cost_ns : report -> float
(** A dropped worm's cost: the window's median delivery latency. *)

val prefer :
  San_telemetry.Fabric_stats.t -> report -> Graph.t -> Graph.node ->
  Graph.node -> float
(** [prefer fabric r g] is the heat penalty for
    {!San_routing.Routes.compute}'s [prefer]: hop [u -> v] costs its
    channel's occupied + blocked ns + drops × {!drop_cost_ns}, the
    least over the parallel wires from [u] to [v]. *)

val traffic_of_report :
  report -> San_util.Prng.t -> (float * San_util.Prng.t) option
(** The measured loss packaged for {!San_simnet.Network.create}'s
    [traffic] argument; [None] when the window saw no loss. *)

