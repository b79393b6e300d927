(** The probe service: the simulated network as observed from a host.

    This is the response function R of §2.3: a mapper chooses a turn
    string and learns "switch", a unique host name, or nothing —
    together with how long the attempt took. All structural evaluation,
    collision modelling and timing live here, so every algorithm above
    this interface is hardware-independent. *)

open San_topology

type response = Switch | Host of string | Nothing

type t

val create :
  ?model:Collision.model ->
  ?params:Params.t ->
  ?responding:(Graph.node -> bool) ->
  ?software_slowdown:float ->
  ?jitter:float * San_util.Prng.t ->
  ?traffic:float * San_util.Prng.t ->
  ?fabric:San_telemetry.Fabric_stats.t ->
  Graph.t ->
  t
(** [create g] wraps a network. [model] defaults to {!Collision.Circuit}
    (the model under which Theorem 1 needs no extra assumptions).
    [responding] marks which hosts run a mapper daemon and answer
    host-probes (default: all); the wiring is unaffected — probes to a
    silent host just time out, which is how the Figure 9 population
    study is driven. [software_slowdown] scales the per-probe software
    overheads (used for the Myricom baseline's in-NIC implementation).
    [jitter] (fraction, generator) adds multiplicative noise of up to
    ±fraction to every per-probe software cost, modelling scheduler and
    interrupt variance on the measurement hosts; without it the
    simulation is fully deterministic. [traffic] relaxes the paper's
    quiescence assumption (the §6 cross-traffic question): application
    worms occupy each directed channel independently so a probe is lost
    with the given probability per wire crossing, by {!survives}.
    [fabric] is the per-channel counter table every probe's wire
    crossings, collisions and replies are attributed to (default: the
    process-wide {!San_telemetry.Fabric_stats.current} slot, read once
    here; a table installed later sees nothing of this network; when
    neither is set, per-channel accounting is off).

    Every probe is evaluated into one walk the network owns
    ({!Worm.fill}): with observability and per-channel accounting off,
    a probe allocates only its returned pair, whatever the route length.
    Consecutive probes share their work: the walk keeps the hops a
    probe's turns share with the previous probe's (from the same source,
    with no {!Graph.connect} or {!Graph.disconnect} on the graph in
    between) and the circuit collision stamps of those hops, so a probe
    costs the hops it does not share. Responses and costs are the same
    as for the probe sent alone on a fresh network.
    A network is not re-entrant: a [responding] predicate must not probe
    the network it belongs to. *)

val survives : (float * San_util.Prng.t) option -> crossings:int -> bool
(** The cross-traffic loss rule of [create]'s [traffic]: with
    [Some (p, rng)], one draw from [rng], and the worm survives iff the
    draw is below [(1-p)^crossings]; with [None], no draw and it
    survives. Probes count both ways of a round trip. *)

val graph : t -> Graph.t
val params : t -> Params.t

(** {2 Probe counters}

    Probes sent and answered since creation or the last {!reset_stats}.
    Walk probes count as host probes and loop probes as switch probes,
    the columns they occupy on the wire. Costs are not summed here:
    every probe returns its own, and the [net.probe_cost_ns] histogram
    collects them when observability is on. *)

val host_probes : t -> int
val host_hits : t -> int
val switch_probes : t -> int
val switch_hits : t -> int

val reset_stats : t -> unit
(** Zero the four counters. *)

val host_probe : t -> src:Graph.node -> turns:Route.t -> response * float
(** Send the host-probe [a1...ak] from host [src]. Returns [Host name]
    if a responding host received it and replied, [Nothing] otherwise
    (the mapper cannot distinguish the failure modes), along with the
    simulated cost in nanoseconds charged to the prober (round trip on
    success, timeout on failure). *)

val switch_probe : t -> src:Graph.node -> turns:Route.t -> response * float
(** Send the loopback probe [a1...ak 0 -ak...-a1]. Returns [Switch] if
    the loopback came home, [Nothing] otherwise. *)

val walk_probe :
  t -> src:Graph.node -> turns:Route.t -> (string * int) option * float
(** The §6 firmware tweak behind the randomized (coupon-collecting)
    mapper: a long probe that would die with HIT A HOST TOO SOON is
    instead {e read} by that host, which replies with its name. Returns
    [(name, turns_consumed)] — the probe's prefix of that length is a
    valid path ending at the named host — or [None] (collision, dead
    end, silent host). Counted as a host probe. *)

val loop_probe :
  t -> src:Graph.node -> turns:Route.t -> turn:int -> int option * float
(** The Myricom firmware's loopback-cable test (§4.1): does taking
    [turn] out of the switch reached by [turns] re-enter the {e same}
    switch through a cable between two of its ports? [Some d] gives the
    re-entry port relative to the exit port. Modelled as a single probe
    message (the firmware encodes this with its knowledge of relative
    entry ports); costs like any other probe. *)

val probe_cost_hit : t -> hops:int -> float
(** Cost model for a successful exchange crossing [hops] wires in
    total; exposed so concurrent drivers can reason about costs. *)

val probe_cost_miss : t -> float
(** Cost of a probe that times out. *)
