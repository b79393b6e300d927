(** The Berkeley mapping algorithm (§3): breadth-first probe
    exploration with lazy, deduction-driven replicate merging.

    The driver sends probes of increasing length from a designated
    mapper host, builds the {!Model} graph from the responses, merges
    replicates as identity information propagates backwards from
    host-vertices, prunes degree-1 switch remnants, and exports the
    map. Under the paper's assumptions (quiescent network, exploration
    depth at least [Q + D + 1]) the exported map is isomorphic to
    [N - F] (Theorem 1). *)

open San_topology
open San_simnet

type policy = {
  skip_explored : bool;
      (** do not re-explore a vertex whose merge class was already
          explored through another replicate (§3.3's mergelist
          algorithm behaviour; keeps exploration linear in practice) *)
  skip_known : bool;
      (** do not probe a turn whose canonical slot is already wired —
          such a probe is certain to succeed and teach nothing *)
  window_pruning : bool;
      (** §3.3.3: skip turns that are provably ILLEGAL for every
          feasible entry-port offset of the class *)
  host_probe_first : bool;
      (** order within a probe pair; the second probe is only sent
          when the first fails *)
  retries : int;
      (** resend an unanswered probe this many extra times before
          concluding "nothing" — pointless on a quiescent network (a
          structural failure repeats deterministically) but the
          standard defence once cross-traffic can eat probes (§6) *)
}

val resp_string : San_simnet.Network.response -> string
(** Canonical rendering of a probe response for the provenance ledger
    (["host h3"], ["switch"], ["silence"]). *)

val faithful : policy
(** The paper's production configuration: skip explored classes and
    known slots, prune provably illegal turns, send the switch-probe
    first. *)

val exhaustive : policy
(** No probe is ever skipped: the literal §3.1 pseudo-code, which
    explores the full tree of successful probe strings. Exponential in
    the depth — use only on small networks or depths; serves as the
    ground-truth oracle in tests. *)

type depth = Oracle | Fixed of int
(** [Oracle] computes [Q + D + 1] from the actual network (the
    analysis bound); [Fixed] is what a deployment without that luxury
    would configure. *)

type trace_point = {
  step : int;  (** switch explorations so far *)
  created_nodes : int;
  live_nodes : int;  (** model nodes surviving merges so far *)
  live_edges : int;
  frontier_length : int;
  hosts_found : int;  (** distinct hosts discovered so far *)
  elapsed_ns : float;
}
(** One Figure 8 sample, recorded after each switch exploration. *)

type result = {
  map : (Graph.t, string) Stdlib.result;
      (** the exported map, or why export failed (e.g. unresolved
          replicates when the depth was too small) *)
  explorations : int;
  host_probes : int;
  host_hits : int;
  switch_probes : int;
  switch_hits : int;
  elapsed_ns : float;  (** serialized mapper time, simulated *)
  depth_used : int;
  created_vertices : int;
  live_vertices : int;
  trace : trace_point list;  (** chronological; empty unless requested *)
}

val total_probes : result -> int

val run :
  ?policy:policy ->
  ?depth:depth ->
  ?record_trace:bool ->
  ?expand:(Route.t -> bool) ->
  ?probe_budget:int ->
  ?tick:(probes:int -> frontier:int -> unit) ->
  Network.t ->
  mapper:Graph.node ->
  result
(** [run net ~mapper] maps the network from the given host. Resets the
    network's statistics counters. @raise Invalid_argument if [mapper]
    is not a host. Model inconsistencies (impossible under the paper's
    assumptions) surface as [Model.Inconsistent].

    [expand] scopes the exploration (default: everything): a frontier
    switch is handed its probe path and has its ports enumerated only
    when [expand path] holds. Unlike [depth] — which caps probe length
    and rarely binds on small-diameter fabrics — this caps exploration
    {e breadth}: a sharded mapper (see [San_shard]) resolves the path
    against its reference topology and expands only switches in its
    ownership cell plus one ring, which is what makes N concurrent
    shards each strictly cheaper than one global mapper. Scoped-out
    switches are still discovered (their parent probed into them) but
    stay unexpanded stubs with unknown frames, so callers must trim
    the exported map to the expanded region.

    [probe_budget] stops the exploration once that many probes have
    been sent (retries included). The gate sits between explorations,
    never inside one — a half-enumerated switch would fabricate
    absence evidence — so the actual spend can overshoot by up to one
    exploration, [4 * (radix - 1) * (1 + retries)] probes, plus the turn-0
    root-confirmation probe, which is always sent. A budget-stopped
    model is partial: {!Model.to_graph} may raise on its unresolved
    replicates, so budgeted callers (see [San_cover]) read the model
    through the why-ledger replay instead of exporting it.

    [tick ~probes ~frontier] fires after every exploration with the
    cumulative probe count and current frontier length — the live
    coverage feed for [San_cover]'s gauges. *)

(** {1 Engine hooks for the §6 extensions} *)

type service = {
  sv_radix : int;
  sv_host_probe : turns:Route.t -> Network.response * float;
  sv_switch_probe : turns:Route.t -> Network.response * float;
}
(** What the exploration engine actually needs from the world: the
    response function R and per-probe costs. {!service_of_network}
    wraps the analytic simulator; {!Online} wraps the discrete-event
    wormhole simulator with live cross-traffic. *)

val service_of_network : Network.t -> mapper:Graph.node -> service

val explore_service :
  ?expand:(Route.t -> bool) ->
  ?probe_budget:int ->
  ?tick:(probes:int -> frontier:int -> unit) ->
  policy:policy ->
  depth_used:int ->
  record_trace:bool ->
  service ->
  Model.t ->
  Model.vid list ->
  int * float * trace_point list
(** The breadth-first engine on an existing model: seed the frontier
    with the given vertices, drain it, return (explorations, simulated
    elapsed ns, trace). Does not prune or export. [probe_budget] and
    [tick] as in {!run}. *)

val finish :
  model:Model.t ->
  explorations:int ->
  elapsed:float ->
  depth_used:int ->
  trace:trace_point list ->
  Network.t ->
  result
(** Prune, export and package a result from an explored model. *)

val resolve_depth : Network.t -> mapper:Graph.node -> depth -> int
