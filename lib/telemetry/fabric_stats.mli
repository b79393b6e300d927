(** Per-channel fabric counters: where is the network actually hot?

    The simulator's aggregate stats (worm counts, latency summaries)
    hide which links carried the load. This table attributes, per
    directed channel — keyed by the {!San_topology.Graph.wire_end} a
    worm's head exits through, exactly the key the event simulator
    arbitrates on — transit counts, occupied and blocked nanoseconds,
    collision and drop counts. Aggregation to undirected links (both
    directions of a wire summed) is done against a graph at query
    time, so one table can survive a daemon run whose world evolves.

    Producers ({!San_simnet.Event_sim}, {!San_simnet.Network}) resolve
    the table once at creation from the process-wide {!current} slot
    and report only there — a network's transits, collisions and
    replies all land in the table it was created with — so the
    disabled path costs one [option] match per accounting site. *)

open San_topology

type port_stat = {
  mutable transits : int;  (** worm heads that acquired this channel *)
  mutable occupied_ns : float;  (** time the channel was held by a worm *)
  mutable blocked_ns : float;  (** time worms spent queued for it *)
  mutable collisions : int;  (** analytic-model probe self-collisions *)
  mutable drops : int;  (** worms that died at this channel *)
}

type t

val create : unit -> t
(** An empty table; channels appear on first use. *)

val clear : t -> unit

(** {1 The process-wide slot} *)

val install : t -> unit
(** Make this table the one new simulators and networks report into. *)

val uninstall : unit -> unit

val current : unit -> t option

(** {1 Accounting} *)

val transit : t -> Graph.wire_end -> unit
val occupied : t -> Graph.wire_end -> float -> unit
val blocked : t -> Graph.wire_end -> float -> unit
val collision : t -> Graph.wire_end -> unit
val drop : t -> Graph.wire_end -> unit

(** {1 Queries} *)

val port_stat : t -> Graph.wire_end -> port_stat option
(** The channel's counters, if it ever carried anything. *)

val total_transits : t -> int
(** Summed over every channel — the conservation invariant pairs this
    with the simulator's per-worm acquired-hop total. *)

type link = {
  ends : Graph.wire_end * Graph.wire_end;  (** canonical order *)
  l_transits : int;
  l_occupied_ns : float;
  l_blocked_ns : float;
  l_collisions : int;
  l_drops : int;
  utilization : float;
      (** occupied time normalized to the hottest link (falls back to
          transit counts when nothing recorded occupancy), in [0,1] *)
}

val links : t -> Graph.t -> link list
(** Both directions of every wire of [g] summed, hottest first
    (ordering via {!San_topology.Analysis.hottest_links}). Wires that
    never carried anything are included with zero counters. *)

val heat : t -> Graph.t -> Graph.wire_end * Graph.wire_end -> float
(** [heat t g] is the utilization of a wire (ends in either order),
    suitable for {!San_topology.Dot.to_string}'s [?heat]. *)
