(** Emergent election: every mapper actually runs, concurrently, on the
    shared wormhole simulator.

    {!Election} prices election mode with a calibrated cost model; this
    module computes the same quantity {e mechanistically}. Every
    participating host runs the unmodified Berkeley engine as an OCaml
    effects fiber; their probe worms share the discrete-event fabric
    (colliding, queueing and delaying one another for real), and the
    paper's election rule emerges from deliveries: when an active
    mapper's host receives a probe worm from a higher interface
    address, it goes passive at its next decision point — it keeps
    answering probes, as the paper's passive responders do. The highest
    address can never be silenced and finishes the map.

    A co-simulation scheduler interleaves fibers and hardware events
    one event at a time, so no worm is ever injected into the
    simulator's past: a fiber only advances when the fabric has caught
    up with its clock. *)

open San_topology

type defer = { loser : Graph.node; at_ns : float; silenced_by : Graph.node }

type outcome =
  | Completed
  | Stuck of { at_ns : float; pending : int }
      (** the co-simulation found no runnable work — no fiber to start,
          no hardware event, no probe deadline — with mappers still
          unfinished. A scheduler invariant violation: reported as data
          (plus a {!San_obs.Trace.Mapper_stuck} event) rather than an
          exception, so the run's evidence survives for post-mortem. *)

type result = {
  winner : Graph.node;
  map : (Graph.t, string) Stdlib.result;  (** the winner's map *)
  finished_at_ns : float;
      (** absolute simulated time at which the winner's map was done —
          the user-visible election-mode mapping time *)
  winner_probes : int;
  total_probes : int;  (** across all contenders, including losers *)
  defers : defer list;  (** chronological *)
  contenders : int;
  outcome : outcome;
      (** [Completed] normally; on [Stuck], [map] is an [Error]. *)
}

val run :
  ?mappers:Graph.node list ->
  ?max_skew_ns:float ->
  rng:San_util.Prng.t ->
  Graph.t ->
  result
(** [run ~rng g] elects over [mappers] (default: every host), each
    mapping faithfully at the oracle depth under the default timing
    parameters and starting after an independent exponential skew with
    mean [max_skew_ns/4] truncated to [max_skew_ns] (default 2 ms —
    daemons woken by a cron-ish tick, not a barrier). *)
