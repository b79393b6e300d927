(** Randomized mapping (§6's "coupon-collecting" proposal, after
    Vazirani).

    The breadth-first mapper pays one probe pair per (vertex, turn);
    far from hosts it also breeds replicates faster than the merger can
    kill them. The paper suggests an initial phase of {e maximal-depth
    probes in random directions}: with the firmware tweak that lets a
    host read a worm that reaches it with turns left over (instead of
    discarding it), one random probe certifies its {e entire} prefix
    path — every intermediate hop is a switch and the endpoint is a
    named host. Each such path is spliced into the model, where the
    host endpoints act as merge anchors; the ordinary breadth-first
    exploration then only has to finish the dangling edges.

    "If the graph has sufficient expansion, we explore most of it
    quickly" — the bench's extensions table quantifies the probe
    savings on the NOW. *)

open San_topology
open San_simnet

type result = {
  map : (Graph.t, string) Stdlib.result;
  coupon_probes : int;
  coupon_hits : int;  (** random walks that reached a responding host *)
  bfs_explorations : int;
  host_probes : int;  (** totals including the coupon phase *)
  switch_probes : int;
  elapsed_ns : float;
  created_vertices : int;
  live_vertices : int;
}

val total_probes : result -> int

val run :
  ?samples:int ->
  rng:San_util.Prng.t ->
  Network.t ->
  mapper:Graph.node ->
  result
(** [run ~rng net ~mapper] maps with [samples] (default 150) random
    maximal-depth probes followed by faithful breadth-first completion,
    both at the oracle depth. Resets the network's statistics. *)
