(** Election-mode mapping (§4.2 / Figure 7).

    Both mapping systems have two operational modes: a single master
    maps while everyone else echoes probes, or {e every} host runs an
    active mapper and the participants elect a leader by comparing the
    network-interface addresses carried in every message. Election is
    more robust (no single point of failure, survives partitions) but
    costs time: while losers are still actively probing, their worms
    and the eventual winner's worms share links, and occasionally two
    near-simultaneous mappers force a restart of the whole exploration
    — the paper's C+A+B election row has a 3.3 s maximum against a
    1.2 s master-mode maximum.

    This module models that cost structure on top of a winner's-eye
    solo run: every host gets an interface address; the winner is the
    highest; a losing mapper goes passive once the winner's exploration
    first discovers it (the discovery curve comes from the run trace);
    until then each of the winner's probes risks a collision with
    loser traffic (timeout + retry), and with probability growing
    quadratically in the contender count the election itself forces a
    restart of a fraction of the run. *)

open San_topology
open San_simnet

type outcome = {
  winner : Graph.node;
  contenders : int;
  base_ns : float;  (** the winner's solo mapping time *)
  collision_extra_ns : float;
  restart_extra_ns : float;
  total_ns : float;
  map : (Graph.t, string) Stdlib.result;
}

val run : rng:San_util.Prng.t -> Network.t -> outcome
(** Run one election-mode mapping over all responding hosts of the
    network. The winner (highest node id among hosts) performs the
    faithful mapping at the oracle depth; the extra election costs are
    sampled from [rng]: each probe collides with one active loser's
    traffic with probability 10⁻³ (costing a 650 µs timeout plus the
    retried probe), and the election restarts with probability 0.25
    at 100 contenders, scaled by (contenders/100)². *)
