(** The Myricom Algorithm (§4): the baseline the paper compares
    against.

    A breadth-first exploration that aggressively disambiguates switch
    identities {e on the fly}: every time a switch-probe discovers a
    candidate switch, comparison probes of the form
    [T1...Tn X -Sm...-S1] (out to the candidate, one spanning turn,
    then the return route of an already-known switch) decide whether
    the candidate is a switch seen before, so the map under
    construction never contains replicates and merging never cascades.
    The price is message count: comparisons against the set of known
    switches make the algorithm O(N²) messages with a large constant
    (up to 14 loop probes, 14 host probes, 14 switch probes per switch
    plus the comparisons — §4.2), which Figure 10 quantifies.

    The implementation runs against the same simulated {!San_simnet}
    substrate as the Berkeley algorithm; the [embedded_slowdown]
    parameter models its execution on the 37.5 MHz LANai message
    processor rather than the host CPU. *)

open San_topology
open San_simnet

type counts = {
  loop_probes : int;  (** loopback-cable tests *)
  host_probes : int;
  switch_probes : int;
  compare_probes : int;  (** switch-disambiguation probes *)
}
(** The four message categories of Figure 10. *)

val total : counts -> int

type result = {
  map : (Graph.t, string) Stdlib.result;
  counts : counts;
  elapsed_ns : float;
  switches_found : int;
  false_matches : int;
      (** comparison probes that matched through a coincidental
          alternative path — a documented weakness of the in-band
          comparison criterion; 0 on the NOW topologies *)
}

val run :
  ?params:Params.t ->
  ?model:Collision.model ->
  ?responding:(Graph.node -> bool) ->
  ?compare_depth_window:int ->
  Graph.t ->
  mapper:Graph.node ->
  result
(** Map the network with the Myricom algorithm from the given host.
    [responding] marks which hosts answer host-probes (default: all),
    exactly as in {!San_simnet.Network.create} — a silent host's port
    is indistinguishable from a vacancy.
    Route lengths are bounded by the network diameter + 2, mirroring
    the firmware's hop limit. [compare_depth_window]
    (default 3) is one of §4.1's probe-reduction heuristics: a
    candidate is only compared against known switches whose discovery
    depth is within the window — a breadth-first exploration finds
    replicates at nearby depths. The probe costs are charged with the
    embedded-processor slowdown of [params]. *)
