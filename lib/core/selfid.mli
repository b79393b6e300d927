(** The §6 hardware what-if: self-identifying switches.

    "It is tempting to believe that architectural support for
    self-identifying switches would make the network mapping problem
    trivial" — §6. Suppose the hardware were changed so that a
    loopback probe comes home carrying a unique switch id (and the
    relative port it bounced off). Replicates then never exist:
    exploration is a plain BFS keyed by id, one exploration per
    physical switch, no merging, no comparison probes.

    This mapper implements that fantasy hardware (the id oracle reads
    the actual graph — precisely the information the paper says the
    real Myrinet cannot provide in-band) to {e quantify} what the
    feature would buy: the bench compares its probe count against the
    Berkeley algorithm's. The paper's caveat stands, and shows up here
    too: self-identification removes replicate cost but not the
    port-sweep cost, and cross-traffic still corrupts probes — it
    simplifies mapping, it does not trivialise the problem. *)

open San_topology

type result = {
  map : (Graph.t, string) Stdlib.result;
  probes : int;
  explorations : int;
  elapsed_ns : float;
}

val run : Graph.t -> mapper:Graph.node -> result
(** Map with id-carrying loopback probes. Probe costs use the same
    cost model as every other mapper, under the default parameters. *)
