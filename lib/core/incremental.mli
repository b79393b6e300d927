(** Incremental remapping: the cheap epoch.

    The deployed system remaps periodically, and on most epochs nothing
    has changed. A full remap pays for replicate exploration — many
    probes per physical switch — but once a trusted map exists,
    switch identities are known: one route per switch and {e one probe
    per port} suffice to confirm every wire (and every vacancy) is
    still as mapped. On the 100-node NOW that is ~7x fewer probes than
    a full remap.

    Every sweep also sends one turn-0 self-probe, which bounces back to
    the mapper exactly when it is plugged into a switch, and checks the
    ports a switch's real ports can sit at below and above its used
    ones (a map numbers ports from the lowest used slot).

    Any discrepancy — a probe that should have answered and did not,
    answered when it should not have, or answered with the wrong kind
    or host name — means the map is stale. When every discrepancy at a
    confirmed switch (the mapper's switch once the self-probe bounced,
    then each switch whose BFS path from it answered as mapped) is a
    mapped wire gone silent, [run] first tries to {e patch} the
    map: it removes those wires, drops what the mapper no longer
    reaches, and runs the same sweep over the result. Removing cables
    never redirects a worm, so a clean second sweep confirms every wire
    and vacancy of the patched map, which keeps the previous node names
    and port numbers. Anything else — a confirmed switch answering
    otherwise, no silent wire at a confirmed switch, a switch the sweep
    cannot route to, a patch that would leave a hostless region hanging
    off one switch-to-switch cable (Theorem 1's F), or a second sweep
    that is not clean — falls back to a full {!Berkeley} run. *)

open San_topology
open San_simnet

type verdict =
  | Unchanged  (** every port answered as mapped *)
  | Changed of int  (** discrepancies found; the map was repaired *)

type repair =
  | No_repair  (** the map verified unchanged *)
  | Patched of int
      (** the previous map minus this many silent wires, re-verified *)
  | Remapped  (** a full remap *)

type result = {
  verdict : verdict;
  repair : repair;  (** which repair ran *)
  verify_probes : int;
      (** port checks of the sweep; with a rejected patch, of both *)
  remap_probes : int;
      (** probes the repair spent: the patched map's sweep, or the
          fallback remap; 0 if none ran *)
  verify_elapsed_ns : float;  (** likewise *)
  total_elapsed_ns : float;  (** verification plus any repair *)
  map : (Graph.t, string) Stdlib.result;  (** the current map *)
}

val run :
  ?policy:Berkeley.policy ->
  ?remap:(discrepancies:int -> (Graph.t, string) Stdlib.result * int * float) ->
  Network.t ->
  mapper:Graph.node ->
  previous:Graph.t ->
  result
(** [run net ~mapper ~previous] verifies [previous] against the live
    network and, if it is stale, patches it or remaps in full. The
    mapper host is located in [previous] by name; if absent, a full
    remap runs immediately.

    [remap] replaces the built-in solo {!Berkeley} fallback (run
    under [policy] at the oracle depth): when a stale map is not
    patched it is called once and must return [(map, probes,
    elapsed_ns)]. The daemon uses it to run the fallback over
    [San_shard]'s concurrent mappers. *)
