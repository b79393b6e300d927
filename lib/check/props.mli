(** The property suite: what must hold of every fabric the generator
    can produce.

    One property per paper-level claim the system depends on:

    - ["iso"] — the Berkeley map is isomorphic to [N - F] (Theorem 1),
      with mapper-unreachable nodes and silent hosts joining F;
    - ["deadlock"] — UP*/DOWN* routes computed on either algorithm's
      map have an acyclic channel dependency graph (both labelings for
      Berkeley);
    - ["agreement"] — the Myricom map covers the reachable fabric
      exactly (and hence agrees with the Berkeley map on [N - F]);
      skipped when a comparison probe matched through a coincidental
      alternative path ([false_matches > 0], the §4 documented
      weakness);
    - ["incremental"] — incremental repair after a seed-drawn removal
      (a cut switch-to-switch wire, an isolated switch or a silenced
      host) produces a map isomorphic to [N' - F'], like a
      from-scratch run;
    - ["delta"] — delta route distribution over an installed ledger
      converges to exactly the tables a full redistribution installs,
      and never ships more bytes than full;
    - ["conservation"] — per-channel fabric counters conserve transits
      against the event simulator's acquired-hop total under an
      all-pairs storm;
    - ["provenance"] — with the ledger on, every entry cites strictly
      earlier entries, probe citations point at probe entries, and
      every replicate merge justifies down to a probe that ran;
    - ["shard_agreement"] — for shard counts {1, 2, 4, 8}, the
      conflict-resolved union of [San_shard] per-shard views is
      isomorphic to the same [N - F] the solo Berkeley mapper
      produces, with no view dropped on a quiescent run;
    - ["load_agreement"] — after the case's generated schedule has
      battered the world, a Berkeley run whose probes contend with
      measured background traffic ([retries = 2]) exports a map
      isomorphic to the quiescent map of the same fabric; skipped
      when the measured per-crossing loss exceeds the proven retry
      tolerance;
    - ["routes_deterministic"] — route tables are a pure function of
      the fabric: computing twice yields byte-identical tables
      (randomized spreading only happens through the explicit [?rng]
      opt-in), and the lazy serving plane ({!San_routing.Serve})
      reproduces the eager table entry for entry, serving no route
      for any pair the table leaves unreachable;
    - ["partial_subgraph"] — a budget-stopped {!San_cover} run (a
      seed-chosen 30% or 60% fraction) produces a partial map that
      embeds in [N - F], every element's confidence is in [0, 1], and
      the probe spend stays within the budget plus the documented
      one-exploration overshoot bound.

    Every Berkeley map a property runs — the shared one, the maps of
    faulted and battered fabrics, an incremental run's full remap and
    {!map_service}'s explorations — stops at {!probe_budget}, and a map
    the budget stopped fails its property with a message naming the
    budget. A probe path that keeps answering (say, an evaluator that
    keeps one hop too many) so shows as a counterexample instead of a
    model that grows until the process runs out of memory. The
    [shard_agreement] runs only after the shared map finished under
    its budget, and [partial_subgraph] maps under its own fractional
    budget.

    Degenerate fabrics (no hosts, no mapper) make a property pass
    trivially rather than error: the generator is free to produce
    them. A property that raises is reported as a failure — crashes
    are counterexamples too. *)

type ctx
(** Per-case shared state: the Berkeley and Myricom runs, exclusion
    sets and search depth are computed lazily once and reused by every
    property. *)

val names : string list

val opt_in : (string * (ctx -> (unit, string) result)) list
(** Properties run only when named (["--prop"]), outside the default
    suite ({!names}):

    - ["incremental_routes"] — after a seed-drawn change to the fabric
      (a cut wire, an isolated switch, a host gone, an added cable, a
      cable end moved to a free port or two cables' far ends swapped;
      node ids renumbered in half the cases, the previous table
      oriented from another root in half and labelled depth-first in
      half), a route table compiled against the previous epoch's table
      is byte-identical to a from-scratch compile ([all], unreachable
      pairs, [iter] order, [route] on every node pair), and the delta
      plan, distribution, advanced ledger and re-plan read off its
      changed pairs equal the ones that compare every pair;
    - ["probe_replay"] — every probe of a Berkeley map answers (response
      and cost) as it does when sent alone on a freshly created network,
      where no walk or stamp of an earlier probe can be kept; the map
      runs twice on one network, with a seed-drawn switch-to-switch
      wire cut in between. *)

val probe_budget : ?retries:int -> San_topology.Graph.t -> depth:int -> int
(** The probes one map of fabric [g] at [depth] may send:
    [100 · (switches + 1) · depth · 4 (radix − 1) · (1 + retries)]
    ([retries] defaults to the faithful policy's), a hundred times
    the most one exploration sends for every switch and every level of
    the depth. Over [make fuzz-smoke]'s six campaigns (7,702 maps) a
    correct map sends at most 14,879 probes, and no map sends more
    than a fifteenth of its budget. *)

val map_service :
  San_topology.Graph.t ->
  mapper:San_topology.Graph.node ->
  depth:int ->
  San_mapper.Berkeley.service ->
  (unit, string) result
(** Explore [service] from a fresh model of the mapper on fabric [g]
    to [depth] under [probe_budget g ~depth]; [Error] names the budget
    when it stopped the exploration. *)

val find : string -> (ctx -> (unit, string) result) option
(** A property of the default suite or {!opt_in} by name. *)

val run : string -> Fuzz_gen.case -> (unit, string) result
(** [run name case] builds a fresh context and runs one property,
    converting exceptions into [Error]. @raise Invalid_argument on an
    unknown property name. *)
