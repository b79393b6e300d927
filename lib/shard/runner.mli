(** The runner: N concurrent mapper instances over one fabric.

    [execute] runs any {!Region.t}: one fixed-depth
    {!San_mapper.Berkeley} instance per planned shard, each on its own
    simulated {!San_simnet.Network} view of the same fabric (so probe
    accounting is per-shard), views trimmed with {!Region.trim} as the
    plan's mode asks, then merged through {!Merge}. The paper's §6
    parallel mapper is [execute] over {!Region.local}; the sharded
    mapping plane is [run], {!Region.plan} then [execute]. Shards are
    independent — the paper's quiescent-network concurrency — so the
    simulated parallel wall-clock is the slowest shard. The merge runs
    on the host and is reported apart, on the host clock. The
    coordinator is the shard whose mapper is the highest-address host
    (the §4.2 leader rule, as in {!San_mapper.Election_sim}).

    The whole run executes under {!San_why.Why.with_preserve}: with
    the ledger on, all shards append probes to one ledger and every
    merge-conflict resolution is a [shard.resolve] deduction citing
    probe evidence from both sides.

    [stale] marks one shard as holding a stale-epoch view: its network
    is a seeded rewiring of two overlap wires (the fabric as it looked
    before a recabling), which forces real, resolvable conflicts at
    merge time — the honest way to exercise the resolution path, since
    quiescent shards never contradict each other. *)

open San_topology

type shard_report = {
  s_idx : int;
  s_mapper : string;
  s_depth : int;
  s_radius : int;
  s_budget : int;
  s_probes : int;
  s_over_budget : bool;
  s_elapsed_ns : float;  (** simulated mapper time for this shard *)
  s_map_nodes : int;  (** nodes in the trimmed view; 0 = shard failed *)
  s_stale : bool;
  s_probe_cost : San_obs.Digest.t;
      (** this shard's probe-cost distribution as a mergeable quantile
          digest (empty when observability is off) *)
}

type result = {
  map : (Graph.t, string) Stdlib.result;
  plan : Region.t;
  reports : shard_report list;
  resolutions : Merge.resolution list;
  dropped_views : int list;
  total_probes : int;  (** the sum of the shards' [s_probes] *)
  wall_ns : float;  (** simulated parallel wall: the slowest shard *)
  sum_ns : float;  (** simulated work summed over the shards *)
  merge_ns : float;
      (** coordinator merge time, measured on the host clock (ns);
          never added to the simulated figures *)
  coordinator : string;  (** coordinator shard's mapper host *)
  probe_cost : San_obs.Digest.t;
      (** the per-shard digests merged: digest merge is exact, so
          fleet percentiles compose from shard percentiles without
          shipping raw samples *)
}

val execute :
  ?responding:(Graph.node -> bool) ->
  ?policy:San_mapper.Berkeley.policy ->
  ?params:San_simnet.Params.t ->
  ?traffic:float * San_util.Prng.t ->
  ?epoch:int ->
  ?stale:int ->
  Graph.t ->
  Region.t ->
  result
(** [execute g plan] maps [g] with one shard per planned mapper and
    merges the views. Shard failures surface as [s_map_nodes = 0]
    reports and reduced coverage in the merged map. [epoch] (default
    1) stamps the views; [stale] (a shard index) injects the seeded
    stale view described above at [epoch - 1], seeded from the plan. *)

val run :
  ?seed:int ->
  ?root:Graph.node ->
  ?responding:(Graph.node -> bool) ->
  ?policy:San_mapper.Berkeley.policy ->
  ?params:San_simnet.Params.t ->
  ?traffic:float * San_util.Prng.t ->
  ?epoch:int ->
  ?stale:int ->
  Graph.t ->
  shards:int ->
  (result, string) Stdlib.result
(** [run g ~shards] is {!Region.plan} then {!execute}. [Error] only
    when planning fails (no eligible mapper). *)
