(** Region planning for the mapping plane's concurrent mappers.

    The paper's §6 sketch has every host map its local region; a plan
    decides what "local" means for N concurrent mappers, and
    {!Runner.execute} runs any plan. {!local} is the §6 sketch itself:
    k spread hosts, each exploring unscoped to a fixed depth, their
    views trimmed to a trust radius. {!plan} is the sharded mapping
    plane. It partitions the reference topology's switches into N disjoint
    ownership cells (a seeded multi-source BFS from each mapper's
    attachment switch, so cells are connected and deterministic), then
    derives, per shard:

    - an {e exploration scope}: on large fabrics, the shard fully
      expands exactly its own cell plus the one-switch ring around it
      (so every cross-cell wire has both port frames in its owner's
      view), plus designated {e anchor paths}:
      {!San_topology.Merge_maps} identifies two views' anonymous
      switches only outward from a shared uniquely-named host, so
      every hostless {e seam component} (a connected piece of two
      scopes' intersection with no attached responding host — typical
      of core/aggregation boundaries) gets the switch path to its
      nearest responding host threaded into both scopes, and every
      shard pair without a naturally shared responding host gets a
      common anchor host threaded from both mappers. An unanchored
      seam would not fail loudly: the union would materialise
      duplicate switch copies and only a third view wired to both
      copies exposes the mistake as a frame conflict.
      Low-diameter fabrics put most switches within a few
      hops of {e every} host, so ownership — not any distance ball —
      is what makes a shard strictly cheaper than the global mapper.
      Small fabrics instead run unscoped under the exact per-root
      oracle depth [Q + D + 1] (trust-ball radii with anchor
      widening), which keeps the merged map exact by Theorem 1.
    - a {e trust radius} for the runner's trim: large enough to keep
      everything the scope explores.
    - an advisory {e probe budget} to report overruns against.

    Everything is a pure function of [(graph, seed, shards)]: the plan
    is replayable from its header. The reference topology is the
    operator's cabling plan or the previous epoch's map — exactly what
    the daemon's remap loop holds; shards verify it by probing, and
    divergence surfaces as merge conflicts. *)

open San_topology

type shard_plan = {
  idx : int;
  mapper : Graph.node;  (** mapper host, in the fabric's coordinates *)
  mapper_name : string;
  radius : int;  (** trim radius around the mapper *)
  depth : int;  (** fixed exploration depth for this shard *)
  budget : int;  (** advisory probe budget *)
  owned : int;  (** switches in this shard's ownership cell *)
  covered : int;  (** nodes in this shard's exploration scope *)
}

(** How shards explore and what of their views is merged. *)
type mode =
  | Oracle
      (** unscoped, each at its per-root oracle depth [Q + D + 1]; views
          merged whole *)
  | Scoped
      (** expanding only the shard's scope; views trimmed at [radius] *)
  | Local
      (** §6: unscoped at a fixed depth; views trimmed at [radius] *)

type t = {
  seed : int;
  shards : int;  (** realised count after clamping to eligible hosts *)
  plans : shard_plan list;
  scopes : bool array array;
      (** [scopes.(i).(v)]: shard [i] fully expands switch [v] —
          ownership cell + ring + anchor paths (large fabrics) or the
          trust ball (small fabrics) *)
  coordinator : int;
      (** index of the coordinator shard: its mapper is the
          highest-address eligible host, the paper's §4.2 leader rule *)
  comp_nodes : int;  (** nodes in the mapped component *)
  overlap : float;
      (** sum of scope sizes over component size; 1.0 = no overlap *)
  mode : mode;  (** [Oracle] on small fabrics, [Scoped] on large ones *)
}

val plan :
  ?seed:int ->
  ?root:Graph.node ->
  ?responding:(Graph.node -> bool) ->
  Graph.t ->
  shards:int ->
  (t, string) result
(** [plan g ~shards] partitions [g] for [shards] concurrent mappers.
    [root] anchors the mapped component and is always one of the
    chosen mappers (defaults to the first eligible host); the others
    are spread evenly over the eligible hosts of its component from a
    [seed]-drawn offset. [responding] restricts both mapper
    choice and anchor-host designation (silent hosts anchor nothing).
    The shard count is clamped to the eligible hosts of the root's
    component. *)

val local :
  Graph.t -> mappers:int -> depth:int -> radius:int -> (t, string) result
(** [local g ~mappers:k ~depth:d ~radius:r] is the paper's §6 parallel
    mapper as a plan: the [k] hosts {!spread_mappers} places, each
    exploring unscoped to the fixed depth [d], their views trimmed to
    the trust radius [r] (the outermost ring of a depth-bounded
    exploration can hold replicates that had no chance to merge).
    Mode {!Local}, seed 0. [Error] when [k < 1] or [g] has no host. *)

val spread_mappers : Graph.t -> count:int -> Graph.node list
(** [count] distinct hosts spread evenly over the host list, starting
    at the first host. [count] is clamped to the host population — the
    result never repeats a node. *)

val trim : Graph.t -> center:Graph.node -> radius:int -> Graph.t
(** [trim map ~center ~radius] keeps the trusted core of a local map:
    switches within [radius] hops of [center] plus their directly
    attached hosts, and the wires among the kept nodes. *)

val distances : Graph.t -> t -> int array array
(** Per-shard BFS distance arrays from each mapper, in plan order —
    the same arrays the planner used; recomputed on demand. *)

val pp : Format.formatter -> t -> unit
(** One line per shard: mapper, cell size, scope size, radius, depth,
    budget. *)
