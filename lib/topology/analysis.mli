(** Structural analysis of actual networks: distances, diameter,
    connectivity. All functions treat the multigraph as undirected and
    unweighted (one hop per wire), matching the paper's notion of
    distance as number of turns. *)

val bfs_distances : Graph.t -> Graph.node -> int array
(** [bfs_distances g src] gives hop distance from [src] to every node;
    unreachable nodes get [max_int]. *)

val distance : Graph.t -> Graph.node -> Graph.node -> int option

val diameter : Graph.t -> int
(** Greatest distance between any two connected nodes; 0 for graphs
    with fewer than two nodes. *)

val is_connected : Graph.t -> bool

val components : Graph.t -> Graph.node list list
(** Connected components, each as a sorted node list. *)

val component_of : Graph.t -> Graph.node -> Graph.node list
(** Sorted list of nodes reachable from the given node (inclusive). *)

val farthest_switch_from_hosts : Graph.t -> ignore:Graph.node list -> Graph.node option
(** The switch maximising its minimum distance to any host, with the
    hosts in [ignore] excluded from the distance computation (the paper
    excludes the designated utility host when rooting the UP*/DOWN* tree).
    Ties break towards the smallest node id. [None] if the graph has no
    switch or no non-ignored host. *)

val hop_histogram : Graph.t -> Graph.node -> (int * int) list
(** [(distance, node-count)] pairs from a source, ascending. *)

val hottest_links :
  Graph.t ->
  weight:(Graph.wire_end * Graph.wire_end -> float) ->
  ((Graph.wire_end * Graph.wire_end) * float) list
(** Every wire of the graph scored by [weight] (ends in the canonical
    order {!Graph.wires} uses), heaviest first; ties break towards the
    smaller end pair so renderings are stable. *)
