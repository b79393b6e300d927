(** Dense int-indexed views of the network, and the O(V+E) separation
    machinery the data-center-scale paths run on.

    {!Graph} already keys nodes by dense ints; this module adds the
    missing dense layer: a CSR snapshot assigning every [(node, port)]
    wire end a contiguous {e channel id} (prefix sums over port
    counts), and linear-time bridge / separated-set computation on
    explicit edge arrays. The per-edge BFS formulations in {!Core_set}
    and the mapper's PRUNE are quadratic-or-worse; at 10k hosts they
    dominate everything else, so both are re-expressed on the routines
    here. The structural-value-keyed APIs remain as thin views. *)

type t
(** An immutable CSR snapshot of a {!Graph.t} taken by {!of_graph}.
    Later mutations of the source graph are not reflected. *)

val of_graph : Graph.t -> t

val num_channels : t -> int
(** Total wire ends: the sum of every node's port count. *)

val channel_of : t -> Graph.wire_end -> int option
(** Dense channel id of a wire end, or [None] when the node or port
    lies outside the snapshot (added to the graph after {!of_graph}). *)

val end_of : t -> int -> Graph.wire_end
(** Inverse of {!channel_of}. @raise Invalid_argument out of range. *)

val peer : t -> int -> int
(** Channel id on the far side of the wire plugged in at this channel,
    or [-1] when the port was vacant at snapshot time. *)

val to_graph : t -> Graph.t
(** Rebuild a fresh {!Graph.t} from the snapshot (round-trip check:
    node order, kinds, names and wires are reproduced exactly). *)

(** {1 Linear-time separation on explicit edge arrays}

    These operate on a multigraph given as parallel arrays
    [edge_u.(i), edge_v.(i)] (self edges and parallel edges allowed)
    so both the actual network ({!Core_set}) and the mapper's model
    multigraph can share one implementation. *)

val bridge_flags :
  nodes:int -> edge_u:int array -> edge_v:int array -> bool array
(** [bridge_flags ~nodes ~edge_u ~edge_v] marks each edge id that is a
    bridge, via one iterative Tarjan pass; parallel edges are
    distinguished by id, so neither of a doubled pair is a bridge. *)

val separation :
  nodes:int ->
  edge_u:int array ->
  edge_v:int array ->
  is_host:(int -> bool) ->
  candidate:(int -> bool) ->
  whole_components:bool ->
  bool array * int array
(** Theorem 1's F set in O(V+E): a node is marked when some
    {e candidate} bridge (in the mapper, a switch-switch cable)
    separates it, together with its whole side, from every host. The
    computation builds the bridge forest over 2-edge-connected
    components and decides each side by subtree host counts instead of
    one BFS per edge.

    With [whole_components], a connected component containing no host
    at all is additionally marked entirely as soon as it contains any
    candidate edge, bridge or not — the mapper's PRUNE applies the
    separation criterion to every switch-switch cable, and on a
    hostless component a non-bridge cable separates the component
    (trivially, as one side) from all hosts.

    Returns [(in_f, sep_edge)]: the mark per node, and for marked
    nodes the id of a candidate edge responsible for the separation
    ([-1] elsewhere) — the provenance ledger cites it. *)
