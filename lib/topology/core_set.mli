(** Bridges, switch-bridges, the separated set [F], and the paper's
    exploration-depth parameters.

    Definitions follow §3.1.4 of the paper: a {e bridge} is an edge
    whose removal disconnects the graph; a {e switch-bridge} is a
    bridge with switches at both ends; [F] is the set of nodes
    separated from every host by a switch-bridge (Lemma 1), and the
    {e core} of the network is [N - F]. [Q(v)] is the length of the
    shortest trail from the mapper host through [v] and on to any host
    repeating no edge in either direction, and
    [Q = max { Q(v) | v in N - F }]; the mapper explores to depth
    [Q + D + 1] where [D] is the diameter. *)

type edge = Graph.wire_end * Graph.wire_end

val bridges : Graph.t -> edge list
(** All bridge wires, in canonical end order. Parallel wires between
    the same node pair are never bridges. *)

val switch_bridges : Graph.t -> edge list
(** Bridges with a switch at both ends. *)

val separated_set : Graph.t -> bool array
(** [separated_set g] marks the nodes of [F]: for every switch-bridge,
    the side containing no host. *)

val core_nodes : Graph.t -> Graph.node list
(** Nodes of [N - F], sorted. *)

val core_is_empty_f : Graph.t -> bool
(** True when [F] is empty, the condition for the cut-through model's
    exactness (Theorem 1, second sentence). *)

val q_of : Graph.t -> root:Graph.node -> Graph.node -> int option
(** [q_of g ~root v] is [Q(v)] computed as a 2-unit min-cost flow: one
    unit from [v] to the mapper [root] (modelling the worm's outbound
    leg reversed), one from [v] to any host. Each directed channel of
    a wire is a separate unit-capacity resource — the confirming worm
    may cross a wire once in each direction, which resolves the
    paper's first-edge/last-edge coincidence anomaly natively (both
    legs may end on the root's cable) — except that the two legs must
    leave [v] by different wires (no mid-route turn-0). [None] when no
    such trail exists even via the two-trails-to-any-hosts fallback,
    which can only overestimate the true [Q(v)] — a safe direction for
    a search depth.

    The flow is solved on a residual arena of flat [int] arrays built
    once per graph: partially applied, [q_of g ~root] builds the
    forced-root arena (and the fallback's on first need), and each
    [v] it is then given costs two shortest-path passes — a 0-1 BFS,
    then Dijkstra on costs reduced by the BFS distances, both with a
    bucket queue — O(V + E) and no allocation. A one-off [q_of g ~root
    v] also pays O(V + E) to build the arena.
    @raise Invalid_argument if [root] is not a host. *)

val q_bound : Graph.t -> root:Graph.node -> int
(** [Q] = max of [q_of] over the core, from one arena: O(V·(V + E)).
    0 for degenerate graphs. *)

val search_depth : Graph.t -> root:Graph.node -> int
(** The oracle exploration depth [Q + D + 1]. *)
