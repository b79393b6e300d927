(** Compliant shortest paths, one destination at a time.

    The paper computes routes over paths compliant with the UP*/DOWN*
    orientation. We work on the phase-expanded graph — states are
    [(node, Up | Down)], an up edge keeps the Up phase, a down edge
    enters and stays in the Down phase — which makes every shortest
    path automatically compliant.

    Distances are produced by one backward BFS per {e destination}
    over the reversed phase DAG: O(E) time and O(V) memory per
    destination, computed lazily on first use. A [t] holds one
    distance vector, the last destination's, so a query toward another
    destination runs the BFS again; every caller walks
    destination-major or compiles anchor by anchor, so each
    destination's vector is computed once. This replaces the earlier all-pairs Floyd–Warshall,
    whose O(V³) time and [(2V)²] matrix cannot survive the 10k-host
    fabrics — peak memory is now one distance vector no matter how
    many pairs are routed.

    Every query reads one dense adjacency built by {!compute}: per
    port slot, one packed int holding the peer node, the far port and
    whether the move is up, so neither the BFS nor the walks touch the
    graph or the orientation again.

    Reconstruction walks forward along distance-decreasing states.
    Tie-breaking is deterministic by default — the first shortest
    continuation in port order — so identical fabrics always yield
    identical paths, and tables stay stable across remaps (port
    numbering mirrors the physical switch; discovery-order node ids do
    not). Randomized spreading over equal paths is an explicit
    opt-in.

    Two compilers share that default walk. {!route_into} writes one
    pair's turns into a buffer; {!compile} builds every route toward
    the hosts behind one edge switch at once, from one BFS, as
    memoised per-state suffixes per destination, so the routes share
    their tails. They agree route for route. *)

open San_topology

type t

val compute : Updown.t -> t
(** Set up lazy per-destination distances; no path computation happens
    until {!distance}, a route query or {!compile} asks about a
    destination. The one distance vector ([2 · num_nodes] ints) is
    allocated here and shared by all three: each runs the BFS only
    when the vector is another node's. *)

val distance : t -> src:Graph.node -> dst:Graph.node -> int option
(** Compliant hop distance, [None] if unreachable without an illegal
    turn. *)

val route_into :
  ?rng:San_util.Prng.t ->
  ?prefer:(Graph.node -> Graph.node -> float) ->
  t ->
  src:Graph.node ->
  dst:Graph.node ->
  buf:int array ->
  int
(** The pair compiler: walk one shortest compliant path from [src] to
    [dst] along [dst]'s distance vector and write its turn string
    (at each switch, exit port minus entry port; nothing for leaving a
    host) into [buf]. Returns the turn count, or [-1] when no
    compliant path exists. [buf] needs [Graph.num_nodes] slots. Each
    hop scans the node's port slots in place, and the distance vector
    is refilled in place when [dst] is not the last destination asked
    about, so the walk allocates nothing. The default walk memoises
    each state's exit port for the current destination (one
    [2 · num_nodes] array, cleared when the destination changes), so
    walking a destination's routes from every source scans each
    state's ports once; callers walking many pairs go
    destination-major to keep the memo and the distance vector warm.
    The memo never changes a route. Whole tables of default routes are
    cheaper through {!compile}; this is the path for single lookups
    and for [prefer] and [rng] walks.

    Deterministic by default: the first port leading one hop closer,
    which is the first shortest continuation in port order and, over
    parallel wires to it, the lowest port. [prefer u v] biases the
    choice instead — the hop with the least penalty wins, port order
    breaking exact ties — which is how traffic-aware serving steers
    equal-cost multipath away from hot links. [rng] overrides both
    with the paper's uniform load-balancing: one draw per hop over the
    closer ports while walking, then one draw per hop over the
    parallel wires joining the chosen nodes. *)

val anchor : t -> Graph.node -> Graph.node
(** [anchor t d] is the node whose distance vector serves the routes
    to host [d]: the switch at the far end of [d]'s one cable when the
    hop from that switch to [d] is a down move — every host, in an
    up*/down* order rooted at a switch — else [d] itself (an unwired
    host, a host cabled to a host, or a host whose cable is an up move
    because the order is rooted at it). *)

type record
(** What the compiles on one [t] leave for the next epoch's compile:
    the packed wiring, each compiled anchor's exit memo (one byte per
    state, two on switches of 255 ports or more: the exit port, or
    none where no walk took one) and each compiled destination's anchor
    and cable port. *)

val record : t -> record
(** The record of every {!compile} on [t] so far. *)

type prior
(** The previous epoch's compile, as {!compile} and {!reuse} reuse it,
    with the wiring diff between the two graphs. *)

val prior :
  t ->
  record ->
  node:int array ->
  set:(int -> int -> int -> unit) ->
  prior
(** [prior t record ~node ~set] is the previous table's compiles
    [record] seen from [t]'s graph: [node] gives each node of this
    graph its counterpart in the previous graph, or -1 (no two nodes
    may share one), and [set d i cell] stores a {!Cell} {!compile}
    changes, row [d], column [i]. Compares the two wirings once, O(V +
    ports): the diff is {e removal-only} when every node has a
    counterpart with as many ports, every wired port holds the same
    wire under the matching (the peer's counterpart, the far port, the
    up bit), and every other port was wired before and is unwired
    now. *)

val reuse : prior -> t -> anchor:Graph.node -> dsts:(Graph.node * int) list -> bool
(** [reuse p t ~anchor ~dsts] is [true] when every route toward [dsts]
    (hosts whose {!anchor} is [anchor]) is provably the previous one,
    and then records them as {!compile} would, without a BFS, a
    clean-state scan or walks: the diff is removal-only, each
    destination's counterpart had the anchor's counterpart as its
    anchor over the same cable port, and none of the exits recorded
    toward the anchor's counterpart leaves on a removed port. Removing
    wires cannot shorten a path, so while that exit tree survives every
    state on it keeps its distance and its first closer port; the
    anchor's recorded exits carry over, moved to this graph's node
    ids. [false] changes nothing: the anchor takes {!compile}. *)

val compile :
  ?prior:prior ->
  t ->
  cells:Cell.t ->
  anchor:Graph.node ->
  dsts:(Graph.node * int) list ->
  srcs:Graph.node array ->
  into:int array array ->
  int
(** Every default route toward each [(dst, d)] of [dsts], hosts whose
    {!anchor} is [anchor]: cell [i] of row [into.(d)] gets the {!Cell}
    in store [cells] of the route from host [srcs.(i)], the one
    {!route_into}'s default walk writes, or {!Cell.none} when
    [srcs.(i) = dst] or no compliant path exists. Every cell of [into]
    must be of [cells]; a cell that already holds the route is left as
    it is. Returns how many routes were walked.

    From every state but [dst]'s own, [dst] is one hop farther than
    its anchor, and the default walk's first closer port is the same
    toward both; so the route to [dst] is the route to the anchor
    followed by one turn at the anchor, onto [dst]'s cable. One
    backward BFS from the anchor and one exit memo aimed at it serve
    every destination behind it. Then, for a fixed destination, the
    turns a route emits after it leaves a phase state depend on that
    state alone, so each destination is compiled as one memoised
    suffix cell per state: when the next node is the anchor, the
    anchor's last turn (or the empty route when the anchor is [dst]),
    else the turn at the next node put before the next state's suffix
    ({!Cell.cons}: a shift and an or while the route packs inline, one
    hash-consed pool cell on top of the suffix's past that). A source's
    route is the suffix of its Up state. Each state's ports are scanned
    once per anchor and each state's cell is made once per
    destination, so a long route costs at most one pool cell beyond
    those it shares with every other route through its tail.

    With [prior], [into] must hold each pair's previous cell: the
    route between the counterparts of its hosts, {!Cell.none} where
    either has none. A changed cell is stored through the prior's
    [set], never written in place, so rows may be shared with the
    previous table. A
    route is kept rather than walked when the walk provably did not
    change. A state is {e clean} when its exit is the one [prior]
    recorded for its counterpart toward the anchor's counterpart, the
    wire on that port is the same (the peer's counterpart, the far
    port, the up bit), and the next state is the anchor or clean
    itself; each state is judged once per anchor. For a destination
    whose counterpart had the anchor's counterpart as its anchor, over
    the same cable port, the cell of every reachable source whose Up
    state is clean is left untouched. Every other pair is written as
    without [prior], so the table is the one a compile without it
    gives, and a compile without it is the case where no column is
    kept. *)

val node_path :
  t -> src:Graph.node -> dst:Graph.node -> Graph.node list option
(** The node sequence [src; ...; dst] the default (memoised) walk of
    {!route_into} takes. *)
