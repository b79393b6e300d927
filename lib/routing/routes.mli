(** Source-route tables: the artifact the paper's system distributes
    to every network interface after mapping (§5.5).

    Routes are computed on the {e map}; because Myrinet routing flits
    encode relative turns, and the map's port numbering agrees with the
    actual network up to a constant shift per switch, a turn string
    computed on the map drives the actual network identically — this
    is why mapping up to indexing offsets suffices. [verify_delivery]
    checks exactly that, by evaluating every route as a worm, on the
    map or on the actual network. *)

open San_topology
open San_simnet

type t
(** One row per destination host, one {!Cell} per source host: a
    route is one int, packed inline when short enough and otherwise a
    cell of the table's shared-suffix pool ({!cells}). *)

val compute :
  ?rng:San_util.Prng.t ->
  ?prefer:(Graph.node -> Graph.node -> float) ->
  ?root:Graph.node ->
  ?ignore_hosts:Graph.node list ->
  ?labeling:Updown.labeling ->
  ?previous:t ->
  Graph.t ->
  t
(** Orient the graph (UP*/DOWN* orientation) and compile one turn
    route per ordered host pair. By default destinations are grouped
    by their {!Paths.anchor} (on a switch-rooted order, the edge
    switch each host hangs off) and each group is compiled whole with
    {!Paths.compile}: one backward BFS and one exit memo per anchor,
    then per destination one memoised suffix cell per phase state, so
    a route costs a shift and an or (a long route one pool cell on top
    of its tail's). With [prefer] or [rng] every pair is walked by
    {!Paths.route_into}, destination-major, so seeded draws are
    consumed one per hop in walk order, and each walk is packed into
    its cell. Either way the table is the one the pair compiler's walks
    give.

    Deterministic by default — identical fabrics yield byte-identical
    tables (ties go to the first shortest continuation and wire in
    port order), so independent daemons mapping the same network never
    see spurious delta churn. [prefer u v] steers equal-cost multipath
    toward least-penalty hops (traffic-aware tables); [rng] is the
    explicit opt-in for the paper's randomized spreading over equal
    paths and parallel wires.

    [previous] is the last epoch's table, routes that persist: nodes
    are matched to its nodes by name (and kind), once, and the new
    table starts from the previous one's rows of cells, one int array
    per destination, shared physically; a row is copied only when a
    changed cell is stored into it, so a compile that changes nothing
    copies [nh] row pointers, not [nh²] cells. The new table keeps the
    previous one's cell store (its pool grows with the new long
    routes), so a kept cell reads the same and an unchanged route is an
    equal int. The two wirings are compared once
    ({!Paths.prior}). When the difference is only wires removed, an
    anchor none of whose recorded exits leaves on a removed port keeps
    every row behind it without a BFS or a scan ({!Paths.reuse}):
    removing wires cannot shorten a path, so its exit tree, and every
    route along it, survives. Every other anchor is compiled by
    {!Paths.compile}, which keeps the previous cell for every pair
    whose walk provably did not change (the clean-state rule: same
    exits, same wires under the matching, same anchor and cable port)
    and walks only the others. The table is the one a compile without
    [previous] gives, whatever the two graphs are. When both tables
    have the same hosts by name, the new one also records which pairs
    changed ({!iter_changed}), so {!San_service.Delta} plans from that
    list. [previous] is ignored with [prefer] or [rng] and over a graph
    of another radix (whose cells have another layout), and a [prefer]
    or [rng] table keeps no record for a later compile. *)

val rewalked : t -> int
(** How many routed pairs were walked rather than kept from
    [previous]: every routed pair without one. *)

type generation
(** Names one computed table; compared with [==]. *)

val generation : t -> generation

val previous_generation : t -> generation option
(** The generation of the table this one was compiled against, when
    both have the same hosts by name; [None] otherwise. *)

val iter_changed : t -> (Graph.node -> Graph.node -> unit) -> unit
(** [f src dst] for every pair whose route differs from the table of
    {!previous_generation} (a route gained, lost or changed), in
    compile order; nothing when there is no such table. *)

val graph : t -> Graph.t
val updown : t -> Updown.t

val route : t -> src:Graph.node -> dst:Graph.node -> Route.t option
(** The turn string from [src] to [dst]; [None] when no compliant path
    exists, for [src = dst], and when either end is not a host of the
    graph. Two slot reads and two table reads, one row per destination
    slot and one cell per source slot, then the cell decoded. *)

val cell : t -> src:Graph.node -> dst:Graph.node -> int
(** {!route}'s cell, not decoded: {!Cell.none} wherever [route] is
    [None]. Read it with {!cells}. *)

val cells : t -> Cell.t
(** The store every cell of the table is of. *)

val iter : t -> (Graph.node -> Graph.node -> Route.t -> unit) -> unit
(** Every computed route as [f src dst turns], in ascending
    [(src, dst)] order, decoded one cell at a time, without building
    {!all}'s list. *)

val all : t -> (Graph.node * Graph.node * Route.t) list
(** Every computed route, in ascending [(src, dst)] order. *)

val unreachable_pairs : t -> (Graph.node * Graph.node) list
(** Ordered host pairs with no compliant route, ascending (empty on connected
    maps — UP*/DOWN* always connects a connected graph). *)

type length_stats = { pairs : int; min_len : int; avg_len : float; max_len : int }

val length_stats : t -> length_stats

val channel_loads : t -> (Graph.wire_end * int) list
(** Number of routes crossing each directed channel (identified by its
    exit wire end), by load descending, then by wire end ascending —
    exposes the root-congestion effect the paper notes for UP*/DOWN*. *)

val verify_delivery : ?against:Graph.t -> t -> (unit, string) result
(** Check every route's worm reaches the intended host. [against]
    (default: the routing graph) lets a map-derived table be validated
    on the actual network; hosts are matched by name. *)

val verify_updown : t -> (unit, string) result
(** Check every route's node path is a legal up*/down* path. *)
