(** The route-serving plane: answer "how do I get from [src] to
    [dst]?" at memory-bandwidth speed, on fabrics far too large for an
    all-pairs table.

    Tables are compiled lazily, one destination at a time, from the
    per-destination distances of {!Paths} — O(E) work per destination,
    through the one distance vector {!Paths} holds. The tables are kept
    in a bounded FIFO cache indexed by node, the oldest evicted first.
    Every compiled turn string is interned into a shared-{e suffix}
    pool: routes converging on one destination share their down-phase
    tails (and, reversed, per-source slices share their up-phase
    heads), so the pool is a hash-consed trie generalizing the [Delta]
    idea — never ship or store bytes the receiver can already derive —
    from {e between} epochs to {e within} a table.

    A table holds one {!Cell} per source host: a route short enough
    ({!inline_turns}) is packed into its cell, a longer one is the
    index of its pool cell, and a pair with no route is {!Cell.none}.

    The hot path ({!lookup_into}) is allocation-free once a
    destination's table is warm: one array read finds the table, one
    more its cell, which {!Cell.write} unpacks into the caller's buffer
    with shifts or reads back from the pool one turn per cell. *)

open San_topology

module Pool = Cell.Pool
(** Every route a table holds is interned into its pool, so {!stats}
    do not depend on which routes were packed. *)

type t

val create :
  ?cache_limit:int ->
  ?prefer:(Graph.node -> Graph.node -> float) ->
  Graph.t ->
  t
(** Orient the graph ({!Updown.build}'s default root and labeling) and
    set up the lazy serving plane; nothing is compiled until the first
    query. [cache_limit] (default 64, minimum 1) bounds resident
    per-destination tables, one int per source host each; with the one
    distance vector the compiler reuses, memory stays
    O([cache_limit] · hosts + V) plus the pool.
    [prefer u v] is the traffic-awareness hook: a penalty (say,
    measured link heat plus loss) steering equal-cost multipath away
    from hot links. Serving
    is always deterministic — same fabric, same penalties, same
    routes. *)

val lookup_into : t -> src:Graph.node -> dst:Graph.node -> buf:int array -> int
(** The production query: turn count written into [buf], or [-1] when
    [src = dst], either end is not a host of the graph (out of range
    included), or no compliant route exists. Compiles the
    destination's table on first touch; afterwards the path is
    allocation-free: the table is read at [dst], its cell at [src]'s
    host slot, and {!Cell.write} unpacks it or reads it back from the
    pool. Size [buf] with {!max_route_len}. Slots past the route's
    length, up to [inline_turns], may be overwritten too when [buf] has
    them. *)

val lookup : t -> src:Graph.node -> dst:Graph.node -> San_simnet.Route.t option
(** Allocating convenience wrapper over {!lookup_into}. *)

val batch : t -> (Graph.node * Graph.node) array -> buf:int array -> int
(** Serve a batch of queries through the zero-allocation path,
    returning how many were answerable. Grouping a batch by
    destination costs nothing here but maximizes warm hits. *)

val warm : t -> dst:Graph.node -> unit
(** Compile a destination's table ahead of the first query, evicting
    the oldest resident table when [cache_limit] are. A no-op on
    exactly the destinations {!lookup_into} answers [-1] for without a
    table: a node out of range or one that is not a host, which no
    query can read a table of. *)

val inline_turns : t -> int
(** The most turns a table cell packs inline; longer routes are read
    back from the pool. Fixed by the graph's radix: 11 at radix 16,
    19 at radix 4. *)

val max_route_len : t -> int
(** Longest route compiled so far; [lookup_into] buffers of
    [Graph.num_nodes] are always safe. *)

type stats = {
  destinations : int;  (** per-destination tables compiled (lifetime) *)
  resident : int;  (** tables currently cached *)
  entries : int;  (** routes interned into the pool (lifetime) *)
  pool_cells : int;  (** distinct cells — the sharing denominator *)
  turns_total : int;  (** turns a naive table would store *)
  packed_bytes : int;  (** pooled wire cost ({!Cell.Pool.packed_bytes}) *)
  naive_bytes : int;  (** [3 + length] per entry, summed *)
}

val stats : t -> stats
