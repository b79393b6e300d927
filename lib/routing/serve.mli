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

    A table holds one int per source host. A route whose turns fit in
    one word is packed into its cell: the turn width comes from the
    radix (a turn, offset by the radix, in as many bits as
    [2 · radix − 1] needs), the length sits in the low bits, and
    {!inline_turns} is how many turns fit. A longer route's cell holds
    its pool cell index instead, and a pair with no route a marker.
    Every route is interned into the pool either way, so {!stats} do
    not depend on which routes were packed.

    The hot path ({!lookup_into}) is allocation-free once a
    destination's table is warm: one array read finds the table, one
    more its cell; an inline cell is unpacked into the caller's buffer
    with shifts, and a pool cell is read back one turn per cell. *)

open San_topology

(** Hash-consed route storage: each cell is a turn plus a shared
    suffix; a route is a cell index. Interning is cold-path; reading
    back never allocates. *)
module Pool : sig
  type t

  val create : unit -> t

  val add : t -> San_simnet.Route.t -> int
  (** Intern a turn string, sharing any suffix already present.
      Returns the route's cell index ([-1] for the empty route). *)

  val write : t -> int -> int array -> int
  (** [write t idx buf] reconstructs the route into [buf.(0..len-1)]
      and returns [len]. Allocation-free. [buf] must have room;
      {!max_depth} bounds the need. *)

  val to_route : t -> int -> San_simnet.Route.t
  (** Allocating convenience inverse of {!add}. *)

  val cells : t -> int
  (** Distinct (turn, suffix) cells — the pool's resident size. *)

  val entries : t -> int
  (** Routes interned (lifetime, duplicates counted). *)

  val turns_total : t -> int
  (** Turns summed over interned routes — what naive storage holds. *)

  val max_depth : t -> int
  (** Longest interned route; sizes {!write} buffers. *)

  val packed_bytes : t -> int
  (** Wire cost of the pooled encoding: a 3-byte route reference per
      entry plus 4 bytes per cell (turn byte + 3-byte suffix
      reference). Compare with [3 + length] per naive entry
      ({!Distribute.entry_bytes}). *)
end

type t

val create :
  ?cache_limit:int ->
  ?root:Graph.node ->
  ?ignore_hosts:Graph.node list ->
  ?labeling:Updown.labeling ->
  ?prefer:(Graph.node -> Graph.node -> float) ->
  Graph.t ->
  t
(** Orient the graph and set up the lazy serving plane; nothing is
    compiled until the first query. [cache_limit] (default 64,
    minimum 1) bounds resident per-destination tables, one int per
    source host each; with the one distance vector the compiler reuses,
    memory stays O([cache_limit] · hosts + V) plus the pool.
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
    host slot, and the route unpacked from an inline cell or, past
    {!inline_turns} turns, read back from the pool with
    {!Pool.write}. Size [buf] with {!max_route_len}. Slots past the
    route's length, up to [inline_turns], may be overwritten too when
    [buf] has them. *)

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

val graph : t -> Graph.t
val updown : t -> Updown.t

type stats = {
  destinations : int;  (** per-destination tables compiled (lifetime) *)
  resident : int;  (** tables currently cached *)
  entries : int;  (** routes interned into the pool (lifetime) *)
  pool_cells : int;  (** distinct cells — the sharing denominator *)
  turns_total : int;  (** turns a naive table would store *)
  packed_bytes : int;  (** pooled wire cost ({!Pool.packed_bytes}) *)
  naive_bytes : int;  (** [3 + length] per entry, summed *)
}

val stats : t -> stats
