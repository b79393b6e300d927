(** Route cells: one int per route, the one format in which the route
    table ({!Routes}), the delta ledger ([San_service.Delta]) and the
    serving plane ({!Serve}) store a turn string.

    A route whose turns fit in one word is packed into its cell: each
    turn, offset by the radix, in as many bits as [2 · radix − 1]
    needs, and the length in the low bits; {!inline_turns} fit (11 at
    radix 16, 9 at radix 32). A longer route is interned into a
    shared-suffix {!Pool} and its cell is the pool cell's index. {!none}
    marks a pair with no route. A route has exactly one cell in a store,
    so two cells of one store are equal exactly when their routes
    are. *)

(** Hash-consed route storage: each cell is a turn plus a shared
    suffix, and a route is a cell index ([-1] for the empty route).
    Reading back never allocates. *)
module Pool : sig
  type t

  val create : unit -> t

  val add : t -> San_simnet.Route.t -> int
  (** Intern a turn string, sharing any suffix already present. *)

  val write : t -> int -> int array -> int
  (** [write t idx buf] writes the route into [buf] (which
      {!max_depth} sizes) and returns its length. *)

  val to_route : t -> int -> San_simnet.Route.t

  val cells : t -> int
  (** Distinct (turn, suffix) cells — the pool's resident size. *)

  val entries : t -> int
  (** Routes interned whole (duplicates counted). *)

  val turns_total : t -> int
  (** Turns summed over those routes — what naive storage holds. *)

  val max_depth : t -> int
  (** Longest route in the pool. *)

  val packed_bytes : t -> int
  (** Wire cost of the pooled encoding: a 3-byte route reference per
      entry plus 4 bytes per cell (turn byte + 3-byte suffix
      reference), against [3 + length] per naive entry
      ({!Distribute.entry_bytes}). *)
end

type t
(** A cell store: the layout of one radix and the pool its long routes
    intern into. *)

val create : radix:int -> t
val radix : t -> int
val pool : t -> Pool.t

val inline_turns : t -> int
(** The most turns a cell packs. *)

val none : int
(** The cell of a pair with no route, in every store. *)

val empty : int
(** The cell of the empty route, in every store. *)

val pack : t -> int array -> int -> int
(** [pack t buf len] is the cell of [buf.(0 .. len-1)]; a route longer
    than {!inline_turns} is interned into the pool. *)

val intern : t -> int array -> int -> int
(** {!pack}, with the route interned into the pool even when it packs,
    so the pool's counts cover every route. *)

val cons : t -> int -> int -> int
(** [cons t turn c] is the cell of [turn] followed by route [c]: a
    shift and an or while it packs, else one pool cell. *)

val length : t -> int -> int
(** The route's turn count; [-1] for {!none}. *)

val write : t -> int -> int array -> int
(** [write t c buf] writes the route into [buf] and returns its length,
    or [-1] for {!none}, without allocating. An inline cell unpacks
    every field up to {!inline_turns} when [buf] has room (a loop of
    fixed length is predicted, where one of [len] turns is not), so
    slots past the length may be overwritten. *)

val to_route : t -> int -> San_simnet.Route.t option
(** The route, allocated; [None] for {!none}. *)

val equal : t -> int -> t -> int -> bool
(** [equal a x b y]: whether cell [x] of store [a] and cell [y] of
    store [b] hold the same route, or both none. One comparison within
    a store or between inline cells of one layout; otherwise the turns
    are compared one by one, without allocating. *)
