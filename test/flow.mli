(** Minimal min-cost max-flow solver (successive shortest augmenting
    paths with Bellman–Ford), the reference that {!Q_reference} builds
    [Q(v)] on: [Q(v)] is the minimum total cost of two edge-disjoint
    unit paths out of [v] — a 2-unit min-cost flow. *)

type t

val create : int -> t
(** [create n] builds an empty flow network on nodes [0 .. n-1]. *)

val add_arc : t -> src:int -> dst:int -> cap:int -> cost:int -> unit
(** Add a directed arc. Costs must be non-negative for the solver's
    correctness guarantees. *)

val min_cost_flow : t -> source:int -> sink:int -> amount:int -> int option
(** [min_cost_flow t ~source ~sink ~amount] ships exactly [amount]
    units and returns the minimum total cost, or [None] when the
    network cannot carry that much flow. Resets any previous flow. *)

val max_flow_value : t -> source:int -> sink:int -> int
(** Maximum shippable amount (costs ignored). Resets previous flow. *)
