(** First-in first-out eviction for a node-indexed cache: the caller
    keeps one [int array] per node in an [int array array], the empty
    array meaning not resident, so finding a node's array is one array
    read with no hashing; this ring remembers which nodes are resident
    and in what order they came. {!Paths} keeps its distance vectors
    this way and {!Serve} its per-destination tables. *)

type t

val create : limit:int -> t
(** An empty ring for a cache of at most [limit] arrays (at least
    one). It holds no slots until the first {!add}. *)

val add : t -> int array array -> int -> int array -> unit
(** [add t slots node a] sets [slots.(node)] to [a], first emptying the
    oldest resident node's slot when the cache is full. [node] must not
    be resident, [a] must not be empty, and every call on [t] must pass
    the same [slots]. *)

val resident : t -> int
(** How many nodes are resident. *)
