(** First-in first-out queue of ints in one growable circular buffer:
    the mapper's frontier and the model's mergelist. Adding and taking
    allocate nothing once the buffer has grown to the queue's longest
    length; growth doubles it. *)

type t

val create : unit -> t
val add : t -> int -> unit

val pop : t -> int
(** The first element, removed. @raise Invalid_argument on an empty
    queue. *)

val length : t -> int
val is_empty : t -> bool
