(** First-in first-out queue used as the mapper's frontier.

    A thin wrapper over [Queue] that adds the [next_element] interface
    the paper's pseudo-code uses (pop returning [None] on empty) and a
    length counter that is O(1). *)

type 'a t

val create : unit -> 'a t
val add : 'a t -> 'a -> unit
val next_element : 'a t -> 'a option

val pop : 'a t -> 'a
(** The first element, removed, without the option {!next_element}
    allocates. @raise Queue.Empty on an empty queue. *)

val peek : 'a t -> 'a option
val length : 'a t -> int
val is_empty : 'a t -> bool
val to_list : 'a t -> 'a list
