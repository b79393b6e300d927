(** Source-route turn strings (§2.2).

    A route is a string of turns from the alphabet
    [{-(radix-1), ..., +(radix-1)}]. Each turn is added to the port a
    worm entered a switch on — {e not} modulo the radix — to select the
    output port; there is no way to address an absolute output port.
    Probe routes never contain the turn 0 except as the bounce in the
    middle of a loopback probe. *)

type turn = int

type t = turn list

val host_probe : t -> t
(** The host-probe route is the turn string itself: [a1 ... ak]. *)

val switch_probe : t -> t
(** The loopback route [a1 ... ak 0 -ak ... -a1] (§2.3): out to the
    switch k hops away, bounce off it, and retrace. *)

val is_switch_probe_shape : t -> bool
(** Recognises loopback-shaped routes (odd length, 0 exactly in the
    middle, second half the negated reverse of the first). *)

val forward_of_switch_probe : t -> t option
(** The [a1 ... ak] prefix of a loopback route, if it has the shape. *)

val valid : radix:int -> t -> bool
(** Every turn within the alphabet for the radix. *)

val pp : Format.formatter -> t -> unit
(** Renders like ["+1.-3.+2"]. *)

val to_string : t -> string
