(** Worm path evaluation: the §2.2 message-path semantics.

    Given a source host and a turn string, computes the path the worm
    head takes through the actual network and how the attempt ends.
    Path legality is purely structural here; whether the worm survives
    its own edge reuse is the {!Collision} module's concern.

    There is one evaluator, {!fill}: it writes the path into a reusable
    {!walk} of flat int buffers, allocates nothing and walks only the
    hops the route does not share with the walk's last one. It is what
    the probe service ({!Network}) runs on every probe. {!eval} is the
    list-shaped read-out of the same evaluator for callers off that hot
    path. *)

open San_topology

type hop = {
  exit_end : Graph.wire_end;  (** the (node, port) the head leaves through *)
  entry_end : Graph.wire_end;  (** the (node, port) it arrives at *)
}

type outcome =
  | Arrived of Graph.node
      (** routing flits exhausted exactly as the head reached this host *)
  | Illegal_turn of int
      (** turn index whose sum left the port range (ILLEGAL TURN) *)
  | No_such_wire of int  (** turn index selecting a vacant port *)
  | Hit_host_too_soon of int * Graph.node
      (** arrived at a host with turns left; the hardware discards it *)
  | Stranded of Graph.node  (** flits exhausted at a switch *)
  | Unwired_source  (** the source host has no cable at all *)

type trace = { hops : hop list; outcome : outcome }
(** [hops] lists every wire crossing the head performed, in order,
    including crossings on a failed attempt up to the failure point. *)

(** {1 The evaluator} *)

(** How a walk ended: the constructors of {!outcome} without their
    arguments, which live in [stop_index] and [stop_node]. *)
type stop =
  | Stop_arrived  (** {!Arrived} at [stop_node] *)
  | Stop_illegal_turn  (** {!Illegal_turn} at [stop_index] *)
  | Stop_no_such_wire  (** {!No_such_wire} at [stop_index] *)
  | Stop_host_too_soon
      (** {!Hit_host_too_soon} at [stop_index], host [stop_node] *)
  | Stop_stranded  (** {!Stranded} at switch [stop_node] *)
  | Stop_unwired  (** {!Unwired_source} *)

type walk = private {
  mutable route : int array;  (** the turns as given, [route_len] used *)
  mutable route_len : int;
  mutable mirror : bool;
      (** the route sent is the loopback [a1..ak 0 -ak..-a1] of [route] *)
  mutable radix : int;  (** of the graph walked *)
  mutable exit_node : int array;
      (** hop [j] leaves through [(exit_node.(j), exit_port.(j))] *)
  mutable exit_port : int array;
  mutable entry_node : int array;
      (** and arrives at [(entry_node.(j), entry_port.(j))] *)
  mutable entry_port : int array;
  mutable hop_fill : int array;
      (** hop [j] was written by fill number [hop_fill.(j)]; these never
          decrease along the walk *)
  mutable nhops : int;  (** wire crossings, the used prefix of the hop arrays *)
  mutable stop : stop;
  mutable stop_index : int;
  mutable stop_node : Graph.node;
  mutable fills : int;  (** fills so far; the last one's number *)
  mutable graph : Graph.t;  (** walked by the last fill *)
  mutable edits : int;  (** {!Graph.edits} of [graph] at the last fill *)
  mutable src : Graph.node;  (** of the last fill *)
  mutable loaded : bool;
      (** the last fill loaded all its turns (it did not raise half-way) *)
}
(** One worm's path in flat buffers. Each {!fill} keeps the hops its
    route shares with the last fill's and walks only the rest (see
    {!fill}). The buffers grow to the longest route seen and are never
    shrunk. *)

val walk : unit -> walk
(** An empty walk. *)

val fill :
  walk -> Graph.t -> src:Graph.node -> turns:Route.t -> mirror:bool -> unit
(** Drive a worm out of host [src] and record its path in the walk.
    With [~mirror:false] the route is [turns]; with [~mirror:true] it is
    {!Route.switch_probe}[ turns], read in place and never built. A
    walk that fits its buffers allocates nothing.

    The cost is the hops the new path does not share with the walk's
    last one. If the last fill walked the same graph (physically), with
    no {!Graph.edits} since, from the same [src], and loaded all its
    turns, the [r] leading turns both routes share fix hops [0..r]
    (as far as the last worm got): those are kept, with their
    [hop_fill], and the worm steps on from the last of them. Otherwise
    nothing is kept and the worm walks from [src]. A loopback whose
    head reaches a switch at the bounce is not walked back: its return
    crossings are its outbound ones reversed, copied.
    @raise Invalid_argument as {!eval}; a fill that raises while loading
    its turns leaves a walk the next fill does not resume from. *)

val outcome : walk -> outcome
(** The walk's ending as an {!outcome}. *)

val hop : walk -> int -> hop
(** [hop w j] is wire crossing [j] ([0 <= j < w.nhops]). *)

val trace_of : walk -> trace

(** {1 List read-out} *)

val eval : Graph.t -> src:Graph.node -> turns:Route.t -> trace
(** Drive a worm with the given turn string out of host [src]: {!fill}
    into a fresh walk, read out as a {!trace}.
    @raise Invalid_argument if [src] is not a host or a turn is outside
    the radix alphabet. *)

val path_nodes : Graph.t -> src:Graph.node -> trace -> Graph.node list
(** The node sequence [h0; n1; ...] visited by the head. *)

val pp_outcome : Format.formatter -> outcome -> unit
