(** The actual network [N]: a finite multigraph on hosts and switches.

    This is the paper's §2.1 system model. Nodes are hosts (exactly one
    port, numbered 0, carrying a unique name) or switches ([radix]
    ports, numbered [0 .. radix-1], anonymous). Each end of every wire
    is labelled with a port number and no two wire ends incident on the
    same node share a port number, so a wire end is uniquely identified
    by its [(node, port)] pair.

    The structure is mutable so it doubles as its own builder; all
    consumers (simulator, mapper, routing) only read it. *)

type kind = Host | Switch

type node = int
(** Dense node identifier. *)

type port = int

type wire_end = node * port

type t

(** {1 Construction} *)

val create : ?radix:int -> unit -> t
(** Fresh empty network. [radix] is the switch port count
    (default 8, the Myrinet crossbar degree). *)

val radix : t -> int

val add_host : t -> name:string -> node
(** Add a host with a unique name. @raise Invalid_argument on duplicate
    names. *)

val add_switch : t -> ?name:string -> unit -> node
(** Add a switch. The optional [name] is cosmetic (DOT output only);
    switches are anonymous to the protocols, exactly as in Myrinet. *)

val connect : t -> wire_end -> wire_end -> unit
(** [connect g (n1, p1) (n2, p2)] runs a wire between the two ports.
    @raise Invalid_argument if a port is out of range, already wired,
    or if both ends are the same [(node, port)] pair. Wires between two
    distinct ports of the same switch are allowed (same-switch cables
    exist in real deployments). *)

val disconnect : t -> wire_end -> unit
(** Remove the wire attached at the given end (both ends are freed).
    No-op if the port is vacant. *)

val edits : t -> int
(** How many times {!connect} and {!disconnect} have changed the wiring
    (a disconnect of a vacant port changes nothing). Caches of paths
    over the graph compare it to notice an edit. *)

val copy : t -> t
(** Deep copy; mutations on the copy do not affect the original. *)

val induced : t -> keep:(node -> bool) -> t
(** [induced g ~keep] is a fresh graph on the nodes [keep] accepts
    (asked once each, in node order) and every wire between two of
    them. Radix, names and port numbers are kept; node ids are
    renumbered densely in their old order. *)

(** {1 Interrogation} *)

val num_nodes : t -> int
val num_hosts : t -> int
val num_switches : t -> int
val num_wires : t -> int

val kind : t -> node -> kind
val is_host : t -> node -> bool
val name : t -> node -> string
(** Host name, or the cosmetic switch name (possibly [""]). *)

val host_by_name : t -> string -> node option

val ports_of : t -> node -> int
(** 1 for hosts, [radix] for switches. *)

val neighbor : t -> wire_end -> wire_end option
(** The wire end on the far side of the wire plugged in here, if any. *)

val degree : t -> node -> int
(** Number of wired ports. *)

val nodes : t -> node list
val hosts : t -> node list
val switches : t -> node list

val wires : t -> (wire_end * wire_end) list
(** Every wire exactly once, ends in canonical order. *)

val wired_ports : t -> node -> (port * wire_end) list
(** The wired ports of a node with their peers, in port order. *)

val peer : t -> node -> port -> wire_end option
(** The far end of the wire plugged into port [p] of [n], if any.
    Unlike {!wired_ports} it allocates nothing, so hot loops can scan
    [0 .. ports_of n - 1] in place. Unchecked: [n] and [p] must be in
    range. *)

val free_ports : t -> node -> port list

val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val pp_stats : Format.formatter -> t -> unit
(** One-line ["<hosts> hosts, <switches> switches, <wires> links"]. *)
