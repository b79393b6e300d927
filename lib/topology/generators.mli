(** Topology generators.

    The NOW subcluster generators reproduce the component counts of the
    paper's Figure 3 exactly (A: 34 interfaces / 13 switches / 64
    links; B: 30/14/65; C: 36/13/64), as incomplete fat-trees with the
    irregularities the paper describes (a leaf switch with a missing
    uplink, spare upper-level ports, a utility host wired directly to a
    root). The remaining generators provide the classic interconnects
    the paper contrasts against (hypercube, mesh, torus, ring) and
    random topologies for property-based testing. *)

type handle = {
  label : string;
  cluster_hosts : Graph.node list; (** all hosts incl. the utility host *)
  cluster_switches : Graph.node list;
  roots : Graph.node list; (** top-level switches *)
  utility : Graph.node option; (** the designated service host, if any *)
}

type subcluster_spec = {
  sc_label : string;
  hosts_per_leaf : int list; (** hosts attached to each leaf switch *)
  uplinks_per_leaf : int list; (** leaf→mid links; same length *)
  num_mids : int;
  mid_uplinks : int list; (** mid→root links per mid switch *)
  num_roots : int;
  utility_host : bool; (** host wired to root 0 *)
}

val spec_a : subcluster_spec
val spec_b : subcluster_spec
val spec_c : subcluster_spec
(** Specs reproducing Figure 3's rows, including Figure 4's
    irregularity: spec C's middle leaf switch has two uplinks instead
    of three. *)

val subcluster : ?radix:int -> subcluster_spec -> Graph.t * handle

val now_c : unit -> Graph.t * handle
(** The C subcluster (the paper's Figure 4 network). *)

val now_ca : unit -> Graph.t * handle list
(** C + A joined. *)

val now_cab : unit -> Graph.t * handle list
(** C + A + B: the full 100-node NOW (Figure 5). *)

(** {1 Classic and synthetic interconnects} *)

val fat_tree : ?radix:int -> leaves:int -> hosts_per_leaf:int -> spines:int -> unit -> Graph.t
(** Two-level fat-tree, every leaf wired once to every spine. *)

val hypercube : ?radix:int -> dim:int -> unit -> Graph.t
(** [2^dim] switches, one host each. Requires [dim + 1 <= radix]. *)

val mesh : ?radix:int -> rows:int -> cols:int -> unit -> Graph.t
(** 2-D mesh of switches, one host per switch. *)

val torus : ?radix:int -> rows:int -> cols:int -> unit -> Graph.t
(** 2-D torus; wrap-around on 2-long dimensions yields parallel wires,
    exercising the multigraph paths. *)

val ring : ?radix:int -> switches:int -> hosts_per_switch:int -> unit -> Graph.t

val star : ?radix:int -> leaves:int -> unit -> Graph.t
(** One hub switch, [leaves] leaf switches with one host each. *)

val cube_connected_cycles : ?radix:int -> dim:int -> unit -> Graph.t
(** The cube-connected cycles network (each hypercube corner replaced
    by a [dim]-cycle of degree-3 switches, one host per switch) — one
    of the families the paper's §5.5 citations prove deadlock-free
    routing for. Requires [dim >= 3] and [radix >= 4]. *)

val shuffle_exchange : ?radix:int -> dim:int -> unit -> Graph.t
(** The shuffle-exchange network on [2^dim] switches (exchange edges
    flip the low bit; shuffle edges rotate left), one host per switch.
    Self edges at the shuffle's fixed points and shuffle edges that
    coincide with an exchange edge are skipped (simple-graph variant).
    Requires [dim >= 2]. *)

val chain : ?radix:int -> switches:int -> unit -> Graph.t
(** A line of switches with two hosts on the first switch — the
    hardest case for the mapper (all exploration far from hosts). *)

val pendant_branch : unit -> Graph.t
(** A network with a non-empty [F]: a hostless switch tail hanging off
    a switch-bridge. Used to test the [N - F] theorem statement. *)

val lone_host : unit -> Graph.t
(** A single host whose cable is unwired: the mapper's assumed root
    switch must be retracted (the turn-0 self-probe dies). *)

val stub_switch : unit -> Graph.t
(** A single host behind a single otherwise-empty switch: the turn-0
    self-probe bounces back, confirming the assumed root is real. *)

val random_connected :
  rng:San_util.Prng.t ->
  switches:int ->
  hosts:int ->
  extra_links:int ->
  ?radix:int ->
  unit ->
  Graph.t
(** Random connected topology: a random switch tree, [extra_links]
    extra random switch-switch wires (port permitting), hosts attached
    to uniformly random switches. At least two hosts and one switch are
    required. *)
