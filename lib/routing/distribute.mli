(** In-band route distribution (§5.5: "derives mutually deadlock-free
    routes from it and distributes them throughout the system").

    After mapping, the master (or elected leader) must install each
    host's route-table slice in its network interface. The only
    transport available is the network itself, and the only routes the
    leader can trust are the freshly computed ones — so each slice
    travels as a single worm along the leader's own route to that
    host. Slices are sized realistically (a couple of bytes per turn
    plus per-entry headers, the scale of the 128 KB LANai SRAM budget
    the paper mentions), and delivery runs on the discrete-event
    wormhole simulator, so distribution contends with itself. *)

open San_topology

type slice = {
  owner : Graph.node;  (** the host this slice belongs to *)
  entries : int;  (** routes in the slice (one per destination) *)
  bytes : int;  (** encoded size *)
}

type plan = { slices : slice list; total_bytes : int }

val plan : Routes.t -> plan
(** Slice the table per source host. *)

val entry_bytes : San_simnet.Route.t -> int
(** Encoded size of one route entry (destination id, length, one byte
    per turn) — the unit both full and delta slices are priced in. *)

val entry_bytes_of_length : int -> int
(** {!entry_bytes} of a route of this many turns. *)

type report = {
  hosts_updated : int;
  hosts_missed : int;  (** slices that never arrived, after all passes *)
  duration_ns : float;  (** first send to last delivery, summed over passes *)
  total_messages : int;  (** worms injected, re-sends included *)
  attempts : int;  (** delivery passes actually run (>= 1 when anything was sent) *)
  missed : Graph.node list;
      (** the owners (in the table's graph) behind [hosts_missed] — the
          delta distributor re-targets exactly these next epoch *)
}

val simulate_slices :
  ?params:San_simnet.Params.t ->
  ?retries:int ->
  ?traffic:float * San_util.Prng.t ->
  Routes.t ->
  actual:Graph.t ->
  leader:Graph.node ->
  slices:(Graph.node * int) list ->
  (report, string) result
(** Deliver one worm per [(owner, bytes)] pair from [leader] over the
    actual network using the worm simulator; owners are named in the
    table's graph and matched to the actual network by name (the table
    usually comes from a map). Slices that miss (contention drops) are
    re-sent in up to [retries] further passes (default 2); slices with
    no compliant route from the leader, or whose owner is absent from
    the actual network, are structurally undeliverable and not retried.
    [traffic] is the background-load model of
    {!San_simnet.Network.create}: a delivered slice that crossed [h]
    wires is additionally lost by {!San_simnet.Network.survives}, one
    draw per delivered worm — so distribution, like probing, contends
    with live traffic. Fails if the leader is missing from the table's
    graph. The delta distributor ships only changed table slices this
    way. *)

val simulate :
  Routes.t -> actual:Graph.t -> leader:Graph.node -> (report, string) result
(** {!simulate_slices} of every slice of {!plan}, with the default
    parameters, 2 retries and no background traffic. *)
