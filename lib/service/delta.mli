(** Delta route distribution: ship only what changed.

    A full redistribution (§5.5, {!San_routing.Distribute}) re-sends
    every host its whole route-table slice after every remap. But a
    localized fault leaves most recomputed routes byte-identical, so
    the leader can diff the fresh table against what it knows each
    host's interface currently holds and ship only the changed
    entries — plus a tombstone per vanished destination — falling back
    to a full slice for hosts it has never updated (or whose delta
    would not be cheaper). The installed-tables ledger is the leader's
    {e belief}; it only advances for slices whose worm was actually
    delivered, so a missed host is automatically re-targeted next
    time. *)

open San_topology

type tables
(** What the leader believes each host's interface holds: per host
    name, one dense int row of route cells ({!San_routing.Cell}, read
    through the store of the table it came from) aligned to the
    name-sorted destinations of that table. Rows of one table share
    that names array, so comparing two of them is a position-by-position
    walk of integer comparisons (rows of different tables are
    merge-walked by name, and cells of two stores compare by their
    turns), and each row remembers its naive size, so an unchanged
    slice costs one comparison pass and is never summed again. Each
    row also records the {!San_routing.Routes.generation} of the table
    whose slice it holds. *)

val empty : tables
(** A cold ledger: every host's first slice will be shipped full. *)

val of_routes : San_routing.Routes.t -> tables
(** The ledger after a (hypothetical) complete installation of this
    table — hosts and destinations by name. *)

val hosts : tables -> string list
val entries_for : tables -> string -> (string * San_simnet.Route.t) list
(** Sorted by destination name; [] for unknown hosts. *)

(** {1 Planning} *)

type kind =
  | Unchanged  (** slice identical to the installed one: nothing to ship *)
  | Delta of { changed : int; removed : int }
      (** re-send [changed] entries, tombstone [removed] destinations *)
  | Full  (** never installed, or the delta would not be cheaper *)

type slice = {
  owner : string;
  kind : kind;
  bytes : int;  (** shipped under delta distribution; 0 when [Unchanged] *)
  full_bytes : int;
      (** the full slice's naive cost, for comparison; an [Unchanged]
          slice takes it from the installed row *)
}

type plan = {
  slices : slice list;  (** one per host of the table, name-sorted *)
  delta_bytes : int;
  full_bytes : int;
  unchanged_hosts : int;
}

val plan : installed:tables -> San_routing.Routes.t -> plan
(** Compare the table with [installed]. A row of this very table is
    [Unchanged]. A row of the table's
    {!San_routing.Routes.previous_generation} (over the same names)
    differs from the fresh slice exactly at the table's changed pairs
    ({!San_routing.Routes.iter_changed}), so its counts and bytes are
    read off that list alone, and its naive size is the installed one
    with the changed entries' sizes swapped. Any other row is compared
    each pair once, one integer comparison per pair within a store,
    and its fresh slice's naive size is summed off the cells' lengths
    in the same pass. Builds no pool. *)

val packed_full_bytes : San_routing.Routes.t -> int
(** A complete redistribution of the table under
    {!San_routing.Cell.Pool} shared-suffix compression: per host
    slice, its routes interned reversed (so one source's common
    up-phase prefixes collapse) — what a pool-aware interface would be
    shipped instead of {!plan}'s [full_bytes]. Each slice is never
    larger than its naive cost: a header bit selects the naive
    encoding when the slice is too small for pooling to pay. Computed
    on demand, one pool per host; no plan or ledger keeps it. *)

(** {1 Distribution} *)

type report = {
  plan : plan;
  dist : San_routing.Distribute.report;  (** worm-level delivery outcome *)
  installed : tables;  (** the ledger advanced by the delivered slices *)
  sent_bytes : int;  (** bytes actually put on the wire (leader excluded) *)
  full_sent_bytes : int;
      (** what a full redistribution would have put on the wire *)
}

val distribute :
  ?params:San_simnet.Params.t ->
  ?retries:int ->
  ?traffic:float * San_util.Prng.t ->
  installed:tables ->
  San_routing.Routes.t ->
  actual:Graph.t ->
  leader:Graph.node ->
  (report, string) result
(** Plan against [installed], ship every non-[Unchanged] slice from
    [leader] over the actual network ({!San_routing.Distribute}
    retries and background [traffic] model included), and advance the
    ledger for delivered hosts (and the leader itself, which installs
    locally): a row of the previous table is copied with the changed
    entries patched in, any other is read off the table. An unchanged
    slice keeps its entries as a row of this table; a missed slice
    keeps its row. Fails when the leader is not in the table's
    graph. *)
