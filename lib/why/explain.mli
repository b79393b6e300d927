(** Minimal justification trees over a captured ledger.

    Answers "why does the map say this?": a switch resolves to the
    births of every replicate in its class plus the merges that
    unified them; a link to the probe that discovered its edge; a
    route hop to the link it crosses plus its UP*/DOWN* orientation
    entry. Trees are rendered depth-first with sharing (a deduction
    already printed is cited as [see d<n>] instead of re-expanded), so
    the output is the {e minimal} tree, and terminates only in [probe]
    and [axiom] leaves. *)

open San_topology

type query =
  | Switch of string  (** [switch:NAME] — map name [m<vid>] or actual name *)
  | Link of (string * int) * (string * int)  (** [link:A.P-B.Q] *)
  | Route of string * string  (** [route:H1->H2], host names *)

val parse_query : string -> (query, string) result

val host_vid : Why.snapshot -> Replay.t -> name:string -> int option
(** Canonical vid of the class holding the named host vertex. *)

val map_end_name : Graph.t -> Graph.node * int -> string
(** A wire end in map terms: a bare host name, or ["switch.port"]. *)

val orientation_key :
  Graph.t -> from_:Graph.node * int -> to_:Graph.node * int -> string
(** The ledger key under which {!San_routing.Updown} records a directed
    edge's UP orientation: ["from>to"] in {!map_end_name} terms. *)

val roots_for_switch : Why.snapshot -> Replay.t -> vid:int -> int list
(** Ledger roots for a switch class: every member's birth plus the
    merges that unified them, ascending. *)

val roots_of :
  ?actual:Graph.t ->
  map:Graph.t ->
  snap:Why.snapshot ->
  replay:Replay.t ->
  query ->
  (string * int list, string) result
(** Resolve a [Switch] or [Link] query to (header line, ledger roots).
    [Route] queries need a worm evaluation — use {!route_roots}. *)

val route_roots :
  map:Graph.t ->
  snap:Why.snapshot ->
  replay:Replay.t ->
  hops:San_simnet.Worm.hop list ->
  (string * int list) list
(** Per-hop (description, roots): the crossed link's discovery entry
    plus its orientation entry when one was recorded. *)

val leaves : Why.snapshot -> int -> (int * Why.entry) list
(** Transitive leaf entries (probes and axioms) under one id,
    ascending, deduplicated. *)

val pp_roots :
  Why.snapshot -> Format.formatter -> int list -> unit
(** Render the justification trees of the given roots, sharing
    subtrees across the whole render. *)

val dot_of_roots : Why.snapshot -> int list -> string
(** The same justification DAG as Graphviz: probes as boxes, axioms as
    diamonds, deductions as ellipses, an edge from each entry to each
    piece of its evidence. *)
