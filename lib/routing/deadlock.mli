(** Deadlock-freedom verification via channel dependency graphs
    (Dally–Seitz, as cited in §5.5).

    Each directed channel is one direction of a wire, identified by the
    wire end a worm exits through. A route that crosses channel [c1]
    then [c2] makes [c2]'s availability a condition for releasing
    [c1], a dependency edge [c1 -> c2]. A set of routes is mutually
    deadlock-free iff this dependency graph is acyclic — which
    UP*/DOWN* compliance guarantees by construction, and this module
    verifies independently. *)

open San_topology
open San_simnet

type channel = Graph.wire_end
(** The (node, port) a worm exits through. *)

val check_acyclic : Graph.t -> (Graph.node * Route.t) list -> (unit, string) result
(** [Ok ()] iff the dependency graph is acyclic; the error names one
    channel on a cycle. *)

val check_routes : Routes.t -> (unit, string) result
(** Convenience: check a whole route table on its own graph. *)
