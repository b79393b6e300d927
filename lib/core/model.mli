(** The model graph [M] and the replicate-merging machinery (§3.1–3.3).

    Every non-null probe response creates a model vertex whose
    {e frame} is fixed by the probe that created it: slot index [i]
    denotes the actual switch port [entry_port + i], so slot 0 is the
    port the probe entered through and a tree edge always joins
    [(parent, turn)] to [(child, 0)]. Frames of replicate vertices
    differ by a constant — the paper's {e indexing offset}
    (Definition 1) — so merging two vertices re-indexes one of them by
    the difference [j1 - j2] of the slots through which they were
    deduced equal (the [mergeLabels] shift of §3.1.2).

    Following §3.3, vertices are merged physically through a mergelist
    worklist rather than labelled: a union-find with per-element index
    shifts keeps every absorbed vertex's frame convertible into its
    representative's. The single deduction rule is the paper's: a slot
    holding two distinct edges identifies its two far endpoints as
    replicates (an actual port has one cable), and host vertices with
    the same name are replicates (hosts are uniquely identified and
    have one port). Both reduce to slot conflicts here.

    All operations address vertices by the id returned at creation;
    ids remain valid across merges (they resolve through the
    union-find).

    The model is held in int columns indexed by vertex and edge id:
    per vertex its union-find parent and shift, flags, kind, offset
    window, probe length and slot bitmasks; per edge its two ends and a
    next link for each, so a slot's edges form an intrusive list. A
    vertex keeps one list for all its slots until it has three live
    ones, then takes a segment of per-slot heads from a pool that
    absorbed vertices return to. The mergelist is an int ring. Only
    the creating probes are pointers. So creating, merging, re-homing
    or killing a replicate allocates no block: the columns grow in
    fixed chunks ({!add_switch_vertex} takes about 14 words a vertex
    at radix 8, counted by test_model's "allocation" group). *)

open San_topology

exception Inconsistent of string
(** Raised when a deduction contradicts the model — e.g. a vertex
    would merge with itself at a non-zero shift, two differently-named
    hosts would merge, or a switch's used slots span more than the
    radix. Under the paper's quiescence assumption this indicates a
    bug or an unsatisfied assumption, never a normal outcome. *)

type t

type vid = int
(** Vertex id, stable across merges. *)

type vkind = Vhost of string | Vswitch

val create : mapper_name:string -> radix:int -> t
(** Initialise [M] with the root host vertex and its adjacent switch
    vertex (the mapper host always has exactly one cable, necessarily
    to a switch). *)

val root_host : t -> vid
val root_switch : t -> vid

val radix : t -> int

(** {1 Growth} *)

val add_switch_vertex :
  t -> parent:vid -> turn:int -> rev_probe:San_simnet.Route.t -> vid
(** Record a successful switch-probe: a fresh switch vertex joined to
    [(parent, turn)]. [rev_probe] is the probe that found it, last turn
    first — normally [turn :: rev_probe t parent], so a child shares
    its parent's route and keeps one cell of its own. Runs any merge
    deductions the new edge enables (a slot conflict at the parent). *)

val add_host_vertex :
  t -> parent:vid -> turn:int -> rev_probe:San_simnet.Route.t -> name:string -> vid
(** Record a successful host-probe. If a host vertex with this name
    already exists the two are unified (hosts are unique), and the
    merge loop runs to stabilisation — identity information propagates
    backwards exactly as in §3.2.4. *)

(** {1 Interrogation} *)

val canonical : t -> vid -> vid
(** Representative of the vertex's merge class. *)

val frame_shift : t -> vid -> int
(** [frame_shift t v] converts [v]'s original frame to its
    representative's: original slot [i] is canonical slot
    [i + frame_shift t v]. *)

val kind : t -> vid -> vkind
val probe_string : t -> vid -> San_simnet.Route.t
(** The probe that created this particular vertex (not its class),
    first turn first. Builds a fresh list. *)

val rev_probe : t -> vid -> San_simnet.Route.t
(** The stored creating probe, last turn first; shared, not copied. *)

val probe_length : t -> vid -> int
(** Length of the creating probe, in constant time. *)

val is_explored : t -> vid -> bool
(** Whether any member of the class has been explored. *)

val set_explored : t -> vid -> unit

val is_live : t -> vid -> bool
(** False once the class was deleted by pruning. *)

val slot_occupied : t -> vid -> int -> bool
(** [slot_occupied t v i] — is canonical slot [i] (in the class frame)
    already wired in the model? *)

val turn_slot : t -> vid -> int -> int
(** Canonical slot addressed by probing [turn] out of vertex [v]:
    [turn + frame_shift t v]. *)

val has_open_turn : t -> vid -> shift:int -> bool
(** [has_open_turn t c ~shift] — does some non-zero turn out of a
    member of switch class [c] (canonical) at frame shift [shift]
    address a slot that is vacant and that the class's
    {!offset_window} admits? When none does, an exploration that skips
    known and provably illegal turns would send no probe. One mask
    test per 63 slots; allocates nothing. *)

val neighbor_via : t -> vid -> turn:int -> vid option
(** The vertex on the far side of the (unique, post-stabilisation) edge
    in the slot [turn] addresses, if that slot is wired. *)

val neighbor_end_via : t -> vid -> slot:int -> (vid * int) option
(** Far end of the edge at the given class-frame [slot]: the far
    vertex and the slot it is attached at (in that vertex's own vid
    frame, stable across future merges). Used by the randomized
    mapper to thread coupon paths through existing model structure. *)

val offset_window : t -> vid -> int * int
(** Feasible range of the class's actual entry port (the paper's
    §3.3.3 heuristic state): every known slot [i] implies the offset
    lies in [[-i, radix-1-i]]. *)

val window_admits : t -> vid -> slot:int -> bool
(** Whether some offset in the class's {!offset_window} puts canonical
    [slot] on a real port ([0 <= offset + slot < radix]). Allocates
    nothing, unlike {!offset_window}. *)

val degree : t -> vid -> int
(** Live edges incident to the class (a same-switch edge counts once). *)

val kill_root_switch : t -> unit
(** Retract the assumed root switch and its edges: the mapper's own
    cable turned out to be unwired. The mapper host vertex stays. *)

(** {1 Convergence} *)

val run_merge_loop : t -> unit
(** Drain the mergelist: apply slot-conflict deductions until no more
    can fire. A queued class is examined only at its {e dirty} slots
    (those an edge was added to while already wired), lowest first.
    Called internally by the growth functions; public for tests. *)

val enqueue : t -> vid -> unit
(** Put [v]'s class on the mergelist, as a merge does for the class it
    keeps; the next {!run_merge_loop} re-examines it. Public for
    tests. *)

val prune : t -> unit
(** Delete every switch region that a single switch-switch cable
    separates from all hosts (Theorem 1's F, the same separation
    criterion as {!San_topology.Core_set.separated_set}). This
    subsumes §3.1's degree-based PRUNE — which removes hostless
    pendant trees but neither hostless cycles nor self-cabled pendants
    behind a bridge — and, unlike it, keeps a pendant switch whose
    only cable leads to a host. *)

(** {1 Results and accounting} *)

val to_graph : t -> Graph.t
(** Export the stabilised model as an actual-network graph, normalising
    every switch's used slots to start at port 0. @raise Inconsistent
    if a slot still holds conflicting edges (exploration was too
    shallow to merge all replicates) or a slot span exceeds the radix. *)

val export : t -> (Graph.t, string) result
(** {!prune}, then {!to_graph}: the map, or an [Error] saying why the
    model is inconsistent. *)

val known_hosts : t -> int
(** Number of distinct host names discovered so far. *)

val created_vertices : t -> int
val live_vertices : t -> int
val created_edges : t -> int
val live_edges : t -> int

val check_invariants : t -> (unit, string) result
(** Structural self-check used by property tests: slot tables and edge
    endpoints agree, no dead edge is referenced, windows are
    non-empty, merged vertices resolve to live representatives. The
    slot masks agree with the slots: a live bit is set exactly when
    its slot holds a live edge, every slot holding two live edges is
    dirty, and absorbed and dead vertices carry no bits. *)
