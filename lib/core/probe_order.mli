(** Port-exploration order and probe-elimination heuristics (§3.3.3).

    When a probe enters a switch at an effectively random port, small
    turns are the most likely to hit a legal port: excluding 0, turns
    of ±1 succeed most often, then ±2, and ±7 only rarely. Probing in
    that order makes the offset window (tracked by {!Model}) shrink
    fastest, which lets the mapper skip turns that are {e provably}
    illegal — the paper's rule of eliminating probes "only when we are
    sure they will fail".

    Both predicates take a vertex's canonical representative [c] and a
    canonical slot: probing [turn] out of vertex [v] addresses slot
    [turn + Model.frame_shift model v] of [c = Model.canonical model v].
    A caller planning many turns of one vertex resolves [c] and the
    shift once, and again only after a probe that changed the model. *)

val turn_order : radix:int -> int array
(** [+1; -1; +2; -2; ...], magnitude ascending — never 0. *)

val provably_illegal : Model.t -> Model.vid -> slot:int -> bool
(** True when no feasible entry-port offset of the class [c] leaves
    [slot] on a real port, so the probe is certain to die with ILLEGAL
    TURN. *)

val already_known : Model.t -> Model.vid -> slot:int -> bool
(** True when canonical [slot] of the class [c] is already wired in
    the model (the probe is certain to succeed and teach nothing). *)
