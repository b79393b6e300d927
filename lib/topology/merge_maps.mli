(** Merging partial network maps into one globally consistent map.

    §6 proposes parallel mapping — every host maps its local region —
    and names the central question: how to merge such local views into
    a stable, globally consistent one. Partial maps share no switch
    identifiers (switches are anonymous) and each normalises switch
    ports with its own unknown per-switch offset, but they do share
    {e uniquely named hosts}. As with the replicate-merging proof, a
    shared host pins its switch, and port-offset alignment then
    propagates rigidly across shared wires: the same mechanism behind
    {!Iso} — run as a construction instead of a check.

    Maps to be merged must be mutually consistent views of one actual
    network; a contradiction (shifted frames that disagree, two cables
    on one port, differently named hosts in one position) is reported
    as a typed {!conflict} rather than papered over: it classifies the
    contradiction and locates the offending evidence in the absorbed
    map. This module joins two maps; [San_shard.Merge.resolve] folds
    many views over it, deferring a view until it shares an anchor and
    resolving each conflict instead of failing. *)

(** How two views contradict each other. *)
type conflict_class =
  | No_anchor  (** the maps share no host name; nothing pins them *)
  | Unanchorable  (** a fragment of [b] has no path to a shared anchor *)
  | Frame_mismatch
      (** shifted port frames disagree: one node binds with two
          different offsets, or one peer appears at two slots *)
  | Port_clash  (** two different cables claim one switch port *)
  | Name_clash  (** kind or host-name disagreement at one position *)
  | Structural  (** radix mismatch, slot span over radix, … *)

type conflict = {
  cls : conflict_class;
  detail : string;  (** the human-readable message *)
  b_node : int option;
      (** the absorbed map's offending node, when locatable *)
  b_wire : ((int * int) * (int * int)) option;
      (** the absorbed map's offending wire [(v,p),(w,q)], when the
          contradiction surfaced while walking a specific wire *)
}

val class_name : conflict_class -> string
(** Stable lowercase tag, e.g. ["frame-mismatch"]. *)

val union_c : Graph.t -> Graph.t -> (Graph.t, conflict) result
(** [union_c a b] merges two partial maps anchored at their shared
    hosts. Fails if they share no host (nothing pins the
    correspondence) or if they contradict each other; nodes of [b]
    with no connection to a shared anchor are rejected as
    unanchorable. A conflict is located in [b]'s coordinates where
    possible. *)
