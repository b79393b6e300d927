(** Differences between two network maps.

    The deployed system remaps periodically; what an operator (or the
    reconfiguration logic) wants from a new map is not the map itself
    but {e what changed}: hosts that appeared or vanished, switches
    added or removed, cables moved. Switches are anonymous, so the two
    maps are aligned exactly like {!Iso} aligns them — anchored at the
    shared named hosts, propagating across shared wires with per-switch
    port shifts — and whatever fails to align is the change set.

    Unlike {!Iso.check}, nothing here is an error: both maps are
    assumed correct views of {e different moments}. *)

type change =
  | Host_added of string
  | Host_removed of string
  | Switch_added of int  (** node id in the new map *)
  | Switch_removed of int  (** node id in the old map *)
  | Link_added of Graph.wire_end * Graph.wire_end
      (** the wire's two ends in the new map *)
  | Link_removed of Graph.wire_end * Graph.wire_end  (** in the old map *)

val pp_change :
  old_map:Graph.t -> new_map:Graph.t -> Format.formatter -> change -> unit
(** One line per change; a link's ends are named in the map they are
    of. *)

val correspond :
  old_map:Graph.t ->
  new_map:Graph.t ->
  (Graph.node * int) option array * (Graph.node, Graph.node) Hashtbl.t
(** The evidence-ordered alignment {!diff} is built on, for tooling
    that needs the node mapping itself (e.g. provenance explain): for
    each old node, its new counterpart and the per-node port shift;
    plus the reverse binding. Anchored at shared host names, grown
    across wires whose endpoint kinds agree, first binding wins. *)

val diff : old_map:Graph.t -> new_map:Graph.t -> change list
(** Structural changes from [old_map] to [new_map]. Switches reachable
    through unchanged wiring are identified across the two maps;
    a switch whose every anchor path changed reports as
    removed + added (there is genuinely no evidence it is the same
    anonymous device). *)

val is_unchanged : old_map:Graph.t -> new_map:Graph.t -> bool
