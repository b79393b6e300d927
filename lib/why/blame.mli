(** Attribute map changes to probes.

    Takes the changes {!San_topology.Diff.diff} finds between two maps
    produced with provenance on and, for every changed fact, names the
    first probe whose answer (or loss) explains the change: a vanished link is traced to the probe that justified it in
    the old run, then that same probe is looked up by its turn string
    in the new run's ledger — if it was never sent, or answered
    differently, that is the explanation. *)

open San_topology

type side = { b_map : Graph.t; b_snap : Why.snapshot }

type attribution = {
  a_change : string;  (** the changed fact, human-readable *)
  a_probe_did : int option;  (** the attributed probe's id, in its side *)
  a_note : string;  (** what that probe did across the two runs *)
}

val run : old_:side -> new_:side -> attribution list
(** One attribution per changed fact, ordered by attributed probe id
    (unattributable facts last). Empty when the maps agree. *)

val pp_attribution : Format.formatter -> attribution -> unit
