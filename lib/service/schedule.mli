(** Scripted fault and repair schedules for daemon experiments.

    A schedule maps epoch numbers to actions on the {!World} — the
    dynamic-reconfiguration script §6 leaves open, made executable:
    cut cables, flap a link (cut now, auto-repair some epochs later),
    isolate a switch, plug in a new cable, kill or revive a host's
    mapper daemon, kill whoever is currently leader. Randomized
    choices (which cable, which switch) draw from the caller's PRNG so
    a scenario is reproducible from one seed. *)

type action =
  | Cut_links of int  (** cut this many random switch-to-switch wires *)
  | Flap_link of int  (** cut a random wire; repair it this many epochs later *)
  | Isolate_switch  (** unplug every wire of a random wired switch *)
  | Add_link  (** plug a wire between two random free switch ports *)
  | Kill_host of string
  | Kill_leader  (** silence whichever host currently leads *)
  | Revive_host of string
  | Storm of { links : int; hosts : int }
      (** a correlated failure burst: cut [links] wires and kill
          [hosts] random responding daemons in the same epoch *)
  | Upgrade_switch of int
      (** rolling maintenance: unplug a random wired switch and re-plug
          the same wires this many epochs later *)
  | Partition of int
      (** split the switches into two halves, cut every crossing wire,
          heal this many epochs later *)
  | Flap_storm of { count : int; down : int }
      (** [count] independent flaps at once, each down [down] epochs *)

type t

val empty : t
val of_list : (int * action) list -> t
val actions_at : t -> int -> action list

val last_epoch : t -> int
(** Largest scheduled epoch, -1 when empty (flap repairs may land
    later still). *)

val parse : string -> (t, string) result
(** Comma-separated [EPOCH:ACTION] entries, e.g.
    ["2:cut,4:flap=3,6:isolate,8:kill-leader,9:revive=C-h4"].
    Actions: [cut] / [cut=N], [flap] / [flap=DOWN_EPOCHS] (default 2),
    [isolate], [add], [kill=HOST], [kill-leader], [revive=HOST],
    [storm] / [storm=LINKSxHOSTS] (default 2x1), [upgrade=EPOCHS]
    (default 2), [partition=EPOCHS] (default 3), and
    [flapstorm=COUNTxEPOCHS] (default 3x2) — compound arguments are
    ['x']-separated because the comma separates entries. *)

val to_string : t -> string
(** The [parse] syntax back; [parse (to_string t)] re-reads [t], which
    is how fuzz counterexamples print replayable schedules. *)

val scenario : ?epochs:int -> string -> ((int * action) list, string) result
(** Named adversarial presets scaled to the run length (default 12
    epochs): ["storm"] (correlated failure bursts), ["rolling"] (a
    switch pulled every other epoch), ["partition"] (split, kill the
    leader while split, heal), ["flaps"] (overlapping flap storms). *)

val scenario_names : string list

val gen : rng:San_util.Prng.t -> epochs:int -> (int * action) list
(** A random schedule for the fuzzer — every action except named
    kills, ~30% of epochs eventful. Deterministic in [rng]. *)

val apply :
  t -> World.t -> rng:San_util.Prng.t -> leader:string -> epoch:int ->
  string list
(** Run this epoch's due repairs, then its scheduled actions, against
    the world. Returns one description per thing that happened (the
    daemon logs them; it must still {e discover} them by probing). An
    action that cannot apply — no switch wire left to cut, no free
    ports — becomes a note instead of an error. *)
