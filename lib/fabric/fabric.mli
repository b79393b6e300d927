(** Deterministic, seeded, parametric fabric generation at data-center
    scale.

    The paper maps a 100-host NOW; this subsystem manufactures the
    fabrics a production mapper would face — multi-level folded-Clos
    (fat-tree) networks in the style of Solnushkin's two-layer
    fat-tree design space: switch tiers, radix, hosts per edge switch,
    an oversubscription ratio fixing the edge uplink count, and
    real-world irregularity (trimmed uplinks, missing spines,
    heterogeneous radices). Every fabric is a pure function of
    [(spec, seed)], so any run is replayable from its header line. *)

open San_topology

type spec = {
  levels : int;  (** switch tiers, [>= 1]; tier 0 is the edge *)
  radix : int;  (** ports per (full-size) switch *)
  edge_switches : int;  (** tier-0 switch count *)
  hosts_per_edge : int;  (** hosts cabled to each edge switch *)
  oversub : float;
      (** edge oversubscription: hosts-per-edge divided by edge
          uplinks; [1.0] gives full bisection at the edge *)
  trim_uplinks : float;
      (** probability each uplink after a switch's first is absent
          (cable never installed / removed after a fault) *)
  missing_spines : float;  (** fraction of the top tier that is absent *)
  hetero_radix : float;
      (** probability a switch is an older half-uplink model *)
}

val validate : spec -> (unit, string) result

val build : seed:int -> spec -> Graph.t
(** Generate the fabric. Tiers are wired bottom-up with a diagonal
    stride — uplink [j] of switch [i] prefers upper switch
    [(i + j) mod n_above] — so uplinks spread across distinct parents,
    every switch keeps at least one uplink and no spine is isolated;
    irregularity knobs only remove redundancy. A final pass stitches
    any stray component (possible only for degenerate specs) back to
    the main fabric through spare switch ports.
    @raise Invalid_argument when {!validate} rejects the spec. *)

val to_string : spec -> string
(** Canonical [key=value,...] form; {!of_string} inverts it. *)

val of_string : string -> (spec, string) result
(** Parse [key=value,...] with keys [levels], [radix], [edge],
    [hosts], [oversub], [trim], [missing], [hetero]; unspecified keys
    take {!default}'s values. *)

val default : spec
(** 2 tiers, radix 8, 25x4 hosts, no oversubscription, no faults. *)

(** {1 Presets}

    Named configurations: the scaling-ladder fat-trees plus the
    paper's own NOW and Figure 3 networks re-expressed as presets so
    one namespace covers every reproducible topology. *)

type preset = {
  p_name : string;
  p_doc : string;
  p_spec : spec option;  (** [None] for the hand-wired paper networks *)
  p_build : seed:int -> Graph.t;
  p_depth : int option;
      (** suggested fixed exploration depth; [None] = oracle is fine *)
}

val presets : preset list
val find_preset : string -> preset option

val parse : string -> (preset, string) result
(** CLI entry: a preset name, or a custom [key=value,...] spec. *)

val header_lines : preset -> seed:int -> Graph.t -> string list
(** Reproducibility header for emitted artifacts: spec, seed, size,
    suggested depth and the exact replay command. *)
