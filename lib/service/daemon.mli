(** The epoch-driven control-plane daemon.

    The paper's deployed system "remaps periodically"; this module is
    that loop grown into a long-running service with an explicit state
    machine:

    {v Stable -> Verifying -> (Stable | Remapping -> Distributing
                                        -> (Stable | Degraded)) v}

    Each epoch the daemon (1) lets the scripted {!Schedule} mutate the
    {!World} behind its back, (2) re-elects a leader if the current one
    died (highest-address responding host, the paper's §4.2 rule),
    (3) runs the cheap incremental verification sweep against its last
    map, (4) on any discrepancy repairs the map — it patches the last
    map when every discrepancy is a mapped wire gone silent and a
    second sweep confirms the result ({!San_mapper.Incremental}'s
    [Patched] repair), and falls back to a full Berkeley remap
    otherwise — (5) recomputes UP*/DOWN* routes, and (6) installs
    them by {e delta} distribution — only changed slices travel
    ({!Delta}). A failed installation (unreachable hosts, worms reset
    by contention) parks the daemon in [Degraded] with an epoch
    backoff that starts at 1, doubles after each further failure up to
    8 and resets after a [Stable] epoch; the missing hosts are
    re-targeted when it wakes.

    Every transition emits a {!San_obs.Trace.Daemon_transition} event,
    and convergence (fault detected to routes fully re-installed,
    counted in simulated work time) lands in the
    ["daemon.converge_ns"] histogram of the global registry.

    Every non-cold-start epoch additionally feeds one
    {!San_slo.Slo.sample} (coverage, convergence, missed slices, drop
    rates, simulated epoch time) into one alert tracker holding the
    fabric-health rules ({!San_slo.Slo.health}) followed by the
    configured SLOs. Its alerts raise and clear as
    {!San_obs.Trace.Alert_raised} / [Alert_cleared] trace events and
    show in the reports below. *)

open San_topology

type phase = Stable | Verifying | Remapping | Distributing | Degraded

val phase_to_string : phase -> string

type verdict =
  | Cold_start  (** no previous map: full remap *)
  | Verified  (** incremental sweep found the map current *)
  | Changed of int
      (** discrepancies found; the map was repaired, by a patch or a
          full remap (the epoch's events name a patch) *)
  | Backing_off  (** degraded, waiting out the backoff window *)
  | Halted  (** no responding host to lead this epoch *)

val verdict_to_string : verdict -> string
(** [cold-start], [verified], [changed(N)], [backing-off], [halted]. *)

type incident = {
  detected_epoch : int;
  resolved_epoch : int;
  converge_ns : float;
      (** simulated work from the verification that caught the fault
          through the last route slice installed *)
}

type epoch_report = {
  epoch : int;
  events : string list;  (** faults injected, repairs, elections *)
  leader : string;
  elected : bool;  (** a (re-)election happened this epoch *)
  verdict : verdict;
  phases : phase list;  (** phases entered this epoch, in order *)
  probes : int;  (** verification plus any remap probes *)
  detect_ns : float;
      (** the leader's liveness sweep — the "detect" slice of the
          phase timeline *)
  verify_ns : float;
  remap_ns : float;
  dist : Delta.report option;  (** when a distribution ran *)
  load : San_slo.Load.report option;
      (** the background-load window this epoch's probes contended
          with, when the config drives load and a table is installed *)
  hosts_total : int;  (** hosts in the daemon's current map *)
  hosts_covered : int;  (** hosts whose installed slice is current *)
  epoch_ns : float;  (** simulated work this epoch *)
  sample : San_slo.Slo.sample option;
      (** what the alert tracker saw; [None] only for cold-start
          epochs, which are not anomalies *)
  alerts_raised : string list;  (** objectives that raised this epoch *)
  alerts_cleared : string list;
}

type outcome = {
  reports : epoch_report list;
  incidents : incident list;  (** resolved fault episodes, oldest first *)
  final_phase : phase;
  map : Graph.t option;  (** the daemon's map at exit *)
  remaps : int;
      (** cold starts and [Changed] epochs, patched ones included *)
  elections : int;
  total_probes : int;
  delta_bytes : int;  (** bytes actually shipped over the run *)
  full_bytes : int;
      (** what shipping full slices on every distribution would have
          cost — the delta savings baseline *)
  slo : San_slo.Slo.status list;
      (** every tracked objective at exit — the health rules, then the
          configured SLOs — with its burn rate and alert ledger *)
}

type config = {
  dist_retries : int;  (** per-epoch re-send passes for missed slices *)
  params : San_simnet.Params.t;
  policy : San_mapper.Berkeley.policy;
  seed : int;  (** drives the schedule's random choices *)
  shards : int;
      (** when > 1, full remaps (cold start and stale-map fallback) run
          as this many concurrent [San_shard] mappers over a region
          plan seeded from the config, the remap wall being the slowest
          shard's simulated time *)
  flight_dir : string option;
      (** when set, a bounded flight recording ([flight-<epoch>.jsonl]:
          the trace ring plus the provenance ledger tail) is written to
          this directory on every transition into [Degraded] and at end
          of run ([flight-final.jsonl]) *)
  load : San_slo.Load.spec option;
      (** when set, every steady-state epoch first drives one
          background-load window over the installed route table
          ({!San_slo.Load.drive}) and the measured per-crossing loss
          feeds the epoch's probe {!San_simnet.Network} — verification
          and remapping genuinely contend with the traffic *)
  slos : San_slo.Slo.objective list;
      (** convergence SLOs tracked over steady-state epochs, after the
          health rules in the same tracker *)
}

val default_config : config
(** 2 retries, default simulation
    parameters, the faithful probe policy, seed 1, solo remaps
    ([shards = 1]), no flight dir, no background load, no SLOs. *)

val run :
  ?config:config ->
  ?schedule:Schedule.t ->
  ?on_epoch:(epoch_report -> unit) ->
  epochs:int ->
  Graph.t ->
  (outcome, string) result
(** Drive the daemon for [epochs] epochs over simulated time, starting
    from this actual network (copied; the schedule mutates only the
    daemon's world). [on_epoch] streams each report as it completes.
    Errors only when the starting network has no hosts. *)
