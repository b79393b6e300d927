(** Declarative service-level objectives with burn-rate tracking: the
    daemon's one alert engine.

    An objective is the sentence an operator writes — ["p99 convergence
    below 200 simulated ms at offered load up to 0.3"], concretely
    ["converge:p99<2e8@0.3"] — and the quantile fixes its error
    budget: p99 tolerates 1% bad epochs. A tracker folds per-epoch
    samples into a sliding window and reports the burn rate, (bad
    fraction among eligible epochs) / budget: burn 1.0 is spending the
    budget exactly, burn at or above 1.0 for [for_epochs] consecutive
    epochs raises a {!San_obs.Trace.Alert_raised} named after the
    objective, and the first observation back under 1.0 clears it.
    Burn rates publish as ["slo.<name>.burn_rate"] gauges, so they
    reach the Prometheus exposition with no extra plumbing.

    A threshold rule — "breached for N consecutive epochs" — is the
    one-epoch-window case: with [window = 1] the burn is [1/budget >= 1]
    on a breach and 0 otherwise, so the streak, the raise and the
    clear on the first good epoch follow the breaches exactly, whatever
    the quantile. The daemon's fabric-health rules ({!health}) are
    objectives of that shape.

    Out-of-contract epochs (offered load above [max_load]) are never
    charged; convergence objectives are charged only on epochs that
    actually resolved an incident. *)

type metric =
  | Converge_ns  (** incident convergence time, simulated ns *)
  | Epoch_ns  (** whole-epoch simulated work *)
  | Drop_rate  (** background-load drop rate *)
  | Coverage  (** fraction of hosts with a current route slice *)
  | Convergence_epochs  (** epochs the open incident has lasted *)
  | Missed_slices  (** hosts whose route-slice delivery failed this epoch *)
  | Probe_drop_rate
      (** distribution messages lost, missed slices / messages sent —
          unlike [Drop_rate], which reads the background load *)

type cmp = Below | Above

type objective = private {
  name : string;
  metric : metric;
  quantile : float;
  cmp : cmp;
  limit : float;
  max_load : float;
  window : int;
  for_epochs : int;
}

val objective :
  ?name:string ->
  ?quantile:float ->
  ?max_load:float ->
  ?window:int ->
  ?for_epochs:int ->
  metric:metric ->
  cmp:cmp ->
  float ->
  objective
(** Defaults: p95, any load, 20-epoch window, raise after 2 sustained
    epochs. @raise Invalid_argument on a quantile outside (0,1). *)

val parse : string -> (objective, string) result
(** [METRIC:pNN<LIMIT[@MAXLOAD]] (or [>] for lower-bound objectives
    like coverage), e.g. ["converge:p99<2e8@0.3"]. A non-finite
    limit or max-load is an error. *)

val to_string : objective -> string

val defaults : objective list
(** Loose ship-with objectives: convergence p95, epoch-time p99, drop
    p95 under load, coverage p95. *)

val health : objective list
(** The fabric-health rules as one-epoch-window objectives: full
    coverage every epoch (["coverage"]), no missed slice
    (["missed_slices"]), no incident open beyond 2 epochs
    (["slow_convergence"]), and a distribution drop rate above 25% for
    two consecutive epochs (["probe_drops"]). *)

type sample = {
  s_epoch : int;
  s_load : float;  (** offered background load, 0 when quiescent *)
  s_converge_ns : float option;  (** [Some] only when an incident resolved *)
  s_epoch_ns : float;  (** simulated work this epoch *)
  s_drop_rate : float;  (** background-load drop rate *)
  s_coverage : float;
  s_convergence_epochs : int;
  s_missed_slices : int;
  s_probe_drop_rate : float;
}

type alert = {
  raised_epoch : int;
  cleared_epoch : int option;  (** [None] while active *)
  worst : float;
      (** most extreme breaching value in the window at the raise or
          observed while active *)
}

type status = {
  st_objective : objective;
  st_eligible : int;
  st_bad : int;
  st_burn_rate : float;
  st_streak : int;
  st_alerting : bool;
  st_alerts : alert list;  (** every alert it raised, oldest first *)
}

type t

val create : objective list -> t

val observe : t -> sample -> string list * string list
(** Feed one epoch; returns the (raised, cleared) objective names,
    having emitted the trace events and updated the burn-rate gauges. *)

val status : t -> status list
val pp_status : Format.formatter -> status -> unit
