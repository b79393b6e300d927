(** Named counters, gauges and histograms.

    The mapping experiments are accounting experiments — probe counts,
    hit ratios, latency distributions — so the registry is the shared
    vocabulary every layer reports into. Instruments are created on
    first use; [reset] zeroes values in place, keeping cached handles
    valid across per-run resets. A histogram is a named {!Digest}, so
    its binning, quantiles and exact merges are the digest's. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Find or create the counter of that name. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1).
    @raise Invalid_argument on a negative increment, so monotonicity
    bugs fail at the call site instead of exporting as nonsense. *)

val counter_value : counter -> int

val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Record one observation ({!Digest.add}). *)

val histogram_count : histogram -> int

val digest : histogram -> Digest.t
(** The live digest behind the histogram. *)

val reset : t -> unit
(** Zero every instrument in place (handles remain valid). *)

(** {1 Snapshots} *)

type hist_snapshot = Digest.t
(** A copy taken at snapshot time; nothing mutates it. *)

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * float) list;
  s_histograms : (string * hist_snapshot) list;
}

val snapshot : t -> snapshot
(** An immutable view, name-sorted. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Activity between two snapshots of the same registry: counters
    subtract, histograms take {!Digest.diff}, gauges keep the later
    value. An instrument that restarted mid-window (a {!reset} between
    the snapshots: its counter went backwards, or a histogram's counts
    shrank) is reported as its [after] state wholesale, so deltas are
    never negative. *)

val counter_in : snapshot -> string -> int option
val gauge_in : snapshot -> string -> float option
val histogram_in : snapshot -> string -> hist_snapshot option

val to_json : snapshot -> San_util.Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {name:
    {count,sum,min,max,p50,p90,p99}}}]. *)

