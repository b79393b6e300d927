(** Min / average / max / stddev summaries of repeated measurements.

    The paper reports mapping times as min/avg/max over repeated runs
    (Figure 7); this module provides that aggregation plus percentile
    access for the heavy-tailed election mode. *)

type t = {
  n : int;
  min : float;
  avg : float;
  max : float;
  stddev : float;
}

val of_list : float list -> t
(** Aggregate a non-empty list of samples. *)

val percentile : float list -> float -> float
(** [percentile samples p] with [p] in \[0,1\]; nearest-rank on the
    sorted samples. *)

val pp_ms : Format.formatter -> t -> unit
(** Same, but interprets the samples as nanoseconds and prints
    milliseconds with no decimals, like Figure 7. *)
