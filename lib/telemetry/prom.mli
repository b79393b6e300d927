(** Prometheus text-exposition export of a {!San_obs.Metrics}
    snapshot.

    Counters and gauges expose directly; the registry's log-scale
    histograms expose as summaries (quantiles 0.5/0.9/0.99 plus
    [_sum]/[_count]) because their geometric bucket boundaries are an
    internal encoding. Names are sanitized to the Prometheus charset
    and prefixed (default ["san_"]). Pure function to a string. *)

val of_snapshot : ?prefix:string -> San_obs.Metrics.snapshot -> string

val parse_values : string -> (string * float) list
(** Parse exposition text back to [(series, value)] pairs ([#] lines
    skipped, labels kept verbatim in the series name). Floats printed
    by {!of_snapshot} recover exactly — the round-trip test's
    contract. *)

