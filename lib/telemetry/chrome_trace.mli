(** Chrome trace-event JSON export of {!San_obs.Trace} records.

    The output loads in [chrome://tracing] and Perfetto: worm
    injections, deliveries and drops appear as instant/complete events
    on a per-worm track under the "fabric" process, timestamped with
    the {e simulated} clock (so exports of seeded simulator runs are
    byte-identical across invocations); spans, probes and
    control-plane events appear under the "mapper software" process,
    timestamped off the wall clock relative to the first record. Pure
    function to a string — no I/O, unit-testable. *)

val of_records : San_obs.Trace.record list -> string
(** One compact JSON document
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

