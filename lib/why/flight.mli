(** Bounded, crash-safe flight recorder.

    One call serializes the last trace events (the {!San_obs.Obs}
    ring) plus the tail of the provenance ledger to a JSON-lines file:
    a header record, then one ["trace"] record per surviving trace
    event, then one ["why"] record per ledger entry. The file is
    written to a temporary name, flushed and fsynced, then renamed
    into place, so a crash mid-write never truncates an existing
    recording.

    The daemon writes one on every transition into Degraded and at end
    of run. *)

val write :
  path:string ->
  note:string ->
  ?epoch:int ->
  unit ->
  (unit, string) result
(** Serialize the current trace ring and the last 512 ledger entries
    to [path], creating its missing parent directories. *)
