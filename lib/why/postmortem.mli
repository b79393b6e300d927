(** Reconstruct what a daemon believed from a flight file alone.

    Parses a {!Flight} recording and rebuilds the epoch-by-epoch story:
    state-machine transitions, closed-epoch verdicts, alerts raised and
    still open, the stuck-election marker if one fired, and the last
    deductions the mapper committed before the recording was cut. *)

type t = {
  note : string;
  epoch : int option;  (** epoch stamped on the recording, if any *)
  records : San_obs.Trace.record list;  (** oldest first *)
  entries : (int * Why.entry) list;  (** ledger tail, oldest first *)
}

val read : string -> (t, string) result
(** Parse a flight JSON-lines file; unparseable lines are an error
    (the writer is crash-safe, so a half file should never exist). *)

val timeline : t -> string list
(** Human-readable control-plane happenings, oldest first. *)

val pp : Format.formatter -> t -> unit
