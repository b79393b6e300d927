(** Typed, timestamped trace events.

    A tracer keeps the most recent [capacity] records in a ring buffer
    (oldest records are overwritten, never the newest) and feeds every
    record to its sinks as it is emitted: the in-memory ring serves
    tests and post-mortems, a JSON-lines sink serves tooling. *)

type probe_kind = Host | Switch | Walk | Loop

type event =
  | Probe_sent of { kind : probe_kind; hit : bool; cost_ns : float }
  | Worm_injected of { wid : int; at_ns : float; hops : int }
  | Worm_delivered of { wid : int; at_ns : float; latency_ns : float }
  | Worm_dropped of { wid : int; at_ns : float; reason : string }
  | Replicate_merged of { kept : int; absorbed : int }
  | Route_computed of { pairs : int; unreachable : int }
  | Routes_distributed of { slices : int; bytes : int }
  | Epoch_started of { name : string; discrepancies : int }
  | Daemon_transition of { epoch : int; from_ : string; to_ : string }
      (** control-plane daemon state-machine step *)
  | Alert_raised of { name : string; epoch : int }
      (** a health rule breached its threshold for long enough *)
  | Alert_cleared of { name : string; epoch : int }
  | Deduction of { did : int; rule : string; fact : string }
      (** a provenance-ledger entry (San_why) was recorded *)
  | Daemon_epoch of
      { epoch : int; verdict : string; leader : string; covered : int;
        total : int }
      (** one closed control-plane epoch, as the daemon scored it *)
  | Mapper_stuck of { at_ns : float; pending : int }
      (** the election co-simulation found no runnable work *)
  | Phase_timed of
      { epoch : int; phase : string; start_ns : float; dur_ns : float }
      (** one daemon epoch phase (detect/verify/remap/distribute)
          placed on the simulated-time axis: [start_ns] is the run's
          cumulative sim clock when the phase began *)
  | Span_begin of { name : string }
  | Span_end of { name : string; elapsed_ns : float }
  | Mark of { name : string; note : string }

type record = { seq : int; wall_ns : float; event : event }
(** [seq] counts from 0 since the last [clear]; [wall_ns] is wall-clock
    time (nanoseconds since the epoch). *)

type sink = record -> unit

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to 4096 records. *)

val emit : t -> event -> unit

val records : t -> record list
(** Surviving records, oldest first. *)

val events : t -> event list

val length : t -> int

val dropped : t -> int
(** Records overwritten by ring wrap-around since the last [clear]. *)

val clear : t -> unit
(** Empty the ring and restart [seq] at 0. Sinks are kept. *)

val add_sink : t -> sink -> unit
val clear_sinks : t -> unit

val has_sinks : t -> bool
(** High-rate emitters (the provenance ledger) use this to skip
    formatting events nobody is streaming. *)

val jsonl_sink : out_channel -> sink
(** One compact JSON object per line, [record_to_json] encoding. *)

val record_to_json : record -> San_util.Json.t
val record_of_json : San_util.Json.t -> record option
val event_to_json : event -> San_util.Json.t

val probe_kind_to_string : probe_kind -> string
val pp_event : Format.formatter -> event -> unit

val all_events : event list
(** One sample per constructor, maintained by a compiler-checked
    successor chain inside {!Trace}: the serialization test round-trips
    every element, so a constructor added without JSON support fails
    the suite instead of silently dropping records. *)
