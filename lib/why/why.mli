(** The evidence-provenance ledger.

    Every fact the mapper comes to believe — a vertex exists, an edge
    exists, two replicates are one switch, a region is separated from
    all hosts, an edge points UP — is recorded here as a typed entry
    citing the probes and prior deductions it rests on. Deduction ids
    are append-ordered and every dependency points strictly backwards,
    so justifications form a DAG by construction and any fact about
    the final map resolves to a tree terminating in probe (or axiom)
    leaves.

    Like {!San_obs.Obs}, this is a process-wide switchboard:
    instrumented modules report unconditionally and everything is a
    no-op until [set_enabled true], so the mapper hot path pays one
    boolean test when provenance is off. *)

type probe_kind = Host_probe | Switch_probe

type entry =
  | Probe of { kind : probe_kind; turns : int list; resp : string }
      (** a probe worm actually sent, and what came back *)
  | Axiom of { fact : string Lazy.t }
      (** ground the mapper assumes rather than observes (its own
          host vertex, the root switch behind its single cable) *)
  | Deduced of {
      rule : string;
      fact : string Lazy.t;
          (** facts are lazy so the mapper hot path never pays for
              formatting a sentence nobody reads *)
      probes : int list;  (** direct probe-entry evidence *)
      deps : int list;  (** prior deduction ids, all [<] this id *)
    }

val set_enabled : bool -> unit
val on : unit -> bool

val reset : unit -> unit
(** Empty the ledger and every index. {!San_mapper.Model.create} calls
    this when provenance is on, so ids never leak across runs. A no-op
    inside {!with_preserve}. *)

val with_preserve : (unit -> 'a) -> 'a
(** [with_preserve f] runs [f] with {!reset} suppressed, so several
    mapper runs (San_shard's N concurrent shards) append to {e one}
    shared ledger and cross-shard deductions — merge-conflict
    resolutions citing probes from two different shards — stay
    well-founded. Vertex-id keyed lookups are unreliable across shard
    model boundaries (each model numbers vertices from 0); entry-id
    based queries remain exact. Nests; restores the previous mode on
    exit, even by exception. *)

(** {1 Recording} — all no-ops returning [-1] when disabled *)

val record_probe : kind:probe_kind -> turns:int list -> resp:string -> int
val record_axiom : fact:string Lazy.t -> int

val deduce :
  rule:string ->
  fact:string Lazy.t ->
  ?probes:int list ->
  ?deps:int list ->
  unit ->
  int
(** Also emits {!San_obs.Trace.Deduction} when a trace sink is
    attached (the fact is then forced; with only the passive ring
    listening it stays a thunk). *)

val last_probe : unit -> int option
(** Id of the most recently recorded probe entry. *)

val edge_did : eid:int -> int option
(** Live-ledger lookup: the entry that justified edge [eid], so later
    deductions (slot-conflict merges, prunes) can cite it. *)

val birth_of : vid:int -> int option
(** Live-ledger lookup: the entry that justified vertex [vid]. *)

(** {1 Side-records} — the typed skeleton {!Replay} rebuilds the model
    from. Vertex/edge ids are the model's own ([Model.vid] and edge
    creation ids); slots are in the frame of the vid they are recorded
    against, at recording time. *)

val note_vertex :
  vid:int -> kind:[ `Host of string | `Switch ] -> did:int -> unit

val note_edge : eid:int -> a:int -> sa:int -> b:int -> sb:int -> did:int -> unit
val note_edge_dead : eid:int -> unit
val note_merge : kept:int -> absorbed:int -> shift:int -> did:int -> unit
val note_prune : vid:int -> did:int -> unit
val note_root_retraction : did:int -> unit

val note_root_confirmation : vid:int -> did:int -> unit
(** The turn-0 self-probe bounced back: the assumed root switch [vid]
    is real, justified by entry [did]. *)

val note_orientation : key:string -> did:int -> unit
(** [key] is the directed-edge name ["a.p>b.q"] in map terms. *)

(** {1 Snapshots} — an immutable copy of the whole ledger, so two runs
    can be compared after the second one [reset] the global state. *)

type snapshot

val capture : unit -> snapshot
val size : snapshot -> int
val entry : snapshot -> int -> entry option
val entries : snapshot -> (int * entry) list
(** Oldest first. *)

type merge_rec = { kept : int; absorbed : int; shift : int; m_did : int }
type edge_rec = { eid : int; e_a : int; e_sa : int; e_b : int; e_sb : int; e_did : int }

val merges : snapshot -> merge_rec list
(** Oldest first. *)

val edges : snapshot -> edge_rec list
(** Oldest first. *)

val edge_dead : snapshot -> eid:int -> bool

val pruned : snapshot -> (int * int) list
(** [(vid, did)] pairs, oldest first. *)

val vertex_birth : snapshot -> vid:int -> int option
val vertex_kind : snapshot -> vid:int -> [ `Host of string | `Switch ] option

val vertices : snapshot -> int list
(** Vids with a recorded birth. *)

val root_confirmation : snapshot -> (int * int) option
(** [(root vid, did)] when the turn-0 self-probe confirmed the
    assumed root switch. *)

val orientation : snapshot -> key:string -> int option
val probe_by_turns :
  snapshot -> kind:probe_kind -> turns:int list -> int option
(** Latest probe entry of this kind recorded with exactly these
    turns — how {!Blame} finds a probe's counterpart in another run. *)

(** {1 Serialization} *)

val entry_to_json : int -> entry -> San_util.Json.t
val entry_of_json : San_util.Json.t -> (int * entry) option
val pp_entry : Format.formatter -> int * entry -> unit

val tail : snapshot -> n:int -> (int * entry) list
(** The last [n] entries, oldest first — the flight recorder's slice. *)
