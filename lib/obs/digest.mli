(** Mergeable streaming quantile digests: the registry's one binning.

    Positive observations are binned at geometric boundaries
    [gamma^i] with [gamma = 2^(1/8)] (~9% relative resolution, the
    scheme DDSketch/HDR use); non-positive observations share a
    dedicated zero bucket. Bucket counts add, so the {e exact} merge of
    two streams' digests equals the digest of their concatenation.
    Every {!Metrics} histogram is a named digest, and shard runners
    summarize locally while the coordinator composes fleet percentiles
    without ever seeing raw samples. *)

type t

val create : unit -> t
val add : t -> float -> unit
val of_list : float list -> t

val clear : t -> unit
(** Forget every observation, in place. *)

val copy : t -> t

val count : t -> int
val sum : t -> float
val is_empty : t -> bool

val min : t -> float
(** Smallest observation; [infinity] when empty. *)

val max : t -> float
(** Largest observation; [neg_infinity] when empty. *)

val zero_count : t -> int
(** Observations in the zero bucket (non-positive values). *)

val buckets : t -> (int * int) list
(** [(bucket index, count)] of the positive buckets, by index. *)

val merge : t -> t -> t
(** A fresh digest equal to the digest of the concatenated streams.
    Associative and commutative; neither argument is mutated. *)

val merge_all : t list -> t

val diff : before:t -> after:t -> t
(** The observations [after] holds beyond [before], for two readings
    of the same growing digest: counts, sums and buckets subtract, and
    the extremes come from [after] (window extremes are not
    recoverable). A digest that restarted in between ({!clear}: its
    total, zero bucket or any single bucket shrank) is reported as
    [after] wholesale, since everything since the restart is new, so
    no count is ever negative. A fresh digest; neither argument is
    mutated. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1]: the geometric midpoint of the
    bucket holding the rank-[q] observation, clamped to the observed
    min/max. 0 when empty. *)

val relative_error : float
(** Guaranteed worst-case relative error of [quantile] for positive
    observations: [sqrt gamma - 1] (~4.4%). *)

val to_json : t -> San_util.Json.t
val of_json : San_util.Json.t -> t option
