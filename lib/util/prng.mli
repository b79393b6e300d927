(** Deterministic pseudo-random number generation.

    All randomized components of the reproduction (topology generation,
    election skew, load-balanced route selection, property-test inputs)
    draw from this splittable SplitMix64 generator so that every
    experiment is reproducible from a single integer seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an arbitrary integer seed. *)

val copy : t -> t
(** [copy t] duplicates the state; the copy evolves independently. *)

val split : t -> t
(** [split t] derives an independent child generator and advances [t].
    Used to give each simulated host its own stream. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in \[lo, hi\] inclusive. Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val shuffle_list : t -> 'a list -> 'a list
(** Shuffled copy of a list. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential with the given mean;
    used for heavy-tailed election skew and Poisson arrival gaps. *)

type arrivals
(** A resumable Poisson arrival stream. *)

val arrivals : t -> mean_gap:float -> arrivals
(** A stream of exponential gaps of mean [mean_gap] drawn from [t]; the
    first is drawn here. [mean_gap = infinity] (rate 0) never arrives. *)

val arrivals_before : arrivals -> float -> (float -> unit) -> unit
(** [arrivals_before a h f] calls [f time] for each arrival before [h]
    not yet read, drawing the next gap after each [f] (which may draw
    from the same generator). Reading to [h1], then [h2], is reading to
    [h2]. *)
