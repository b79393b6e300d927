(** The two §2.3.1 worm-collision models.

    A quiescent network means a probe can only collide with itself
    ("stepping on one's tail"). Links are full duplex — each wire
    carries two independent directed channels — so what matters is
    which {e directed} channel a worm re-enters and when:

    - {b Circuit}: worms hold their whole path, so a host-probe fails
      as soon as its path reuses a directed channel, and a loopback
      (switch-) probe additionally fails when its outbound half reuses
      a wire in {e either} direction, because the retrace doubles every
      crossing.
    - {b Cut_through}: a reused channel has been released iff the
      worm's tail has already drained past it, which depends on worm
      length, per-port buffering, and how many hops the head travelled
      in between; reuse "may or may not fail" (the paper's words), and
      with Myrinet's 108-byte buffers short probes practically always
      survive.

    A blocked worm deadlocks on itself and is destroyed by the
    hardware; the mapper simply observes a timeout. Both models read a
    {!Worm.walk} and allocate nothing; charging the collision to a
    channel is the caller's business ({!Network} does it). *)

type model = Circuit | Cut_through

val model_to_string : model -> string

type stamps
(** Per-channel marks reused across probes, one per {!Network}. The
    directed and the undirected circuit checks each keep a set of the
    channels the walk's hops use, each stamp recording its hop index;
    a check drops only the stamps of hops its walk has rewritten since
    the set's last check ({!Worm.walk}'s [hop_fill]) and stamps only
    the hops after them, so it costs the hops a probe does not share
    with the last one checked. Cut-through keeps a generation stamp
    and the hop index of the last use per directed channel id
    [node * radix + port], and re-stamps every hop. The arrays grow to
    the largest channel id and the longest walk seen. *)

val stamps : unit -> stamps

val host_blocking_hop : stamps -> model -> Params.t -> Worm.walk -> int
(** The hop at which this host-probe worm steps on its own tail — the
    first reuse in hop order that blocks under [model] — or [-1] when
    it does not block. The answer depends only on the walk's hops, not
    on which walks the stamps checked before. *)

val switch_blocking_hop :
  stamps -> model -> Params.t -> forward_hops:int -> Worm.walk -> int
(** The same for a loopback worm. [forward_hops] is the number of wire
    crossings of the outbound half (k+1 for a probe of k turns); under
    {!Circuit} only those are checked, and for wire identity in either
    direction. *)
