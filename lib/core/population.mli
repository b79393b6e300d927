(** The Figure 9 population study: mapping time versus how many hosts
    run a (passive) mapper daemon.

    A host that is wired but not running a daemon never answers
    host-probes. That starves the merging machinery of its reference
    points — replicates far from any responding host cannot be
    identified, so the breadth-first exploration re-explores them and
    burns timeouts — which is why adding responders speeds mapping up
    by almost an order of magnitude in the paper, with step
    discontinuities when the first responder of an untouched subcluster
    appears, and why randomly-placed responders approach the minimum
    much sooner than subcluster-ordered ones. *)

open San_topology

type point = {
  responders : int;
  map_time_ns : float;
  probes : int;
  explorations : int;
  map_ok : bool;
      (** whether the map exported cleanly; with few responders
          replicates can remain unresolved — the fabric is still fully
          explored and timed, as in the paper's study *)
}

type order = Sequential | Random of San_util.Prng.t
(** [Sequential] adds daemons in node-id order (filling each
    subcluster before the next, the paper's top curve); [Random]
    shuffles (the bottom curve). *)

val sweep :
  order:order -> counts:int list -> Graph.t -> mapper:Graph.node -> point list
(** [sweep ~order ~counts g ~mapper] runs one faithful mapping per
    requested responder count, on a default network. The mapper host
    always responds and is counted. The depth is [Fixed
    (switch-eccentricity of the mapper + 1)] — just deep enough to
    reach every switch and probe all its ports, the practical setting; the worst-case proof bound [Q+D+1] makes
    daemon-starved runs explore astronomically many replicates, which
    no deployment would configure. *)
