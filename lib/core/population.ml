open San_topology

type point = {
  responders : int;
  map_time_ns : float;
  probes : int;
  explorations : int;
  map_ok : bool;
}

type order = Sequential | Random of San_util.Prng.t

let sweep ~order ~counts g ~mapper =
  (* Practical depth: far enough to reach every switch and probe all
     its ports — what a deployment configures; the worst-case proof
     bound Q+D+1 would make daemon-starved runs explore astronomically
     many replicates. *)
  let depth =
    let dist = Analysis.bfs_distances g mapper in
    let ecc =
      List.fold_left
        (fun acc s -> if dist.(s) = max_int then acc else max acc dist.(s))
        0 (Graph.switches g)
    in
    Berkeley.Fixed (ecc + 1)
  in
  let hosts = Graph.hosts g in
  let ordered =
    match order with
    | Sequential -> hosts
    | Random rng -> San_util.Prng.shuffle_list rng hosts
  in
  (* The mapper always runs a daemon; it takes the first slot. *)
  let ordered = mapper :: List.filter (fun h -> h <> mapper) ordered in
  List.map
    (fun count ->
      let count = max 1 (min count (List.length ordered)) in
      let responding_set = Hashtbl.create 64 in
      List.iteri
        (fun i h -> if i < count then Hashtbl.replace responding_set h ())
        ordered;
      let net =
        San_simnet.Network.create ~responding:(Hashtbl.mem responding_set) g
      in
      let r = Berkeley.run ~depth net ~mapper in
      {
        responders = count;
        map_time_ns = r.Berkeley.elapsed_ns;
        probes = Berkeley.total_probes r;
        explorations = r.Berkeley.explorations;
        map_ok = Result.is_ok r.Berkeley.map;
      })
    counts
