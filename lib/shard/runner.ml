open San_topology
module Prng = San_util.Prng
module Obs = San_obs.Obs
module Network = San_simnet.Network
module Berkeley = San_mapper.Berkeley

type shard_report = {
  s_idx : int;
  s_mapper : string;
  s_depth : int;
  s_radius : int;
  s_budget : int;
  s_probes : int;
  s_over_budget : bool;
  s_elapsed_ns : float;
  s_map_nodes : int;
  s_stale : bool;
  s_probe_cost : San_obs.Digest.t;
}

type result = {
  map : (Graph.t, string) Stdlib.result;
  plan : Region.t;
  reports : shard_report list;
  resolutions : Merge.resolution list;
  dropped_views : int list;
  total_probes : int;
  wall_ns : float;
  sum_ns : float;
  merge_ns : float;
  coordinator : string;
  probe_cost : San_obs.Digest.t;
      (** the shards' probe-cost digests merged — composition is exact,
          so this equals the digest of the whole run's probe costs *)
}

(* A stale view: the fabric as shard [idx] mapped it one epoch ago,
   before a recabling swapped the far ends of two wires. Both wires
   are chosen (seeded) inside the stale shard's exploration scope AND
   some other shard's, so the fresh views carry the true wiring and
   the merge must detect and resolve the contradiction. *)
let corrupt_view ~seed ~scopes ~idx ~mapper g =
  let k = Array.length scopes in
  let covered i a b = scopes.(i).(a) && scopes.(i).(b) in
  let overlap_wire ((a, _), (b, _)) =
    (not (Graph.is_host g a))
    && (not (Graph.is_host g b))
    && covered idx a b
    &&
    let rec other j = j < k && ((j <> idx && covered j a b) || other (j + 1)) in
    other 0
  in
  let cands = Array.of_list (List.filter overlap_wire (Graph.wires g)) in
  if Array.length cands < 2 then None
  else begin
    let rng = Prng.create (seed lxor 0x57A1E) in
    let reach g' =
      let d = Analysis.bfs_distances g' mapper in
      Array.fold_left (fun acc x -> if x < max_int then acc + 1 else acc) 0 d
    in
    let reach0 = reach g in
    let rec try_pick tries =
      if tries <= 0 then None
      else begin
        let (a1, p1), (b1, q1) = Prng.choose rng cands in
        let (a2, p2), (b2, q2) = Prng.choose rng cands in
        let nodes = [ a1; b1; a2; b2 ] in
        if List.length (List.sort_uniq compare nodes) < 4 then
          try_pick (tries - 1)
        else begin
          let m = Graph.copy g in
          Graph.disconnect m (a1, p1);
          Graph.disconnect m (a2, p2);
          Graph.connect m (a1, p1) (b2, q2);
          Graph.connect m (a2, p2) (b1, q1);
          (* The swap must not shrink what the stale mapper can reach,
             or the view diverges for reachability reasons rather than
             the staleness under test. *)
          if reach m = reach0 then Some m else try_pick (tries - 1)
        end
      end
    in
    try_pick 32
  end

(* The shard's probe-cost distribution, captured as a mergeable digest
   by diffing the global probe-cost histogram around the run. Requires
   the switchboard on; with observability off the digest is empty. *)
let probe_cost_digest ~before =
  let after = San_obs.Metrics.snapshot Obs.registry in
  let window = San_obs.Metrics.diff ~before ~after in
  match San_obs.Metrics.histogram_in window "net.probe_cost_ns" with
  | Some hs -> hs
  | None -> San_obs.Digest.create ()

let execute ?responding ?policy ?params ?traffic ?(epoch = 1) ?stale g
    (plan : Region.t) =
  San_why.Why.with_preserve @@ fun () ->
  Obs.with_span "shard.run" @@ fun () ->
  let scopes = plan.Region.scopes in
  let shard (sp : Region.shard_plan) =
    let gk, is_stale =
      match stale with
      | Some i when i = sp.Region.idx -> (
        match
          corrupt_view ~seed:plan.Region.seed ~scopes ~idx:i
            ~mapper:sp.Region.mapper g
        with
        | Some m -> (m, true)
        | None -> (g, false))
      | _ -> (g, false)
    in
    let net = Network.create ?params ?responding ?traffic gk in
    (* Ownership-scoped exploration: resolve the probe path against the
       (possibly recabled) fabric the shard is actually probing and
       expand only switches in this shard's scope — its cell, the ring
       around it, and its anchor paths. The other modes run unscoped. *)
    let expand =
      match plan.Region.mode with
      | Region.Oracle | Region.Local -> None
      | Region.Scoped ->
        Some
          (fun path ->
            match
              (San_simnet.Worm.eval gk ~src:sp.Region.mapper ~turns:path)
                .San_simnet.Worm.outcome
            with
            | San_simnet.Worm.Stranded v -> scopes.(sp.Region.idx).(v)
            | _ -> false)
    in
    let cost_before = San_obs.Metrics.snapshot Obs.registry in
    let r =
      Obs.with_span "shard.map" (fun () ->
          Berkeley.run ?policy ?expand
            ~depth:(Berkeley.Fixed sp.Region.depth)
            net ~mapper:sp.Region.mapper)
    in
    let probe_cost = probe_cost_digest ~before:cost_before in
    let probes = Network.host_probes net + Network.switch_probes net in
    let probe_did = San_why.Why.last_probe () in
    let trimmed =
      match r.Berkeley.map with
      | Error _ -> None
      | Ok m -> (
        match plan.Region.mode with
        (* Oracle views are kept whole: two trimmed balls can both hold
           a switch while their shared subgraph around it is
           disconnected from the anchor host, and the merge would then
           duplicate it rather than identify the copies. Scoped views
           are trimmed as a safety net — the radius covers the whole
           scope, so only replicate leftovers go. *)
        | Region.Oracle -> Some m
        | Region.Scoped | Region.Local -> (
          match Graph.host_by_name m sp.Region.mapper_name with
          | None -> None
          | Some c -> Some (Region.trim m ~center:c ~radius:sp.Region.radius)))
    in
    let report =
      {
        s_idx = sp.Region.idx;
        s_mapper = sp.Region.mapper_name;
        s_depth = sp.Region.depth;
        s_radius = sp.Region.radius;
        s_budget = sp.Region.budget;
        s_probes = probes;
        s_over_budget = probes > sp.Region.budget;
        s_elapsed_ns = r.Berkeley.elapsed_ns;
        s_map_nodes =
          (match trimmed with Some m -> Graph.num_nodes m | None -> 0);
        s_stale = is_stale;
        s_probe_cost = probe_cost;
      }
    in
    let view =
      Option.map
        (fun m ->
          {
            Merge.v_idx = sp.Region.idx;
            v_map = m;
            v_epoch = (if is_stale then epoch - 1 else epoch);
            v_finished_ns = r.Berkeley.elapsed_ns;
            v_probe = probe_did;
            v_mapper = sp.Region.mapper_name;
          })
        trimmed
    in
    (report, view)
  in
  let shard_results = List.map shard plan.Region.plans in
  let reports = List.map fst shard_results in
  let views = List.filter_map snd shard_results in
  let t0 = Unix.gettimeofday () in
  let merged =
    Obs.with_span "shard.merge" (fun () ->
        if views = [] then
          {
            Merge.map = Error "every shard map failed";
            resolutions = [];
            dropped_views = [];
          }
        else Merge.resolve views)
  in
  let merge_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  {
    map = merged.Merge.map;
    plan;
    reports;
    resolutions = merged.Merge.resolutions;
    dropped_views = merged.Merge.dropped_views;
    total_probes = List.fold_left (fun acc r -> acc + r.s_probes) 0 reports;
    wall_ns =
      List.fold_left (fun acc r -> Float.max acc r.s_elapsed_ns) 0.0 reports;
    sum_ns = List.fold_left (fun acc r -> acc +. r.s_elapsed_ns) 0.0 reports;
    merge_ns;
    coordinator =
      (List.nth plan.Region.plans plan.Region.coordinator).Region.mapper_name;
    probe_cost =
      San_obs.Digest.merge_all (List.map (fun r -> r.s_probe_cost) reports);
  }

let run ?(seed = 0) ?root ?responding ?policy ?params ?traffic ?epoch ?stale g
    ~shards =
  Result.map
    (execute ?responding ?policy ?params ?traffic ?epoch ?stale g)
    (Region.plan ~seed ?root ?responding g ~shards)
