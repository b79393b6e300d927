open San_topology
open San_shard
module Fabric = San_fabric.Fabric

(* ---------- fixtures ---------- *)

let ft100 () =
  match Fabric.find_preset "ft-100" with
  | Some p -> p.Fabric.p_build ~seed:7
  | None -> Alcotest.fail "ft-100 preset missing"

(* A fabric big enough (> 300 nodes) to exercise the localized depth
   bound rather than the small-graph oracle path. *)
let mid_fabric () =
  let spec =
    {
      Fabric.default with
      Fabric.levels = 2;
      radix = 8;
      edge_switches = 81;
      hosts_per_edge = 4;
    }
  in
  Fabric.build ~seed:11 spec

let solo_map g =
  let m = List.hd (Graph.hosts g) in
  let depth = Core_set.search_depth g ~root:m in
  let net = San_simnet.Network.create g in
  let r =
    San_mapper.Berkeley.run ~depth:(San_mapper.Berkeley.Fixed depth) net
      ~mapper:m
  in
  match r.San_mapper.Berkeley.map with
  | Ok map -> (m, map)
  | Error e -> Alcotest.fail ("solo map failed: " ^ e)

let plan_fingerprint (t : Region.t) =
  String.concat ";"
    (Printf.sprintf "shards=%d coord=%d comp=%d" t.Region.shards
       t.Region.coordinator t.Region.comp_nodes
    :: List.map
         (fun (sp : Region.shard_plan) ->
           Printf.sprintf "%d:%s r=%d d=%d o=%d c=%d" sp.Region.idx
             sp.Region.mapper_name sp.Region.radius sp.Region.depth
             sp.Region.owned sp.Region.covered)
         t.Region.plans)

(* ---------- planner ---------- *)

let test_plan_deterministic () =
  let g = ft100 () in
  let p1 = Region.plan ~seed:3 g ~shards:4 in
  let p2 = Region.plan ~seed:3 g ~shards:4 in
  match (p1, p2) with
  | Ok a, Ok b ->
    Alcotest.(check string)
      "same seed, same plan" (plan_fingerprint a) (plan_fingerprint b)
  | _ -> Alcotest.fail "planning failed"

let test_plan_seed_matters () =
  let g = ft100 () in
  match (Region.plan ~seed:1 g ~shards:4, Region.plan ~seed:2 g ~shards:4) with
  | Ok a, Ok b ->
    (* Different seeds place different mapper sets (first mapper is the
       fixed root, so compare the rest). *)
    let names t =
      List.map (fun sp -> sp.Region.mapper_name) t.Region.plans
    in
    Alcotest.(check bool)
      "different seeds, different placements" true
      (names a <> names b)
  | _ -> Alcotest.fail "planning failed"

let test_plan_anchor_pairs () =
  let g = ft100 () in
  match Region.plan ~seed:5 g ~shards:4 with
  | Error e -> Alcotest.fail e
  | Ok t ->
    let plans = Array.of_list t.Region.plans in
    let dist = Region.distances g t in
    let kept i h =
      h = plans.(i).Region.mapper
      ||
      match Graph.wired_ports g h with
      | (_, (s, _)) :: _ when not (Graph.is_host g s) ->
        dist.(i).(s) <= plans.(i).Region.radius
      | _ -> false
    in
    let k = Array.length plans in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        let shared =
          List.exists (fun h -> kept i h && kept j h) (Graph.hosts g)
        in
        Alcotest.(check bool)
          (Printf.sprintf "shards %d and %d share an anchor host" i j)
          true shared
      done
    done

let test_plan_clamps () =
  let g = Generators.fat_tree ~leaves:2 ~hosts_per_leaf:2 ~spines:1 () in
  match Region.plan g ~shards:64 with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check bool)
      "clamped to host population" true
      (t.Region.shards <= List.length (Graph.hosts g))

(* ---------- runner: agreement with the solo mapper ---------- *)

let check_agreement g counts =
  let m, solo = solo_map g in
  List.iter
    (fun shards ->
      match Runner.run ~seed:42 ~root:m g ~shards with
      | Error e -> Alcotest.fail (Printf.sprintf "%d shards: %s" shards e)
      | Ok r -> (
        Alcotest.(check (list Alcotest.int))
          (Printf.sprintf "%d shards: no dropped views" shards)
          [] r.Runner.dropped_views;
        match r.Runner.map with
        | Error e ->
          Alcotest.fail (Printf.sprintf "%d shards: merge failed: %s" shards e)
        | Ok merged -> (
          match Iso.check ~map:merged ~actual:solo () with
          | Ok () -> ()
          | Error e ->
            Alcotest.fail
              (Printf.sprintf "%d shards: merged map not iso to solo: %s"
                 shards e))))
    counts

let test_agreement_ft100 () = check_agreement (ft100 ()) [ 1; 2; 4; 8 ]
let test_agreement_mid () = check_agreement (mid_fabric ()) [ 4 ]

let test_agreement_now () =
  let g, _ = Generators.now_cab () in
  check_agreement g [ 1; 2; 4 ]

(* ---------- runner: stale view conflict resolution ---------- *)

let test_stale_resolved () =
  let g = ft100 () in
  let m, solo = solo_map g in
  San_why.Why.set_enabled true;
  Fun.protect ~finally:(fun () -> San_why.Why.set_enabled false) @@ fun () ->
  match Runner.run ~seed:42 ~root:m ~stale:1 g ~shards:4 with
  | Error e -> Alcotest.fail e
  | Ok r -> (
    let stale_ran =
      List.exists (fun s -> s.Runner.s_stale) r.Runner.reports
    in
    Alcotest.(check bool) "a stale shard ran" true stale_ran;
    Alcotest.(check bool)
      "conflicts were resolved" true
      (r.Runner.resolutions <> []);
    List.iter
      (fun (res : Merge.resolution) ->
        Alcotest.(check string)
          "stale view classified" "stale-view" res.Merge.r_class;
        Alcotest.(check bool)
          "resolution recorded in the why ledger" true
          (res.Merge.r_did >= 0))
      r.Runner.resolutions;
    (* Every resolution must be justified by probe evidence. *)
    let snap = San_why.Why.capture () in
    List.iter
      (fun (res : Merge.resolution) ->
        let leaves = San_why.Explain.leaves snap res.Merge.r_did in
        let has_probe =
          List.exists
            (fun (_, e) ->
              match e with San_why.Why.Probe _ -> true | _ -> false)
            leaves
        in
        Alcotest.(check bool) "resolution cites probe evidence" true
          has_probe)
      r.Runner.resolutions;
    match r.Runner.map with
    | Error e -> Alcotest.fail ("merge failed: " ^ e)
    | Ok merged -> (
      match Iso.check ~map:merged ~actual:solo () with
      | Ok () -> ()
      | Error e ->
        Alcotest.fail ("merged map (with stale shard) not iso to solo: " ^ e)))

(* ---------- budgets and accounting ---------- *)

let test_reports_accounting () =
  let g = ft100 () in
  match Runner.run ~seed:0 g ~shards:4 with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let sum = List.fold_left (fun a s -> a + s.Runner.s_probes) 0 r.Runner.reports in
    Alcotest.(check int) "probes add up" sum r.Runner.total_probes;
    List.iter
      (fun s ->
        Alcotest.(check bool)
          (Printf.sprintf "shard %d within its advisory budget" s.Runner.s_idx)
          false s.Runner.s_over_budget)
      r.Runner.reports;
    Alcotest.(check bool) "wall <= sum" true (r.Runner.wall_ns <= r.Runner.sum_ns);
    Alcotest.(check bool) "coordinator named" true (r.Runner.coordinator <> "")

(* The wall and the work are simulated time only: two seeded runs agree
   to the bit. *)
let test_reports_replay () =
  let g = ft100 () in
  let run () = Result.get_ok (Runner.run ~seed:1 g ~shards:4) in
  let a = run () and b = run () in
  Alcotest.(check bool) "wall_ns bit-identical" true
    (Int64.equal
       (Int64.bits_of_float a.Runner.wall_ns)
       (Int64.bits_of_float b.Runner.wall_ns));
  Alcotest.(check bool) "sum_ns bit-identical" true
    (Int64.equal
       (Int64.bits_of_float a.Runner.sum_ns)
       (Int64.bits_of_float b.Runner.sum_ns));
  Alcotest.(check (float 0.0)) "wall is the slowest shard"
    (List.fold_left
       (fun acc s -> Float.max acc s.Runner.s_elapsed_ns)
       0.0 a.Runner.reports)
    a.Runner.wall_ns

(* ---------- placement ---------- *)

let test_spread_mappers () =
  let g = ft100 () in
  let hosts = Graph.hosts g in
  let n = List.length hosts in
  (* Unseeded: starts at the first host. *)
  let s = Region.spread_mappers g ~count:4 in
  Alcotest.(check int) "unseeded count" 4 (List.length s);
  Alcotest.(check bool) "unseeded includes first host" true
    (List.mem (List.hd hosts) s);
  (* Degenerate count > hosts: distinct nodes, clamped. *)
  let all = Region.spread_mappers g ~count:(n + 50) in
  Alcotest.(check int) "clamped to hosts" n (List.length all);
  Alcotest.(check int) "no repeats" n
    (List.length (List.sort_uniq compare all));
  (* Seeded: replayable and distinct. *)
  let a = Region.spread_mappers ~seed:9 g ~count:6 in
  let b = Region.spread_mappers ~seed:9 g ~count:6 in
  Alcotest.(check bool) "seeded replays" true (a = b);
  Alcotest.(check int) "seeded distinct" (List.length a)
    (List.length (List.sort_uniq compare a))

let () =
  Alcotest.run "shard"
    [
      ( "planner",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "seed matters" `Quick test_plan_seed_matters;
          Alcotest.test_case "anchor pairs" `Quick test_plan_anchor_pairs;
          Alcotest.test_case "clamps" `Quick test_plan_clamps;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "ft-100 x {1,2,4,8}" `Quick test_agreement_ft100;
          Alcotest.test_case "mid fabric x 4" `Quick test_agreement_mid;
          Alcotest.test_case "now-cab x {1,2,4}" `Quick test_agreement_now;
        ] );
      ( "conflicts",
        [ Alcotest.test_case "stale view resolved" `Quick test_stale_resolved ] );
      ( "accounting",
        [
          Alcotest.test_case "reports" `Quick test_reports_accounting;
          Alcotest.test_case "seeded replay" `Quick test_reports_replay;
        ] );
      ( "placement",
        [ Alcotest.test_case "spread_mappers" `Quick test_spread_mappers ] );
    ]
