open San_topology
open San_simnet
open San_mapper

let qcheck t = QCheck_alcotest.to_alcotest t

let map_ok ?policy ?depth ?(model = Collision.Circuit) g mapper_name =
  let net = Network.create ~model g in
  let mapper = Option.get (Graph.host_by_name g mapper_name) in
  let r = Berkeley.run ?policy ?depth net ~mapper in
  (r, mapper)

let assert_iso ?policy ?depth ?model name g mapper_name =
  let r, _ = map_ok ?policy ?depth ?model g mapper_name in
  match r.Berkeley.map with
  | Error e -> Alcotest.failf "%s: export failed: %s" name e
  | Ok m -> (
    let exclude = Core_set.separated_set g in
    match Iso.check ~map:m ~actual:g ~exclude () with
    | Ok () -> r
    | Error e -> Alcotest.failf "%s: not isomorphic: %s" name e)

(* ---------- correctness on named topologies (Theorem 1) ---------- *)

let test_maps_subcluster_c () =
  let g, _ = Generators.now_c () in
  let r = assert_iso "C" g "C-util" in
  Alcotest.(check bool) "explorations happened" true (r.Berkeley.explorations > 13);
  Alcotest.(check bool) "hosts all found" true
    (match r.Berkeley.map with
    | Ok m -> Graph.num_hosts m = 36
    | Error _ -> false)

let test_maps_now_full () =
  let g, _ = Generators.now_cab () in
  let r = assert_iso "NOW" g "C-util" in
  (* Figure 8's end state: 140 actual nodes. *)
  Alcotest.(check int) "140 live model nodes" 140 r.Berkeley.live_vertices

let test_maps_from_any_host () =
  let g, _ = Generators.now_c () in
  List.iter
    (fun h -> ignore (assert_iso "C" g h))
    [ "C-h0"; "C-h17"; "C-h34"; "C-util" ]

let test_maps_classic_topologies () =
  ignore (assert_iso "star" (Generators.star ~leaves:4 ()) "h0");
  ignore (assert_iso "ring" (Generators.ring ~switches:7 ~hosts_per_switch:1 ()) "h0-0");
  ignore (assert_iso "mesh" (Generators.mesh ~rows:3 ~cols:4 ()) "h0-0");
  ignore (assert_iso "torus" (Generators.torus ~rows:3 ~cols:3 ()) "h0-0");
  ignore (assert_iso "hypercube" (Generators.hypercube ~dim:4 ()) "h0");
  ignore
    (assert_iso "fat tree"
       (Generators.fat_tree ~leaves:4 ~hosts_per_leaf:3 ~spines:2 ())
       "h0-0")

let test_maps_parallel_links () =
  (* Torus with a 2-long dimension has doubled wires. *)
  ignore (assert_iso "torus2xN" (Generators.torus ~rows:2 ~cols:4 ()) "h0-0")

let test_prunes_f () =
  let g = Generators.pendant_branch () in
  let r = assert_iso "pendant" g "h0" in
  match r.Berkeley.map with
  | Ok m ->
    (* The hostless tail behind the switch-bridge must be absent. *)
    Alcotest.(check int) "only core switches" 2 (Graph.num_switches m)
  | Error _ -> Alcotest.fail "export failed"

let test_cut_through_model_maps () =
  let g, _ = Generators.now_c () in
  ignore (assert_iso "C cut-through" ~model:Collision.Cut_through g "C-util")

let test_exhaustive_policy_small () =
  let g = Generators.star ~leaves:3 () in
  ignore (assert_iso "star exhaustive" ~policy:Berkeley.exhaustive g "h0")

let test_policies_agree () =
  (* The faithful optimizations must not change the result. *)
  let rng = San_util.Prng.create 50 in
  for _ = 1 to 5 do
    let g =
      Generators.random_connected ~rng ~switches:4 ~hosts:3 ~extra_links:2 ()
    in
    let r1, _ = map_ok ~policy:Berkeley.faithful g "h0" in
    let r2, _ = map_ok ~policy:Berkeley.exhaustive ~depth:(Berkeley.Fixed 7) g "h0" in
    match (r1.Berkeley.map, r2.Berkeley.map) with
    | Ok m1, Ok m2 ->
      Alcotest.(check bool) "faithful == exhaustive (up to iso)" true
        (Iso.equal ~map:m1 ~actual:m2 ());
      Alcotest.(check bool) "faithful sends fewer probes" true
        (Berkeley.total_probes r1 <= Berkeley.total_probes r2)
    | Error e, _ | _, Error e -> Alcotest.failf "export failed: %s" e
  done

let test_depth_too_small_degrades () =
  let g, _ = Generators.now_cab () in
  let r, _ = map_ok ~depth:(Berkeley.Fixed 3) g "C-util" in
  match r.Berkeley.map with
  | Ok m ->
    Alcotest.(check bool) "shallow map misses switches" true
      (Graph.num_switches m < 40)
  | Error _ -> () (* unresolved replicates are also an acceptable signal *)

let test_depth_threshold_now () =
  (* Completeness ablation: the NOW needs depth 7 from C-util; 6 loses
     the two hostless B-roots. *)
  let g, _ = Generators.now_cab () in
  let r6, _ = map_ok ~depth:(Berkeley.Fixed 6) g "C-util" in
  let r7, _ = map_ok ~depth:(Berkeley.Fixed 7) g "C-util" in
  (match r6.Berkeley.map with
  | Ok m -> Alcotest.(check int) "depth 6 misses the hostless roots" 38
      (Graph.num_switches m)
  | Error _ -> Alcotest.fail "depth 6 should still export");
  match r7.Berkeley.map with
  | Ok m ->
    Alcotest.(check int) "depth 7 complete" 40 (Graph.num_switches m);
    Alcotest.(check bool) "depth 7 isomorphic" true (Iso.equal ~map:m ~actual:g ())
  | Error _ -> Alcotest.fail "depth 7 should export"

let test_stats_accounting () =
  let g, _ = Generators.now_c () in
  let r, _ = map_ok g "C-util" in
  Alcotest.(check bool) "hits bounded by probes" true
    (r.Berkeley.host_hits <= r.Berkeley.host_probes
    && r.Berkeley.switch_hits <= r.Berkeley.switch_probes);
  Alcotest.(check bool) "elapsed positive" true (r.Berkeley.elapsed_ns > 0.0);
  Alcotest.(check bool) "created >= live" true
    (r.Berkeley.created_vertices >= r.Berkeley.live_vertices)

let test_trace_monotone () =
  let g, _ = Generators.now_c () in
  let net = Network.create g in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let r = Berkeley.run ~record_trace:true net ~mapper in
  let tr = r.Berkeley.trace in
  Alcotest.(check int) "one point per exploration" r.Berkeley.explorations
    (List.length tr);
  let rec monotone = function
    | (a : Berkeley.trace_point) :: (b :: _ as rest) ->
      a.Berkeley.step < b.Berkeley.step
      && a.Berkeley.created_nodes <= b.Berkeley.created_nodes
      && a.Berkeley.elapsed_ns <= b.Berkeley.elapsed_ns
      && a.Berkeley.hosts_found <= b.Berkeley.hosts_found
      && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "trace monotone" true (monotone tr);
  (* After the last exploration the frontier holds only vertices that
     will be popped and skipped (already-explored classes). *)
  Alcotest.(check int) "all 36 hosts found" 36
    (match List.rev tr with last :: _ -> last.Berkeley.hosts_found | [] -> 0)

let test_silent_hosts_dont_break_mapping () =
  let g, _ = Generators.now_c () in
  (* One silent host: its link vanishes from the map, everything else
     is still mapped. *)
  let silent = Option.get (Graph.host_by_name g "C-h7") in
  let net = Network.create ~responding:(fun h -> h <> silent) g in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let r = Berkeley.run net ~mapper in
  match r.Berkeley.map with
  | Ok m ->
    Alcotest.(check int) "one host missing" 35 (Graph.num_hosts m);
    Alcotest.(check int) "all switches present" 13 (Graph.num_switches m)
  | Error e -> Alcotest.failf "export failed: %s" e

let test_degraded_network_maps () =
  (* Dynamic reconfiguration: cut links, map again. *)
  let g, _ = Generators.now_c () in
  let rng = San_util.Prng.create 21 in
  let g' = Faults.remove_random_links ~rng g ~count:4 in
  if Analysis.is_connected g' then ignore (assert_iso "degraded C" g' "C-util")

let test_unwired_mapper () =
  let g = Graph.create () in
  let h = Graph.add_host g ~name:"lonely" in
  let _s = Graph.add_switch g () in
  let h2 = Graph.add_host g ~name:"other" in
  ignore h2;
  let net = Network.create g in
  let r = Berkeley.run net ~mapper:h in
  match r.Berkeley.map with
  | Ok m ->
    Alcotest.(check int) "just the mapper host" 1 (Graph.num_hosts m);
    Alcotest.(check int) "no switches" 0 (Graph.num_switches m)
  | Error e -> Alcotest.failf "degenerate export failed: %s" e

(* ---------- the paper's theorem as a property ---------- *)

let theorem1_prop model name =
  QCheck.Test.make ~name ~count:40
    QCheck.(triple small_int (int_range 2 9) (int_range 2 5))
    (fun (seed, switches, hosts) ->
      let rng = San_util.Prng.create ((seed * 31) + switches) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts
          ~extra_links:(seed mod 4) ()
      in
      (* The cut-through statement of Theorem 1 requires empty F. *)
      QCheck.assume
        (model = Collision.Circuit || Core_set.core_is_empty_f g);
      let net = Network.create ~model g in
      let mapper = Option.get (Graph.host_by_name g "h0") in
      let r = Berkeley.run net ~mapper in
      match r.Berkeley.map with
      | Error _ -> false
      | Ok m ->
        let exclude = Core_set.separated_set g in
        Iso.equal ~map:m ~actual:g ~exclude ())

let theorem1_circuit =
  theorem1_prop Collision.Circuit "theorem 1: random nets, circuit model"

let theorem1_cut_through =
  theorem1_prop Collision.Cut_through
    "theorem 1: random nets, cut-through, empty F"

(* The whole stack is parametric in the switch radix; the paper's 8 is
   just Myrinet's value. *)
let radix4_prop =
  QCheck.Test.make ~name:"theorem 1 on radix-4 switches" ~count:25
    QCheck.(pair small_int (int_range 2 7))
    (fun (seed, switches) ->
      let rng = San_util.Prng.create ((seed * 19) + switches) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts:3 ~extra_links:1
          ~radix:4 ()
      in
      let net = Network.create g in
      let mapper = Option.get (Graph.host_by_name g "h0") in
      let r = Berkeley.run net ~mapper in
      match r.Berkeley.map with
      | Error _ -> false
      | Ok m ->
        Graph.radix m = 4
        && Iso.equal ~map:m ~actual:g ~exclude:(Core_set.separated_set g) ())

let test_radix16_maps () =
  let g = Generators.fat_tree ~radix:16 ~leaves:6 ~hosts_per_leaf:10 ~spines:4 () in
  let net = Network.create g in
  let mapper = Option.get (Graph.host_by_name g "h0-0") in
  let r = Berkeley.run net ~mapper in
  match r.Berkeley.map with
  | Ok m ->
    Alcotest.(check bool) "radix-16 fat tree maps" true (Iso.equal ~map:m ~actual:g ())
  | Error e -> Alcotest.failf "radix-16 failed: %s" e

(* ---------- the benchmark's map workloads, pinned ---------- *)

(* Seeded exact metrics of a fixed-depth map from h0 on a preset: the
   probe path may get faster, but it must send the same probes, learn
   the same answers and charge the same simulated time. *)
type pinned = {
  probes : int;
  host_hits : int;
  switch_hits : int;
  elapsed_ns : float;
  explorations : int;
  created : int;
  live : int;
}

let test_pinned_map spec expect () =
  let p =
    match San_fabric.Fabric.parse spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "%s: %s" spec e
  in
  let g = p.San_fabric.Fabric.p_build ~seed:1 in
  let depth = Option.get p.San_fabric.Fabric.p_depth in
  let mapper = Option.get (Graph.host_by_name g "h0") in
  let r = Berkeley.run ~depth:(Berkeley.Fixed depth) (Network.create g) ~mapper in
  let got =
    {
      probes = Berkeley.total_probes r;
      host_hits = r.Berkeley.host_hits;
      switch_hits = r.Berkeley.switch_hits;
      elapsed_ns = r.Berkeley.elapsed_ns;
      explorations = r.Berkeley.explorations;
      created = r.Berkeley.created_vertices;
      live = r.Berkeley.live_vertices;
    }
  in
  let check what f = Alcotest.(check int) (spec ^ ": " ^ what) (f expect) (f got) in
  check "probes" (fun m -> m.probes);
  check "host hits" (fun m -> m.host_hits);
  check "switch hits" (fun m -> m.switch_hits);
  Alcotest.(check (float 0.0)) (spec ^ ": simulated ns") expect.elapsed_ns
    got.elapsed_ns;
  check "explorations" (fun m -> m.explorations);
  check "created vertices" (fun m -> m.created);
  check "live vertices" (fun m -> m.live)

let model_invariants_prop =
  QCheck.Test.make ~name:"model invariants hold through explore and prune"
    ~count:25
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, switches) ->
      let rng = San_util.Prng.create (seed + 100) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts:3 ~extra_links:2 ()
      in
      let net = Network.create g in
      let mapper = Option.get (Graph.host_by_name g "h0") in
      let depth_used = Core_set.search_depth g ~root:mapper in
      let model =
        Model.create ~mapper_name:(Graph.name g mapper) ~radix:(Graph.radix g)
      in
      let _ =
        Berkeley.explore_from ~policy:Berkeley.faithful ~depth_used
          ~record_trace:false net ~mapper model
          [ Model.root_switch model ]
      in
      let after_explore = Model.check_invariants model in
      Model.prune model;
      let after_prune = Model.check_invariants model in
      after_explore = Ok () && after_prune = Ok ())

let () =
  Alcotest.run "san_mapper.berkeley"
    [
      ( "topologies",
        [
          Alcotest.test_case "subcluster C" `Quick test_maps_subcluster_c;
          Alcotest.test_case "full NOW" `Quick test_maps_now_full;
          Alcotest.test_case "any mapper host" `Quick test_maps_from_any_host;
          Alcotest.test_case "classic interconnects" `Quick
            test_maps_classic_topologies;
          Alcotest.test_case "parallel links" `Quick test_maps_parallel_links;
          Alcotest.test_case "prunes F" `Quick test_prunes_f;
          Alcotest.test_case "cut-through model" `Quick test_cut_through_model_maps;
        ] );
      ( "policies",
        [
          Alcotest.test_case "exhaustive on small net" `Quick
            test_exhaustive_policy_small;
          Alcotest.test_case "faithful == exhaustive" `Quick test_policies_agree;
          Alcotest.test_case "shallow depth degrades" `Quick
            test_depth_too_small_degrades;
          Alcotest.test_case "NOW depth threshold" `Quick test_depth_threshold_now;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "stats" `Quick test_stats_accounting;
          Alcotest.test_case "trace" `Quick test_trace_monotone;
        ] );
      ( "failures",
        [
          Alcotest.test_case "silent host" `Quick test_silent_hosts_dont_break_mapping;
          Alcotest.test_case "degraded network" `Quick test_degraded_network_maps;
          Alcotest.test_case "unwired mapper" `Quick test_unwired_mapper;
        ] );
      ( "properties",
        [
          qcheck theorem1_circuit;
          qcheck theorem1_cut_through;
          qcheck model_invariants_prop;
          qcheck radix4_prop;
        ] );
      ( "radix generality",
        [ Alcotest.test_case "radix-16 fat tree" `Quick test_radix16_maps ] );
      ( "workloads",
        [
          Alcotest.test_case "map-ft1k, seed 1" `Slow
            (test_pinned_map "ft-1k"
               { probes = 361_004; host_hits = 2_687; switch_hits = 210_580;
                 elapsed_ns = 121_443_572_000.0; explorations = 210_581;
                 created = 213_269; live = 1_313 });
          Alcotest.test_case "map-r32, seed 1" `Slow
            (test_pinned_map "levels=3,radix=32,edge=4,hosts=16"
               { probes = 138_556; host_hits = 182; switch_hits = 85_838;
                 elapsed_ns = 45_015_896_200.0; explorations = 85_839;
                 created = 86_022; live = 74 });
        ] );
    ]
