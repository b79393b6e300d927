open San_topology
open San_check

(* ---------- generator ---------- *)

let case_fingerprint (c : Fuzz_gen.case) =
  let g = c.Fuzz_gen.graph in
  let wires =
    List.map
      (fun (((a, pa), (b, pb)) : Graph.wire_end * Graph.wire_end) ->
        Printf.sprintf "%s.%d-%s.%d" (Graph.name g a) pa (Graph.name g b) pb)
      (Graph.wires g)
  in
  String.concat ";"
    (Printf.sprintf "radix=%d mapper=%s silent=%s" (Graph.radix g)
       c.Fuzz_gen.mapper_name
       (String.concat "," c.Fuzz_gen.silent)
    :: List.sort compare wires)

let test_generator_deterministic () =
  List.iter
    (fun seed ->
      let a = Fuzz_gen.gen ~seed and b = Fuzz_gen.gen ~seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %d replays identically" seed)
        (case_fingerprint a) (case_fingerprint b))
    [ 0; 1; 42; 123456789; 2152009547044224480 ]

let test_generator_diversity () =
  (* Across a modest sample the generator must exercise the shapes the
     shrinker and properties are written for: silent hosts, separated
     (bridged-off) regions, and disconnected fabrics. *)
  let cases = List.init 200 (fun i -> Fuzz_gen.gen ~seed:(i * 7919)) in
  let some f = List.exists f cases in
  Alcotest.(check bool) "some silent hosts" true
    (some (fun c -> c.Fuzz_gen.silent <> []));
  Alcotest.(check bool) "some separated regions" true
    (some (fun c ->
         Array.exists Fun.id (Core_set.separated_set c.Fuzz_gen.graph)));
  Alcotest.(check bool) "some multi-switch fabrics" true
    (some (fun c -> Graph.num_switches c.Fuzz_gen.graph > 3))

(* ---------- properties on known-good fabrics ---------- *)

let props_hold_on name g =
  let case =
    {
      Fuzz_gen.case_seed = 0;
      graph = g;
      mapper_name = Graph.name g (List.hd (Graph.hosts g));
      silent = [];
      schedule = [];
    }
  in
  List.iter
    (fun prop ->
      match Props.run prop case with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: property %s: %s" name prop e)
    Props.names

let test_props_on_reference_fabrics () =
  props_hold_on "C" (fst (Generators.now_c ()));
  props_hold_on "torus" (Generators.torus ~rows:3 ~cols:3 ());
  props_hold_on "star" (Generators.star ~leaves:3 ())

(* A probe service that answers every switch probe keeps handing the
   map new switches: the budget stops it within one exploration's
   overshoot, and the error names the budget. *)
let test_probe_budget_stops () =
  let module B = San_mapper.Berkeley in
  let g = Generators.star ~leaves:3 () in
  let mapper = List.hd (Graph.hosts g) and depth = 6 in
  let budget = Props.probe_budget g ~depth in
  let sent = ref 0 in
  let answer r ~turns:_ =
    incr sent;
    (r, 1.0)
  in
  let sv =
    {
      B.sv_radix = Graph.radix g;
      sv_host_probe = answer San_simnet.Network.Nothing;
      sv_switch_probe = answer San_simnet.Network.Switch;
    }
  in
  match Props.map_service g ~mapper ~depth sv with
  | Ok () -> Alcotest.failf "an always-switch service finished its map"
  | Error e ->
    let retries = B.faithful.B.retries in
    let overshoot = (4 * (Graph.radix g - 1) * (1 + retries)) + 1 + retries in
    Alcotest.(check bool)
      (Printf.sprintf "%S names the budget %d" e budget)
      true
      (Astring.String.is_infix ~affix:(Printf.sprintf "budget of %d probes" budget) e);
    Alcotest.(check bool)
      (Printf.sprintf "%d probes sent, budget %d" !sent budget)
      true
      (!sent >= budget && !sent <= budget + overshoot)

(* ---------- shrinker ---------- *)

let test_shrink_minimizes () =
  (* Shrink against a synthetic predicate: "still contains the mapper's
     host". The minimum is tiny, and must still satisfy the predicate. *)
  let case = Fuzz_gen.gen ~seed:42 in
  let target = case.Fuzz_gen.mapper_name in
  let fails c = Graph.host_by_name c.Fuzz_gen.graph target <> None in
  Alcotest.(check bool) "original fails" true (fails case);
  let shrunk, tries = Shrink.shrink ~fails ~budget:400 case in
  Alcotest.(check bool) "shrunk still fails" true (fails shrunk);
  Alcotest.(check bool) "budget respected" true (tries <= 400);
  Alcotest.(check bool) "fabric got smaller" true
    (Graph.num_nodes shrunk.Fuzz_gen.graph
    < Graph.num_nodes case.Fuzz_gen.graph);
  Alcotest.(check int) "minimal: the host and nothing it can drop" 1
    (Graph.num_hosts shrunk.Fuzz_gen.graph)

let test_subgraph_preserves_ports () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~name:"s0" () in
  let s1 = Graph.add_switch g ~name:"s1" () in
  let h0 = Graph.add_host g ~name:"h0" in
  Graph.connect g (h0, 0) (s0, 5);
  Graph.connect g (s0, 3) (s1, 7);
  let sub = Graph.induced g ~keep:(fun n -> n <> s1) in
  Alcotest.(check int) "s1 dropped" 2 (Graph.num_nodes sub);
  let h0' = Option.get (Graph.host_by_name sub "h0") in
  match Graph.neighbor sub (h0', 0) with
  | Some (s, p) ->
    Alcotest.(check string) "host still on s0" "s0" (Graph.name sub s);
    Alcotest.(check int) "port index preserved" 5 p
  | None -> Alcotest.fail "host wire lost by subgraph"

(* ---------- the fuzz loop ---------- *)

let test_small_fuzz_run_clean () =
  let r = Runner.run ~cases:60 ~seed:42 () in
  Alcotest.(check int) "cases run" 60 r.Runner.r_cases;
  (match r.Runner.r_failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "unexpected: %a" Runner.pp_failure f);
  Alcotest.(check (list string)) "full suite ran" Props.names r.Runner.r_props

let test_case_seeds_stable () =
  let a = Runner.case_seeds ~seed:7 ~cases:10 in
  let b = Runner.case_seeds ~seed:7 ~cases:10 in
  Alcotest.(check (list int)) "same master seed, same cases" a b;
  Alcotest.(check int) "ten cases" 10 (List.length a)

(* ---------- regressions: bugs the fuzzer found ---------- *)

(* Each seed below once produced a counterexample; the mapper bug it
   exposed is fixed, so replaying the exact case must now be clean. *)

let replay_clean seed () =
  match Runner.run_case ~case_seed:seed () with
  | [] -> ()
  | f :: _ -> Alcotest.failf "case %d regressed: %a" seed Runner.pp_failure f

let test_regression_explored_class_skip =
  (* Doubled-attachment switch lost: a replicate of an explored class
     arrived by a different worm path and was skipped outright, so the
     evidence only it could gather never reached the model. Fixed by
     the fill-only exploration pass in Berkeley.explore_service. *)
  replay_clean 2152009547044224480

let test_regression_search_depth_underestimate =
  (* Post-fault remap stopped two hops short: Core_set.q_of charged
     the confirming worm's two walks against the same directed
     channels, declared Q undefined, and search_depth skipped the
     vertex. Fixed by capacity-2 arcs (one per direction of travel). *)
  replay_clean 1214513233606946897

let test_regression_routes_on_switchless_map () =
  (* Updown.build used to raise on a map with no switches, which a
     mapper on an isolated host segment legitimately produces. *)
  let g = Graph.create () in
  let h0 = Graph.add_host g ~name:"h0" in
  let h1 = Graph.add_host g ~name:"h1" in
  Graph.connect g (h0, 0) (h1, 0);
  let table = San_routing.Routes.compute g in
  Alcotest.(check bool) "host-only table is deadlock free" true
    (Result.is_ok (San_routing.Deadlock.check_routes table));
  let lone = Graph.create () in
  ignore (Graph.add_host lone ~name:"solo");
  ignore (San_routing.Routes.compute lone)

let test_regression_pendant_hosted_switch_kept () =
  (* Prune used to cut every pendant switch; a pendant switch carrying
     a host is real evidence and must survive into the map. *)
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~name:"s0" () in
  let s1 = Graph.add_switch g ~name:"s1" () in
  let h0 = Graph.add_host g ~name:"h0" in
  let h1 = Graph.add_host g ~name:"h1" in
  Graph.connect g (h0, 0) (s0, 0);
  Graph.connect g (s0, 1) (s1, 0);
  Graph.connect g (h1, 0) (s1, 1);
  let net = San_simnet.Network.create g in
  let r = San_mapper.Berkeley.run net ~mapper:h0 in
  match r.San_mapper.Berkeley.map with
  | Error e -> Alcotest.failf "map failed: %s" e
  | Ok m ->
    Alcotest.(check bool) "map covers the pendant hosted switch" true
      (Iso.equal ~map:m ~actual:g ())

let test_regression_two_bridge_maps_to_core () =
  (* End-to-end version of the separated-set union fix: a fabric with
     two switch-bridges (one hiding a hostless tail, one a hostless
     cycle) must map to exactly the core. *)
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~name:"s0" () in
  let s1 = Graph.add_switch g ~name:"s1" () in
  let h0 = Graph.add_host g ~name:"h0" in
  let h1 = Graph.add_host g ~name:"h1" in
  Graph.connect g (h0, 0) (s0, 1);
  Graph.connect g (h1, 0) (s1, 1);
  Graph.connect g (s0, 0) (s1, 0);
  (* bridge one: hostless tail t0 - t1 *)
  let t0 = Graph.add_switch g ~name:"t0" () in
  let t1 = Graph.add_switch g ~name:"t1" () in
  Graph.connect g (s0, 2) (t0, 0);
  Graph.connect g (t0, 1) (t1, 0);
  (* bridge two: hostless 3-cycle c0 - c1 - c2 *)
  let c0 = Graph.add_switch g ~name:"c0" () in
  let c1 = Graph.add_switch g ~name:"c1" () in
  let c2 = Graph.add_switch g ~name:"c2" () in
  Graph.connect g (s1, 2) (c0, 0);
  Graph.connect g (c0, 1) (c1, 0);
  Graph.connect g (c1, 1) (c2, 0);
  Graph.connect g (c2, 1) (c0, 2);
  let f = Core_set.separated_set g in
  let net = San_simnet.Network.create g in
  let r = San_mapper.Berkeley.run net ~mapper:h0 in
  match r.San_mapper.Berkeley.map with
  | Error e -> Alcotest.failf "map failed: %s" e
  | Ok m ->
    (match Iso.check ~map:m ~actual:g ~exclude:f () with
    | Ok () -> ()
    | Error e -> Alcotest.failf "map is not the core: %s" e);
    Alcotest.(check bool) "map omits the separated regions" false
      (Iso.equal ~map:m ~actual:g ())

let () =
  Alcotest.run "san_check"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "diversity" `Quick test_generator_diversity;
        ] );
      ( "properties",
        [
          Alcotest.test_case "reference fabrics" `Slow
            test_props_on_reference_fabrics;
          Alcotest.test_case "probe budget stops a runaway map" `Quick
            test_probe_budget_stops;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "minimizes" `Quick test_shrink_minimizes;
          Alcotest.test_case "subgraph ports" `Quick test_subgraph_preserves_ports;
        ] );
      ( "fuzz loop",
        [
          Alcotest.test_case "small run clean" `Slow test_small_fuzz_run_clean;
          Alcotest.test_case "case seeds stable" `Quick test_case_seeds_stable;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "explored-class skip" `Quick
            test_regression_explored_class_skip;
          Alcotest.test_case "search-depth underestimate" `Quick
            test_regression_search_depth_underestimate;
          Alcotest.test_case "switchless routes" `Quick
            test_regression_routes_on_switchless_map;
          Alcotest.test_case "pendant hosted switch" `Quick
            test_regression_pendant_hosted_switch_kept;
          Alcotest.test_case "two-bridge core map" `Quick
            test_regression_two_bridge_maps_to_core;
        ] );
    ]
