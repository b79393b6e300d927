(* Breadth pass: edge cases and regression pins across all libraries
   that don't fit the per-module suites. *)

open San_topology

let qcheck t = QCheck_alcotest.to_alcotest t

(* ---------- generator degenerate sizes ---------- *)

let test_tiny_generators () =
  let ring1 = Generators.ring ~switches:1 ~hosts_per_switch:2 () in
  Alcotest.(check int) "ring of one" 1 (Graph.num_switches ring1);
  Alcotest.(check int) "its hosts" 2 (Graph.num_hosts ring1);
  let mesh1 = Generators.mesh ~rows:1 ~cols:1 () in
  Alcotest.(check int) "1x1 mesh" 1 (Graph.num_switches mesh1);
  let cube1 = Generators.hypercube ~dim:1 () in
  Alcotest.(check int) "dim-1 hypercube" 2 (Graph.num_switches cube1);
  Alcotest.(check int) "one wire" 3 (Graph.num_wires cube1);
  let star0 = Generators.star ~leaves:0 () in
  Alcotest.(check int) "bare hub" 1 (Graph.num_switches star0)

let test_generator_rejections () =
  Alcotest.(check bool) "hypercube too big for radix" true
    (try
       ignore (Generators.hypercube ~radix:4 ~dim:4 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "random needs two hosts" true
    (try
       ignore
         (Generators.random_connected
            ~rng:(San_util.Prng.create 1)
            ~switches:2 ~hosts:1 ~extra_links:0 ());
       false
     with Invalid_argument _ -> true)

let test_tiny_networks_map () =
  (* The minimal legal network: one switch, two hosts. *)
  let g = Generators.ring ~switches:1 ~hosts_per_switch:2 () in
  let mapper = Option.get (Graph.host_by_name g "h0-0") in
  let net = San_simnet.Network.create g in
  let r = San_mapper.Berkeley.run net ~mapper in
  match r.San_mapper.Berkeley.map with
  | Ok m ->
    Alcotest.(check bool) "minimal net maps" true (Iso.equal ~map:m ~actual:g ())
  | Error e -> Alcotest.failf "minimal net failed: %s" e

(* ---------- regression pins on the NOW ---------- *)

let test_now_regression_pins () =
  let g, _ = Generators.now_cab () in
  let util = Option.get (Graph.host_by_name g "C-util") in
  Alcotest.(check int) "diameter" 8 (Analysis.diameter g);
  Alcotest.(check int) "Q from C-util" 8 (Core_set.q_bound g ~root:util);
  Alcotest.(check int) "oracle depth" 17 (Core_set.search_depth g ~root:util);
  Alcotest.(check int) "no bridges in the fabric" 0
    (List.length (Core_set.switch_bridges g));
  let net = San_simnet.Network.create g in
  let r = San_mapper.Berkeley.run net ~mapper:util in
  (* Deterministic without jitter: pin the headline counters so any
     behavioural drift in the mapper is caught loudly. *)
  Alcotest.(check int) "probe count pinned" 5051
    (San_mapper.Berkeley.total_probes r);
  Alcotest.(check int) "explorations pinned" 1064 r.San_mapper.Berkeley.explorations;
  Alcotest.(check int) "created vertices pinned" 1222
    r.San_mapper.Berkeley.created_vertices;
  Alcotest.(check int) "live = 140 actual nodes" 140
    r.San_mapper.Berkeley.live_vertices

let test_c_regression_pins () =
  let g, _ = Generators.now_c () in
  let util = Option.get (Graph.host_by_name g "C-util") in
  let net = San_simnet.Network.create g in
  let r = San_mapper.Berkeley.run net ~mapper:util in
  Alcotest.(check int) "C probes pinned" 895 (San_mapper.Berkeley.total_probes r);
  let rm = San_myricom.Myricom.run g ~mapper:util in
  Alcotest.(check int) "C myricom probes pinned" 1983
    (San_myricom.Myricom.total rm.San_myricom.Myricom.counts)

(* From A-h1, a probe that answers in the middle of a switch's
   exploration triggers merges that re-frame the switch's class; the
   turns left must be planned against the new class and frame (a
   planner that kept the old ones sends 1,771 probes and creates 429
   vertices). *)
let test_ca_reframe_pins () =
  let g, _ = Generators.now_ca () in
  let mapper = Option.get (Graph.host_by_name g "A-h1") in
  let r = San_mapper.Berkeley.run (San_simnet.Network.create g) ~mapper in
  Alcotest.(check int) "C+A probes pinned" 1772 (San_mapper.Berkeley.total_probes r);
  Alcotest.(check int) "explorations pinned" 323 r.San_mapper.Berkeley.explorations;
  Alcotest.(check int) "created vertices pinned" 428
    r.San_mapper.Berkeley.created_vertices

(* ---------- worm/analysis cross-checks ---------- *)

(* The worm evaluator agrees with BFS distance: a shortest compliant
   route's turn count equals the BFS path length through switches. *)
let route_length_matches_bfs_prop =
  QCheck.Test.make ~name:"route turn count = path switches" ~count:30
    QCheck.(pair small_int (int_range 2 7))
    (fun (seed, switches) ->
      let rng = San_util.Prng.create ((seed * 29) + switches) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts:3 ~extra_links:2 ()
      in
      let table = San_routing.Routes.compute g in
      List.for_all
        (fun (src, dst, turns) ->
          let trace = San_simnet.Worm.eval g ~src ~turns in
          match trace.San_simnet.Worm.outcome with
          | San_simnet.Worm.Arrived h ->
            h = dst
            && List.length trace.San_simnet.Worm.hops = List.length turns + 1
          | _ -> false)
        (San_routing.Routes.all table))

(* Channel loads account exactly for every hop of every route. *)
let channel_load_conservation_prop =
  QCheck.Test.make ~name:"channel loads sum to total hops" ~count:20
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, switches) ->
      let rng = San_util.Prng.create ((seed * 37) + switches) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts:3 ~extra_links:1 ()
      in
      let table = San_routing.Routes.compute g in
      let total_hops =
        List.fold_left
          (fun acc (_, _, turns) -> acc + List.length turns + 1)
          0
          (San_routing.Routes.all table)
      in
      let load_sum =
        List.fold_left (fun acc (_, l) -> acc + l) 0
          (San_routing.Routes.channel_loads table)
      in
      total_hops = load_sum)

(* ---------- iso is an equivalence on generated maps ---------- *)

let iso_reflexive_symmetric_prop =
  QCheck.Test.make ~name:"iso: reflexive and symmetric" ~count:20
    QCheck.(pair small_int (int_range 2 7))
    (fun (seed, switches) ->
      let rng = San_util.Prng.create ((seed * 41) + switches) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts:3 ~extra_links:2 ()
      in
      let mapper = Option.get (Graph.host_by_name g "h0") in
      let net = San_simnet.Network.create g in
      match (San_mapper.Berkeley.run net ~mapper).San_mapper.Berkeley.map with
      | Error _ -> QCheck.assume_fail ()
      | Ok m ->
        Iso.equal ~map:m ~actual:m ()
        && Iso.equal ~map:g ~actual:g ()
        && (Iso.equal ~map:m ~actual:g ~exclude:(Core_set.separated_set g) ()
            = (Core_set.core_is_empty_f g && Iso.equal ~map:g ~actual:m ())
           || not (Core_set.core_is_empty_f g)))

(* ---------- distribution composes with myricom maps too ---------- *)

let test_routes_on_myricom_map () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let r = San_myricom.Myricom.run g ~mapper in
  match r.San_myricom.Myricom.map with
  | Error e -> Alcotest.failf "myricom map failed: %s" e
  | Ok m -> (
    let table = San_routing.Routes.compute m in
    (match San_routing.Routes.verify_delivery ~against:g table with
    | Ok () -> ()
    | Error e -> Alcotest.failf "delivery: %s" e);
    match San_routing.Distribute.simulate table ~actual:g ~leader:mapper with
    | Ok rep ->
      Alcotest.(check int) "all updated" 35 rep.San_routing.Distribute.hosts_updated
    | Error e -> Alcotest.failf "distribution: %s" e)

(* ---------- the whole pipeline on every classic topology ---------- *)

let test_pipeline_on_classics () =
  List.iter
    (fun (name, g, mapper_name) ->
      let mapper = Option.get (Graph.host_by_name g mapper_name) in
      let net = San_simnet.Network.create g in
      let r = San_mapper.Berkeley.run net ~mapper in
      match r.San_mapper.Berkeley.map with
      | Error e -> Alcotest.failf "%s: map: %s" name e
      | Ok m ->
        let table = San_routing.Routes.compute m in
        (match San_routing.Routes.verify_delivery ~against:g table with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: delivery: %s" name e);
        (match San_routing.Deadlock.check_routes table with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: deadlock: %s" name e);
        (* and the storm, physically *)
        let sim = San_simnet.Event_sim.create g in
        List.iter
          (fun (src, _, turns) ->
            let s =
              Option.get (Graph.host_by_name g (Graph.name m src))
            in
            ignore
              (San_simnet.Event_sim.inject sim ~at_ns:0.0 ~src:s ~turns
                 ~payload_bytes:2048 ()))
          (San_routing.Routes.all table);
        San_simnet.Event_sim.run sim;
        let st = San_simnet.Event_sim.stats sim in
        Alcotest.(check int) (name ^ " storm delivers") 0
          (st.San_simnet.Event_sim.dropped_reset
          + st.San_simnet.Event_sim.dropped_bad_route
          + st.San_simnet.Event_sim.in_flight))
    [
      ("hypercube", Generators.hypercube ~dim:4 (), "h0");
      ("torus", Generators.torus ~rows:3 ~cols:3 (), "h0-0");
      ( "fat tree",
        San_fabric.Fabric.build ~seed:1
          {
            San_fabric.Fabric.default with
            edge_switches = 4;
            hosts_per_edge = 4;
          },
        "h0" );
      ("ring", Generators.ring ~switches:6 ~hosts_per_switch:2 (), "h0-0");
    ]

(* ---------- the §5.5-cited interconnect families ---------- *)

let test_cited_interconnects_full_pipeline () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (name ^ " connected") true (Analysis.is_connected g);
      let mapper = List.hd (Graph.hosts g) in
      let net = San_simnet.Network.create g in
      let r = San_mapper.Berkeley.run net ~mapper in
      (match r.San_mapper.Berkeley.map with
      | Ok m ->
        Alcotest.(check bool) (name ^ " maps") true
          (Iso.equal ~map:m ~actual:g ~exclude:(Core_set.separated_set g) ())
      | Error e -> Alcotest.failf "%s map failed: %s" name e);
      let table = San_routing.Routes.compute g in
      Alcotest.(check bool) (name ^ " routes deliver") true
        (Result.is_ok (San_routing.Routes.verify_delivery table));
      Alcotest.(check bool) (name ^ " deadlock-free") true
        (Result.is_ok (San_routing.Deadlock.check_routes table)))
    [
      ("ccc(3)", Generators.cube_connected_cycles ~dim:3 ());
      ("shuffle-exchange(4)", Generators.shuffle_exchange ~dim:4 ());
    ]

let test_ccc_shape () =
  let g = Generators.cube_connected_cycles ~dim:3 () in
  Alcotest.(check int) "24 switches" 24 (Graph.num_switches g);
  Alcotest.(check int) "24 hosts" 24 (Graph.num_hosts g);
  (* every switch has cycle degree 2 + cube degree 1 + host = 4 *)
  List.iter
    (fun s -> Alcotest.(check int) "degree 4" 4 (Graph.degree g s))
    (Graph.switches g)

(* ---------- the paper's §1.2 superset claim, executable ----------
   "The set of all probe paths generated by probing the network with
   packet routing is a superset of the sets generated with circuit or
   cut-through routing": with Myrinet-sized buffers, cut-through sits
   between the two, so every circuit-successful probe must succeed
   under cut-through, and every cut-through success must be
   structurally sound. *)
let probe_set_inclusion_prop =
  QCheck.Test.make ~name:"probe sets: circuit <= cut-through <= structural"
    ~count:60
    QCheck.(pair small_int (list_of_size Gen.(1 -- 6) (int_range (-7) 7)))
    (fun (seed, raw_turns) ->
      let turns = List.map (fun t -> if t = 0 then 3 else t) raw_turns in
      let rng = San_util.Prng.create (seed + 7) in
      let g =
        Generators.random_connected ~rng ~switches:6 ~hosts:3 ~extra_links:3 ()
      in
      let h0 = Option.get (Graph.host_by_name g "h0") in
      let circuit = San_simnet.Network.create ~model:San_simnet.Collision.Circuit g in
      let cut = San_simnet.Network.create ~model:San_simnet.Collision.Cut_through g in
      let h_ok net = fst (San_simnet.Network.host_probe net ~src:h0 ~turns) in
      let s_ok net = fst (San_simnet.Network.switch_probe net ~src:h0 ~turns) in
      let structural =
        match (San_simnet.Worm.eval g ~src:h0 ~turns).San_simnet.Worm.outcome with
        | San_simnet.Worm.Arrived _ -> true
        | _ -> false
      in
      let imp a b = (not a) || b in
      imp (h_ok circuit <> San_simnet.Network.Nothing)
        (h_ok cut <> San_simnet.Network.Nothing)
      && imp (h_ok cut <> San_simnet.Network.Nothing) structural
      && imp (s_ok circuit = San_simnet.Network.Switch)
           (s_ok cut = San_simnet.Network.Switch))

let forward_roundtrip_prop =
  QCheck.Test.make ~name:"forward_of_switch_probe inverts switch_probe"
    ~count:100
    QCheck.(list_of_size Gen.(0 -- 8) (int_range (-7) 7))
    (fun turns ->
      San_simnet.Route.forward_of_switch_probe
        (San_simnet.Route.switch_probe turns)
      = Some turns)

let () =
  Alcotest.run "san_breadth"
    [
      ( "degenerate",
        [
          Alcotest.test_case "tiny generators" `Quick test_tiny_generators;
          Alcotest.test_case "rejections" `Quick test_generator_rejections;
          Alcotest.test_case "minimal net maps" `Quick test_tiny_networks_map;
        ] );
      ( "regression pins",
        [
          Alcotest.test_case "NOW" `Quick test_now_regression_pins;
          Alcotest.test_case "C" `Quick test_c_regression_pins;
          Alcotest.test_case "C+A re-framed explorations" `Quick
            test_ca_reframe_pins;
        ] );
      ( "cross-checks",
        [
          qcheck route_length_matches_bfs_prop;
          qcheck channel_load_conservation_prop;
          qcheck iso_reflexive_symmetric_prop;
        ] );
      ( "cited interconnects",
        [
          Alcotest.test_case "pipeline" `Slow test_cited_interconnects_full_pipeline;
          Alcotest.test_case "ccc shape" `Quick test_ccc_shape;
        ] );
      ( "paper claims",
        [ qcheck probe_set_inclusion_prop; qcheck forward_roundtrip_prop ] );
      ( "integration",
        [
          Alcotest.test_case "routes on myricom map" `Quick test_routes_on_myricom_map;
          Alcotest.test_case "pipeline on classics" `Slow test_pipeline_on_classics;
        ] );
    ]
