(* Corner cases across the stack: same-switch cables, accounting
   formulas, ordering guarantees, and small API contracts not covered
   by the per-module suites. *)

open San_topology

(* ---------- same-switch cables everywhere ---------- *)

let self_cable_net () =
  let g = Graph.create () in
  let hub = Graph.add_switch g ~name:"hub" () in
  let h0 = Graph.add_host g ~name:"h0" in
  let h1 = Graph.add_host g ~name:"h1" in
  Graph.connect g (h0, 0) (hub, 0);
  Graph.connect g (h1, 0) (hub, 1);
  Graph.connect g (hub, 4) (hub, 6);
  (g, h0)

let test_berkeley_maps_self_cable () =
  let g, h0 = self_cable_net () in
  let net = San_simnet.Network.create g in
  let r = San_mapper.Berkeley.run net ~mapper:h0 in
  match r.San_mapper.Berkeley.map with
  | Ok m ->
    Alcotest.(check int) "cable present" 3 (Graph.num_wires m);
    Alcotest.(check bool) "isomorphic" true (Iso.equal ~map:m ~actual:g ())
  | Error e -> Alcotest.failf "berkeley: %s" e

let test_selfid_maps_self_cable () =
  let g, h0 = self_cable_net () in
  let r = San_mapper.Selfid.run g ~mapper:h0 in
  match r.San_mapper.Selfid.map with
  | Ok m ->
    Alcotest.(check bool) "isomorphic" true (Iso.equal ~map:m ~actual:g ())
  | Error e -> Alcotest.failf "selfid: %s" e

let test_routes_survive_self_cable () =
  let g, _ = self_cable_net () in
  let table = San_routing.Routes.compute g in
  Alcotest.(check bool) "delivery ok" true
    (Result.is_ok (San_routing.Routes.verify_delivery table));
  Alcotest.(check bool) "deadlock-free" true
    (Result.is_ok (San_routing.Deadlock.check_routes table))

let test_iso_distinguishes_cable_ports () =
  (* A self-cable on ports (4,6) versus (4,7) must not be conflated:
     turn strings through the cable differ. *)
  let build q =
    let g = Graph.create () in
    let hub = Graph.add_switch g () in
    let h0 = Graph.add_host g ~name:"h0" in
    let h1 = Graph.add_host g ~name:"h1" in
    Graph.connect g (h0, 0) (hub, 0);
    Graph.connect g (h1, 0) (hub, 1);
    Graph.connect g (hub, 4) (hub, q);
    g
  in
  Alcotest.(check bool) "different cable landing detected" false
    (Iso.equal ~map:(build 6) ~actual:(build 7) ())

(* ---------- accounting formulas ---------- *)

let test_distribute_plan_bytes () =
  (* entry = 3 bytes + one per turn; verify against a hand-built net. *)
  let g = Generators.star ~leaves:2 () in
  let table = San_routing.Routes.compute g in
  let p = San_routing.Distribute.plan table in
  List.iter
    (fun (s : San_routing.Distribute.slice) ->
      let expected =
        List.fold_left
          (fun acc (src, _, turns) ->
            if src = s.San_routing.Distribute.owner then
              acc + 3 + List.length turns
            else acc)
          0
          (San_routing.Routes.all table)
      in
      Alcotest.(check int) "slice bytes" expected s.San_routing.Distribute.bytes)
    p.San_routing.Distribute.slices;
  Alcotest.(check int) "total is the sum"
    (List.fold_left
       (fun a (s : San_routing.Distribute.slice) ->
         a + s.San_routing.Distribute.bytes)
       0 p.San_routing.Distribute.slices)
    p.San_routing.Distribute.total_bytes

let test_network_cost_model () =
  let g, h0 = self_cable_net () in
  let net = San_simnet.Network.create g in
  let p = San_simnet.Network.params net in
  Alcotest.(check (float 1e-6)) "miss = send + timeout"
    (p.San_simnet.Params.send_overhead_ns
   +. p.San_simnet.Params.probe_timeout_ns)
    (San_simnet.Network.probe_cost_miss net);
  (* A 2-wire round trip: send + recv + reply + 4 hops. *)
  let expected =
    p.San_simnet.Params.send_overhead_ns +. p.San_simnet.Params.recv_overhead_ns
    +. p.San_simnet.Params.reply_overhead_ns
    +. (4.0 *. San_simnet.Params.hop_latency_ns p)
  in
  match San_simnet.Network.host_probe net ~src:h0 ~turns:[ 1 ] with
  | San_simnet.Network.Host "h1", cost ->
    Alcotest.(check (float 1e-6)) "hit cost decomposition" expected cost
  | _ -> Alcotest.fail "expected h1"

let test_params_derived () =
  let p = San_simnet.Params.default in
  Alcotest.(check (float 1e-9)) "1.28 Gb/s = 0.16 B/ns" 0.16
    (San_simnet.Params.bytes_per_ns p);
  Alcotest.(check (float 1e-9)) "hop latency is the switch latency" 550.0
    (San_simnet.Params.hop_latency_ns p)

(* ---------- ordering and misc API contracts ---------- *)

let test_wired_ports_sorted () =
  let g = Graph.create () in
  let s = Graph.add_switch g () in
  let peers =
    List.map
      (fun p ->
        let h = Graph.add_host g ~name:(Printf.sprintf "h%d" p) in
        Graph.connect g (h, 0) (s, p);
        p)
      [ 5; 1; 7; 3 ]
  in
  ignore peers;
  Alcotest.(check (list int)) "ports ascending" [ 1; 3; 5; 7 ]
    (List.map fst (Graph.wired_ports g s));
  Alcotest.(check (list int)) "free ports ascending" [ 0; 2; 4; 6 ]
    (Graph.free_ports g s)

let test_heap_peek_stable () =
  let h = San_util.Heap.create () in
  San_util.Heap.add h ~priority:2.0 "b";
  San_util.Heap.add h ~priority:1.0 "a";
  Alcotest.(check bool) "peek does not pop" true
    (San_util.Heap.peek h = Some (1.0, "a")
    && San_util.Heap.peek h = Some (1.0, "a")
    && San_util.Heap.size h = 2)

let test_diff_pp_strings () =
  let g = Graph.create () in
  let a = Graph.add_switch g ~name:"a" () and b = Graph.add_switch g ~name:"b" () in
  let show c = Format.asprintf "%a" (Diff.pp_change ~old_map:g ~new_map:g) c in
  Alcotest.(check string) "host added" "host x appeared" (show (Diff.Host_added "x"));
  Alcotest.(check string) "link lost" "link lost a:1 -- b:2"
    (show (Diff.Link_removed ((a, 1), (b, 2))))

let test_route_pp_roundtrip_shape () =
  Alcotest.(check string) "loopback renders" "+2.+1.+0.-1.-2"
    (San_simnet.Route.to_string (San_simnet.Route.switch_probe [ 2; 1 ]))

let test_summary_singleton () =
  let s = San_util.Summary.of_list [ 7.0 ] in
  Alcotest.(check (float 0.0)) "min=avg=max" 7.0 s.San_util.Summary.min;
  Alcotest.(check (float 0.0)) "stddev zero" 0.0 s.San_util.Summary.stddev

let test_now_ca_counts () =
  let g, handles = Generators.now_ca () in
  Alcotest.(check int) "hosts" 70 (Graph.num_hosts g);
  Alcotest.(check int) "switches" 26 (Graph.num_switches g);
  (* 64 + 64 intra + 2 cross links *)
  Alcotest.(check int) "links" 130 (Graph.num_wires g);
  Alcotest.(check int) "two handles" 2 (List.length handles)

let test_chain_core_is_first_switch () =
  let g = Generators.chain ~switches:5 () in
  let core = Core_set.core_nodes g in
  (* Core = the two hosts + the first switch; the hostless tail is F. *)
  Alcotest.(check int) "core size" 3 (List.length core)

let test_event_sim_channel_reuse_after_delivery () =
  (* Once a worm delivers, its channels are free: a second worm on the
     same path suffers no residual delay. *)
  let g = Generators.star ~leaves:2 () in
  let h0 = Option.get (Graph.host_by_name g "h0") in
  let sim = San_simnet.Event_sim.create g in
  let w1 =
    San_simnet.Event_sim.inject sim ~at_ns:0.0 ~src:h0 ~turns:[ -1; 1; 1 ] ()
  in
  San_simnet.Event_sim.run sim;
  let t1 =
    match San_simnet.Event_sim.outcome sim w1 with
    | San_simnet.Event_sim.Delivered { latency_ns; _ } -> latency_ns
    | _ -> Alcotest.fail "w1 lost"
  in
  let w2 =
    San_simnet.Event_sim.inject sim ~at_ns:1e9 ~src:h0 ~turns:[ -1; 1; 1 ] ()
  in
  San_simnet.Event_sim.run sim;
  (match San_simnet.Event_sim.outcome sim w2 with
  | San_simnet.Event_sim.Delivered { latency_ns; _ } ->
    Alcotest.(check (float 0.001)) "same latency on a quiet fabric" t1 latency_ns
  | _ -> Alcotest.fail "w2 lost");
  Alcotest.(check int) "both delivered"
    2
    (San_simnet.Event_sim.stats sim).San_simnet.Event_sim.delivered

let test_prng_choose_covers () =
  let rng = San_util.Prng.create 2 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(San_util.Prng.choose rng [| 0; 1; 2; 3 |]) <- true
  done;
  Alcotest.(check bool) "all elements reachable" true (Array.for_all Fun.id seen)

let () =
  Alcotest.run "san_corners"
    [
      ( "same-switch cables",
        [
          Alcotest.test_case "berkeley" `Quick test_berkeley_maps_self_cable;
          Alcotest.test_case "selfid" `Quick test_selfid_maps_self_cable;
          Alcotest.test_case "routes" `Quick test_routes_survive_self_cable;
          Alcotest.test_case "iso ports" `Quick test_iso_distinguishes_cable_ports;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "distribute bytes" `Quick test_distribute_plan_bytes;
          Alcotest.test_case "probe cost model" `Quick test_network_cost_model;
          Alcotest.test_case "derived params" `Quick test_params_derived;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "wired ports sorted" `Quick test_wired_ports_sorted;
          Alcotest.test_case "heap peek" `Quick test_heap_peek_stable;
          Alcotest.test_case "diff pp" `Quick test_diff_pp_strings;
          Alcotest.test_case "route pp" `Quick test_route_pp_roundtrip_shape;
          Alcotest.test_case "summary singleton" `Quick test_summary_singleton;
          Alcotest.test_case "C+A counts" `Quick test_now_ca_counts;
          Alcotest.test_case "chain core" `Quick test_chain_core_is_first_switch;
          Alcotest.test_case "channel release" `Quick
            test_event_sim_channel_reuse_after_delivery;
          Alcotest.test_case "prng choose" `Quick test_prng_choose_covers;
        ] );
    ]
