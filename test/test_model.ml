open San_mapper

let check_inv m =
  match Model.check_invariants m with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariant: " ^ e)

let test_init () =
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  Alcotest.(check int) "two vertices" 2 (Model.created_vertices m);
  Alcotest.(check int) "both live" 2 (Model.live_vertices m);
  Alcotest.(check int) "one edge" 1 (Model.live_edges m);
  Alcotest.(check bool) "root host kind" true
    (Model.kind m (Model.root_host m) = Model.Vhost "root");
  Alcotest.(check bool) "root switch kind" true
    (Model.kind m (Model.root_switch m) = Model.Vswitch);
  Alcotest.(check int) "one host known" 1 (Model.known_hosts m);
  Alcotest.(check bool) "switch slot 0 wired" true
    (Model.slot_occupied m (Model.root_switch m) 0);
  check_inv m

let test_host_merging_merges_switches () =
  (* Two replicates of the same switch get identified through a shared
     host: root switch s; probe +2 and +3 find "hx" — impossible for
     distinct switches, but build the scenario where two switch
     vertices v1 (via +1) and v2 (via +2) both see host "hx": v1 at
     turn 1, v2 at turn 3. They must merge with shift. *)
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  let v1 = Model.add_switch_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] in
  let v2 = Model.add_switch_vertex m ~parent:s ~turn:2 ~rev_probe:[ 2 ] in
  Alcotest.(check int) "4 live" 4 (Model.live_vertices m);
  (* v1 sees hx through turn 1; v2 sees hx through turn 3: so v1 and
     v2 are replicates with offset difference 1-3 = -2. *)
  ignore (Model.add_host_vertex m ~parent:v1 ~turn:1 ~rev_probe:[ 1; 1 ] ~name:"hx");
  Alcotest.(check int) "hx plus host" 5 (Model.live_vertices m);
  ignore (Model.add_host_vertex m ~parent:v2 ~turn:3 ~rev_probe:[ 3; 2 ] ~name:"hx");
  (* Host vertices merged AND the two switch vertices merged. *)
  Alcotest.(check int) "merged down to 4" 4 (Model.live_vertices m);
  Alcotest.(check int) "same class" (Model.canonical m v1) (Model.canonical m v2);
  (* Frame alignment: v2's turn 3 addresses v1's slot 1. *)
  Alcotest.(check int) "v2 slot shift" (Model.turn_slot m v1 1)
    (Model.turn_slot m v2 3);
  check_inv m

let test_parent_slot_conflict_merges_children () =
  (* Probing the same turn twice from the same vertex class must not
     duplicate: second child merges into first. *)
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  let c1 = Model.add_switch_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] in
  let c2 = Model.add_switch_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] in
  Alcotest.(check int) "children merged" (Model.canonical m c1)
    (Model.canonical m c2);
  check_inv m

let test_window_narrowing () =
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  (* Slot 0 occupied at creation: offset in [0,7]. *)
  let lo, hi = Model.offset_window m s in
  Alcotest.(check (pair int int)) "initial window" (0, 7) (lo, hi);
  ignore (Model.add_switch_vertex m ~parent:s ~turn:7 ~rev_probe:[ 7 ]);
  (* Slot 7 wired: offset + 7 <= 7 -> offset = 0. *)
  Alcotest.(check (pair int int)) "pinned" (0, 0) (Model.offset_window m s);
  check_inv m

let test_window_contradiction_raises () =
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  ignore (Model.add_switch_vertex m ~parent:s ~turn:7 ~rev_probe:[ 7 ]);
  Alcotest.(check bool) "slot -1 impossible once pinned" true
    (try
       ignore (Model.add_switch_vertex m ~parent:s ~turn:(-1) ~rev_probe:[ -1 ]);
       false
     with Model.Inconsistent _ -> true)

let test_distinct_host_merge_raises () =
  (* Forcing two differently-named hosts into the same slot is a
     contradiction the model must refuse. *)
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  ignore (Model.add_host_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] ~name:"a");
  Alcotest.(check bool) "host/host clash raises" true
    (try
       ignore (Model.add_host_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] ~name:"b");
       false
     with Model.Inconsistent _ -> true)

let test_host_switch_merge_raises () =
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  ignore (Model.add_switch_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ]);
  Alcotest.(check bool) "host into switch slot raises" true
    (try
       ignore (Model.add_host_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] ~name:"a");
       false
     with Model.Inconsistent _ -> true)

let test_explored_flag_survives_merge () =
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  let c1 = Model.add_switch_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] in
  let c2 = Model.add_switch_vertex m ~parent:s ~turn:2 ~rev_probe:[ 2 ] in
  Model.set_explored m c1;
  Alcotest.(check bool) "c2 unexplored" false (Model.is_explored m c2);
  (* Merge them via a shared host, seen at offset-consistent turns
     (entry ports differ, so the shared host sits at different relative
     turns of the two replicates). *)
  ignore (Model.add_host_vertex m ~parent:c1 ~turn:1 ~rev_probe:[ 1; 1 ] ~name:"h");
  ignore (Model.add_host_vertex m ~parent:c2 ~turn:3 ~rev_probe:[ 3; 2 ] ~name:"h");
  Alcotest.(check bool) "merged class explored" true (Model.is_explored m c2);
  check_inv m

let test_prune_removes_tails () =
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  (* A dangling chain of switch vertices: s - a - b. *)
  let a = Model.add_switch_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] in
  let b = Model.add_switch_vertex m ~parent:a ~turn:2 ~rev_probe:[ 2; 1 ] in
  (* And a kept branch: a host on s. *)
  ignore (Model.add_host_vertex m ~parent:s ~turn:3 ~rev_probe:[ 3 ] ~name:"hz");
  Alcotest.(check int) "before prune" 5 (Model.live_vertices m);
  Model.prune m;
  Alcotest.(check bool) "b pruned" false (Model.is_live m b);
  Alcotest.(check bool) "a pruned" false (Model.is_live m a);
  Alcotest.(check bool) "root switch kept" true
    (Model.is_live m (Model.root_switch m));
  Alcotest.(check int) "after prune" 3 (Model.live_vertices m);
  check_inv m

let test_degree_counts_distinct_edges () =
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  ignore (Model.add_switch_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ]);
  ignore (Model.add_host_vertex m ~parent:s ~turn:2 ~rev_probe:[ 2 ] ~name:"q");
  Alcotest.(check int) "degree 3" 3 (Model.degree m s)

let test_to_graph_normalises () =
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  let a = Model.add_switch_vertex m ~parent:s ~turn:5 ~rev_probe:[ 5 ] in
  ignore (Model.add_host_vertex m ~parent:a ~turn:(-3) ~rev_probe:[ -3; 5 ] ~name:"far");
  ignore (Model.add_host_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] ~name:"near");
  let g = Model.to_graph m in
  Alcotest.(check int) "hosts exported" 3 (San_topology.Graph.num_hosts g);
  Alcotest.(check int) "switches exported" 2 (San_topology.Graph.num_switches g);
  Alcotest.(check int) "edges exported" 4 (San_topology.Graph.num_wires g);
  (* a's used slots are -3 and 0: normalised ports must be 0 and 3. *)
  List.iter
    (fun sw ->
      List.iter
        (fun (p, _) ->
          Alcotest.(check bool) "ports in range" true
            (p >= 0 && p < San_topology.Graph.radix g))
        (San_topology.Graph.wired_ports g sw))
    (San_topology.Graph.switches g)

let test_to_graph_rejects_conflict () =
  (* Unmerged duplicate structure: slot with two distinct edges. *)
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  let a = Model.add_switch_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] in
  let b = Model.add_switch_vertex m ~parent:s ~turn:2 ~rev_probe:[ 2 ] in
  (* Hang different hosts off the same relative turn of a and b, then
     identify a and b through another shared host at another turn.
     Slot conflict between distinct hosts raises during merging. *)
  ignore (Model.add_host_vertex m ~parent:a ~turn:2 ~rev_probe:[ 2; 1 ] ~name:"p");
  ignore (Model.add_host_vertex m ~parent:b ~turn:2 ~rev_probe:[ 2; 2 ] ~name:"q");
  ignore (Model.add_host_vertex m ~parent:a ~turn:3 ~rev_probe:[ 3; 1 ] ~name:"same");
  Alcotest.(check bool) "conflicting deduction raises" true
    (try
       ignore
         (Model.add_host_vertex m ~parent:b ~turn:3 ~rev_probe:[ 3; 2 ] ~name:"same");
       false
     with Model.Inconsistent _ -> true)

let test_deep_absorb_chain () =
  (* Probing the same (parent, turn) again and again: each new child
     conflicts with the class already in that slot and absorbs its
     root, so the first child ends up at the bottom of a 100k-deep
     absorb chain that the first lookup must compress. *)
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  let n = 100_000 in
  let first = Model.add_switch_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] in
  let last = ref first in
  for _ = 2 to n do
    last := Model.add_switch_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ]
  done;
  Alcotest.(check int) "created" (n + 2) (Model.created_vertices m);
  Alcotest.(check int) "one live child class" 3 (Model.live_vertices m);
  Alcotest.(check int) "first and last share a class"
    (Model.canonical m !last) (Model.canonical m first);
  Alcotest.(check int) "first and last share a frame"
    (Model.frame_shift m !last) (Model.frame_shift m first);
  Alcotest.(check int) "probe length stored" 1 (Model.probe_length m first);
  check_inv m

let test_parallel_edges_deduplicated () =
  (* v1 and v2 are replicates that both found host hx. Unifying the
     two hx vertices merges v1 and v2, which re-homes both host
     cables onto the same pair of class slots: the same actual wire
     found twice. One copy must be killed, and nothing else merges. *)
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  let v1 = Model.add_switch_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] in
  let v2 = Model.add_switch_vertex m ~parent:s ~turn:2 ~rev_probe:[ 2 ] in
  let h1 =
    Model.add_host_vertex m ~parent:v1 ~turn:1 ~rev_probe:[ 1; 1 ] ~name:"hx"
  in
  Alcotest.(check int) "four live edges" 4 (Model.live_edges m);
  let h2 =
    Model.add_host_vertex m ~parent:v2 ~turn:3 ~rev_probe:[ 3; 2 ] ~name:"hx"
  in
  Alcotest.(check int) "five created" 5 (Model.created_edges m);
  Alcotest.(check int) "duplicate wire killed" 4 (Model.live_edges m);
  Alcotest.(check int) "hosts unified" (Model.canonical m h1) (Model.canonical m h2);
  Alcotest.(check int) "replicates unified" (Model.canonical m v1)
    (Model.canonical m v2);
  Alcotest.(check int) "no further merge" 4 (Model.live_vertices m);
  Model.run_merge_loop m;
  Alcotest.(check int) "still no further merge" 4 (Model.live_vertices m);
  Alcotest.(check int) "host wire counted once" 1 (Model.degree m h2);
  Alcotest.(check int) "switch degree" 3 (Model.degree m v1);
  check_inv m

let test_probe_routes_shared () =
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  let a = Model.add_switch_vertex m ~parent:s ~turn:5 ~rev_probe:[ 5 ] in
  let rev = -3 :: Model.rev_probe m a in
  let h = Model.add_host_vertex m ~parent:a ~turn:(-3) ~rev_probe:rev ~name:"far" in
  Alcotest.(check (list int)) "forward route" [ 5; -3 ] (Model.probe_string m h);
  Alcotest.(check int) "length" 2 (Model.probe_length m h);
  Alcotest.(check bool) "tail shared with the parent" true
    (List.tl (Model.rev_probe m h) == Model.rev_probe m a);
  Alcotest.(check (list int)) "root switch route" [] (Model.probe_string m s)

let test_probe_order () =
  Alcotest.(check (array int)) "alternating magnitudes"
    [| 1; -1; 2; -2; 3; -3 |]
    (Array.sub (Probe_order.turn_order ~radix:8) 0 6);
  Alcotest.(check int) "14 turns for radix 8" 14
    (Array.length (Probe_order.turn_order ~radix:8));
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  ignore (Model.add_switch_vertex m ~parent:s ~turn:7 ~rev_probe:[ 7 ]);
  (* Offset pinned to 0: negative turns provably illegal. The root is
     canonical with frame shift 0, so a turn is its own slot. *)
  Alcotest.(check int) "root frame shift" 0 (Model.frame_shift m s);
  Alcotest.(check bool) "turn -1 provably illegal" true
    (Probe_order.provably_illegal m s ~slot:(-1));
  Alcotest.(check bool) "turn 3 feasible" false
    (Probe_order.provably_illegal m s ~slot:3);
  Alcotest.(check bool) "turn 7 known" true (Probe_order.already_known m s ~slot:7)

let () =
  Alcotest.run "san_mapper.model"
    [
      ( "model",
        [
          Alcotest.test_case "init" `Quick test_init;
          Alcotest.test_case "host merging merges switches" `Quick
            test_host_merging_merges_switches;
          Alcotest.test_case "parent slot conflict" `Quick
            test_parent_slot_conflict_merges_children;
          Alcotest.test_case "window narrowing" `Quick test_window_narrowing;
          Alcotest.test_case "window contradiction" `Quick
            test_window_contradiction_raises;
          Alcotest.test_case "distinct hosts clash" `Quick
            test_distinct_host_merge_raises;
          Alcotest.test_case "host/switch clash" `Quick test_host_switch_merge_raises;
          Alcotest.test_case "explored flag merge" `Quick
            test_explored_flag_survives_merge;
          Alcotest.test_case "prune tails" `Quick test_prune_removes_tails;
          Alcotest.test_case "degree" `Quick test_degree_counts_distinct_edges;
          Alcotest.test_case "export normalises" `Quick test_to_graph_normalises;
          Alcotest.test_case "export rejects conflict" `Quick
            test_to_graph_rejects_conflict;
          Alcotest.test_case "deep absorb chain" `Quick test_deep_absorb_chain;
          Alcotest.test_case "parallel edges deduplicated" `Quick
            test_parallel_edges_deduplicated;
          Alcotest.test_case "probe routes shared" `Quick test_probe_routes_shared;
        ] );
      ("probe_order", [ Alcotest.test_case "heuristics" `Quick test_probe_order ]);
    ]
