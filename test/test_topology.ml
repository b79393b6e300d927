open San_topology

let qcheck t = QCheck_alcotest.to_alcotest t

(* ---------- graph construction ---------- *)

let two_switch_net () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~name:"s0" () in
  let s1 = Graph.add_switch g ~name:"s1" () in
  let h0 = Graph.add_host g ~name:"h0" in
  let h1 = Graph.add_host g ~name:"h1" in
  Graph.connect g (s0, 3) (s1, 5);
  Graph.connect g (h0, 0) (s0, 0);
  Graph.connect g (h1, 0) (s1, 0);
  (g, s0, s1, h0, h1)

let test_graph_basic () =
  let g, s0, s1, h0, _h1 = two_switch_net () in
  Alcotest.(check int) "nodes" 4 (Graph.num_nodes g);
  Alcotest.(check int) "hosts" 2 (Graph.num_hosts g);
  Alcotest.(check int) "switches" 2 (Graph.num_switches g);
  Alcotest.(check int) "wires" 3 (Graph.num_wires g);
  Alcotest.(check int) "radix" 8 (Graph.radix g);
  Alcotest.(check bool) "host kind" true (Graph.is_host g h0);
  Alcotest.(check bool) "switch kind" false (Graph.is_host g s0);
  Alcotest.(check int) "switch ports" 8 (Graph.ports_of g s0);
  Alcotest.(check int) "host ports" 1 (Graph.ports_of g h0);
  Alcotest.(check int) "s0 degree" 2 (Graph.degree g s0);
  (match Graph.neighbor g (s0, 3) with
  | Some (n, p) ->
    Alcotest.(check int) "peer node" s1 n;
    Alcotest.(check int) "peer port" 5 p
  | None -> Alcotest.fail "wire missing");
  Alcotest.(check (option int)) "host lookup" (Some h0) (Graph.host_by_name g "h0");
  Alcotest.(check (option int)) "no such host" None (Graph.host_by_name g "zz")

let test_graph_connect_errors () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g () in
  let s1 = Graph.add_switch g () in
  Graph.connect g (s0, 0) (s1, 0);
  Alcotest.(check bool) "occupied port rejected" true
    (try
       Graph.connect g (s0, 0) (s1, 1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "port out of range rejected" true
    (try
       Graph.connect g (s0, 8) (s1, 1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "identical ends rejected" true
    (try
       Graph.connect g (s0, 2) (s0, 2);
       false
     with Invalid_argument _ -> true);
  (* Same-switch cable between distinct ports is legal. *)
  Graph.connect g (s0, 2) (s0, 3);
  Alcotest.(check int) "self cable counted once" 2 (Graph.num_wires g)

let test_graph_duplicate_host () =
  let g = Graph.create () in
  ignore (Graph.add_host g ~name:"x");
  Alcotest.(check bool) "duplicate name rejected" true
    (try
       ignore (Graph.add_host g ~name:"x");
       false
     with Invalid_argument _ -> true)

let test_graph_disconnect () =
  let g, s0, s1, _, _ = two_switch_net () in
  Graph.disconnect g (s1, 5);
  Alcotest.(check int) "wire gone" 2 (Graph.num_wires g);
  Alcotest.(check (option (pair int int))) "both ends free" None
    (Graph.neighbor g (s0, 3));
  Graph.disconnect g (s0, 3) (* no-op on vacant port *)

let test_graph_copy_independent () =
  let g, s0, s1, _, _ = two_switch_net () in
  let g' = Graph.copy g in
  Graph.disconnect g' (s0, 3);
  Alcotest.(check int) "original untouched" 3 (Graph.num_wires g);
  Alcotest.(check int) "copy changed" 2 (Graph.num_wires g');
  Graph.connect g' (s0, 3) (s1, 6);
  Alcotest.(check (option (pair int int))) "original port 5 still wired"
    (Some (s0, 3))
    (Graph.neighbor g (s1, 5))

let test_graph_wires_canonical () =
  let g, _, _, _, _ = two_switch_net () in
  let ws = Graph.wires g in
  Alcotest.(check int) "each wire once" 3 (List.length ws);
  List.iter (fun (a, b) -> Alcotest.(check bool) "ordered ends" true (a < b)) ws

(* [Graph.wires] compares wire ends as ints; the order is the one the
   tuple comparison it replaced gave: every port scanned in (node,
   port) order, each wire listed from its lower end. *)
let test_graph_wires_order () =
  let tuple_order g =
    let acc = ref [] in
    for n = Graph.num_nodes g - 1 downto 0 do
      for p = Graph.ports_of g n - 1 downto 0 do
        match Graph.peer g n p with
        | Some e when compare (n, p) e < 0 -> acc := ((n, p), e) :: !acc
        | Some _ | None -> ()
      done
    done;
    !acc
  in
  let g = Graph.create ~radix:8 () in
  let s0 = Graph.add_switch g () and s1 = Graph.add_switch g () in
  let h = Graph.add_host g ~name:"h" in
  Graph.connect g (s1, 4) (s0, 2);
  Graph.connect g (s0, 5) (s0, 1);
  Graph.connect g (s1, 7) (s1, 6);
  Graph.connect g (h, 0) (s1, 0);
  List.iter
    (fun (what, g) ->
      Alcotest.(check (list (pair (pair int int) (pair int int))))
        what (tuple_order g) (Graph.wires g))
    [
      ("now-cab", fst (Generators.now_cab ()));
      ( "ft-100",
        (Result.get_ok (San_fabric.Fabric.parse "ft-100")).San_fabric.Fabric.p_build
          ~seed:1 );
      ("switch self-cables", g);
    ]

let test_parallel_wires () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g () in
  let s1 = Graph.add_switch g () in
  Graph.connect g (s0, 0) (s1, 0);
  Graph.connect g (s0, 1) (s1, 1);
  Graph.connect g (s0, 2) (s1, 2);
  Alcotest.(check int) "parallel wires all present" 3 (Graph.num_wires g);
  Alcotest.(check int) "degree counts all" 3 (Graph.degree g s0)

(* ---------- analysis ---------- *)

let test_bfs_and_diameter () =
  let g = Generators.chain ~switches:5 () in
  (* h0, h1 on switch 0; switches in a line. *)
  let h0 = Option.get (Graph.host_by_name g "h0") in
  let d = Analysis.bfs_distances g h0 in
  let far_switch = List.nth (Graph.switches g) 4 in
  Alcotest.(check int) "distance to far switch" 5 d.(far_switch);
  Alcotest.(check int) "diameter" 5 (Analysis.diameter g);
  Alcotest.(check bool) "connected" true (Analysis.is_connected g)

let test_components () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g () in
  let s1 = Graph.add_switch g () in
  let h0 = Graph.add_host g ~name:"a" in
  Graph.connect g (h0, 0) (s0, 0);
  Alcotest.(check int) "two components" 2 (List.length (Analysis.components g));
  Alcotest.(check bool) "not connected" false (Analysis.is_connected g);
  Alcotest.(check (list int)) "component of s0" [ s0; h0 ]
    (Analysis.component_of g s0);
  Graph.connect g (s0, 1) (s1, 0);
  Alcotest.(check bool) "now connected" true (Analysis.is_connected g)

let test_farthest_switch () =
  let g, _ = Generators.now_c () in
  let util = Option.get (Graph.host_by_name g "C-util") in
  (match Analysis.farthest_switch_from_hosts g ~ignore:[ util ] with
  | Some s ->
    (* Roots are farthest from the leaf-attached hosts once the utility
       host (wired to a root) is ignored. *)
    let name = Graph.name g s in
    Alcotest.(check bool) ("root chosen: " ^ name) true
      (String.length name >= 6 && String.sub name 0 6 = "C-root")
  | None -> Alcotest.fail "no switch found");
  (* Without ignoring the utility host a root is no longer distance-2
     from every host. *)
  Alcotest.(check bool) "some switch still found" true
    (Analysis.farthest_switch_from_hosts g ~ignore:[] <> None)

(* ---------- figure 3: subcluster component counts ---------- *)

let check_counts name (g, _) ~hosts ~switches ~links =
  Alcotest.(check int) (name ^ " interfaces") hosts (Graph.num_hosts g);
  Alcotest.(check int) (name ^ " switches") switches (Graph.num_switches g);
  Alcotest.(check int) (name ^ " links") links (Graph.num_wires g);
  Alcotest.(check bool) (name ^ " connected") true (Analysis.is_connected g)

let test_figure3_counts () =
  check_counts "A" (Generators.subcluster Generators.spec_a) ~hosts:34
    ~switches:13 ~links:64;
  check_counts "B" (Generators.subcluster Generators.spec_b) ~hosts:30
    ~switches:14 ~links:65;
  check_counts "C" (Generators.subcluster Generators.spec_c) ~hosts:36
    ~switches:13 ~links:64

let test_now_counts () =
  let g, handles = Generators.now_cab () in
  Alcotest.(check int) "100 hosts" 100 (Graph.num_hosts g);
  Alcotest.(check int) "40 switches" 40 (Graph.num_switches g);
  (* 193 intra-subcluster links + 4 root-to-root cross links. *)
  Alcotest.(check int) "links" 197 (Graph.num_wires g);
  Alcotest.(check int) "three subclusters" 3 (List.length handles);
  Alcotest.(check bool) "connected" true (Analysis.is_connected g);
  Alcotest.(check bool) "empty F" true (Core_set.core_is_empty_f g)

let test_generator_port_limits () =
  let check_g g =
    List.iter
      (fun s ->
        Alcotest.(check bool) "degree within radix" true
          (Graph.degree g s <= Graph.radix g))
      (Graph.switches g);
    (* Every wired port index fits the 8-port crossbar. *)
    List.iter
      (fun (((a, pa), (b, pb)) : Graph.wire_end * Graph.wire_end) ->
        ignore a;
        ignore b;
        Alcotest.(check bool) "port index within crossbar" true
          (pa >= 0 && pa < Graph.radix g && pb >= 0 && pb < Graph.radix g))
      (Graph.wires g)
  in
  check_g (fst (Generators.subcluster Generators.spec_a));
  check_g (fst (Generators.subcluster Generators.spec_b));
  check_g (fst (Generators.subcluster Generators.spec_c));
  check_g (fst (Generators.now_cab ()));
  check_g (Generators.hypercube ~dim:5 ());
  check_g (Generators.torus ~rows:4 ~cols:4 ());
  check_g
    (San_fabric.Fabric.build ~seed:1
       {
         San_fabric.Fabric.default with
         edge_switches = 4;
         hosts_per_edge = 4;
       })

(* ---------- bridges, F, Q ---------- *)

let test_bridges_chain () =
  let g = Generators.chain ~switches:4 () in
  (* Every wire in a chain is a bridge. *)
  Alcotest.(check int) "all wires are bridges" (Graph.num_wires g)
    (List.length (Core_set.bridges g));
  Alcotest.(check int) "switch bridges" 3 (List.length (Core_set.switch_bridges g))

let test_bridges_parallel_not_bridge () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g () in
  let s1 = Graph.add_switch g () in
  Graph.connect g (s0, 0) (s1, 0);
  Graph.connect g (s0, 1) (s1, 1);
  Alcotest.(check int) "parallel pair: no bridges" 0
    (List.length (Core_set.bridges g))

let test_f_pendant () =
  let g = Generators.pendant_branch () in
  let f = Core_set.separated_set g in
  let tail0 = List.nth (Graph.nodes g) 5 in
  let tail1 = List.nth (Graph.nodes g) 6 in
  Alcotest.(check bool) "tail0 in F" true f.(tail0);
  Alcotest.(check bool) "tail1 in F" true f.(tail1);
  Alcotest.(check int) "only the tail in F" 2
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 f);
  Alcotest.(check bool) "F nonempty detected" false (Core_set.core_is_empty_f g)

let test_f_chain_is_core () =
  (* A chain of switches ending with hosts only at one end: the
     hostless suffix is separated by switch-bridges. *)
  let g = Generators.chain ~switches:4 () in
  let f = Core_set.separated_set g in
  let switches = Graph.switches g in
  Alcotest.(check bool) "first switch in core" false f.(List.nth switches 0);
  Alcotest.(check bool) "later switches in F" true f.(List.nth switches 1);
  Alcotest.(check bool) "last switch in F" true f.(List.nth switches 3)

let test_q_values () =
  (* Single switch with three hosts: Q(v) is tiny. *)
  let g = Graph.create () in
  let s = Graph.add_switch g () in
  let mk n = Graph.add_host g ~name:n in
  let h0 = mk "h0" and h1 = mk "h1" and h2 = mk "h2" in
  Graph.connect g (h0, 0) (s, 0);
  Graph.connect g (h1, 0) (s, 1);
  Graph.connect g (h2, 0) (s, 2);
  Alcotest.(check (option int)) "Q(root)" (Some 0) (Core_set.q_of g ~root:h0 h0);
  Alcotest.(check (option int)) "Q(switch)" (Some 2) (Core_set.q_of g ~root:h0 s);
  Alcotest.(check (option int)) "Q(other host)" (Some 2) (Core_set.q_of g ~root:h0 h1);
  Alcotest.(check int) "Q bound" 2 (Core_set.q_bound g ~root:h0);
  Alcotest.(check int) "search depth = Q+D+1" 5 (Core_set.search_depth g ~root:h0)

(* In a hostless *tree* tail even the direction-aware Q stays
   undefined: a worm into the tail can only come back through the
   port it would have to leave by again. *)
let test_q_undefined_in_f () =
  let g = Generators.pendant_branch () in
  let h0 = Option.get (Graph.host_by_name g "h0") in
  let tail1 = List.nth (Graph.nodes g) 6 in
  Alcotest.(check (option int)) "Q undefined in a hostless tree tail" None
    (Core_set.q_of g ~root:h0 tail1)

(* Lemma 1 as a property: Q(v) is defined on all of the core, so the
   search-depth bound covers every vertex the map must contain. (The
   converse does not hold: a worm may cross a bridge once in each
   direction, so Q can be finite inside a cyclic F region — which
   stays unmappable anyway, since no host anchors a deduction there.) *)
let lemma1_prop =
  QCheck.Test.make ~name:"lemma1: Q defined on all of the core" ~count:40
    QCheck.(pair small_int small_int)
    (fun (seed, extra) ->
      let rng = San_util.Prng.create (seed + 1) in
      let g =
        Generators.random_connected ~rng ~switches:6 ~hosts:3
          ~extra_links:(extra mod 4) ()
      in
      let root = Option.get (Graph.host_by_name g "h0") in
      let f = Core_set.separated_set g in
      List.for_all
        (fun v -> f.(v) || Core_set.q_of g ~root v <> None)
        (Graph.nodes g))

(* ---------- Q(v) against the flow reference ---------- *)

(* Every core node's Q(v), answered by one partially applied [q_of]
   (so one arena serves them all), equals the flow reference's. Returns
   how many nodes took the reference's any-host fallback. *)
let check_q_reference ~what g ~root =
  let in_f = Core_set.separated_set g in
  let q = Core_set.q_of g ~root in
  List.fold_left
    (fun fallbacks v ->
      if in_f.(v) then fallbacks
      else begin
        let expect, fell_back =
          match Q_reference.flow g ~root ~force_root:true v with
          | Some _ as q -> (q, false)
          | None -> (Q_reference.flow g ~root ~force_root:false v, true)
        in
        let got = q v in
        if got <> expect then
          Alcotest.failf "%s: Q(%d) = %a, reference %a" what v
            Fmt.(Dump.option int) got Fmt.(Dump.option int) expect;
        if fell_back then fallbacks + 1 else fallbacks
      end)
    0 (Graph.nodes g)

let fabric name =
  match San_fabric.Fabric.parse name with
  | Ok p -> p.San_fabric.Fabric.p_build ~seed:1
  | Error e -> Alcotest.fail e

(* A partition, as after a cut: the second star's nodes cannot reach
   the root, so only the two-trails-to-any-hosts fallback defines Q. *)
let partitioned () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g () and s1 = Graph.add_switch g () in
  List.iteri
    (fun i s ->
      let h = Graph.add_host g ~name:(Printf.sprintf "h%d" i) in
      Graph.connect g (h, 0) (s, i mod 2))
    [ s0; s0; s1; s1 ];
  (g, s1)

let test_q_reference_pinned () =
  List.iter
    (fun name ->
      let g = fabric name in
      let root = List.hd (Graph.hosts g) in
      Alcotest.(check int) (name ^ ": forced-root arena only") 0
        (check_q_reference ~what:name g ~root))
    [ "now-c"; "now-ca"; "now-cab"; "ft-100"; "ft-1k-degraded";
      "levels=3,radix=16,edge=50,hosts=8" ];
  let g, s1 = partitioned () in
  let root = List.hd (Graph.hosts g) in
  Alcotest.(check int) "partition: fallback arena for s1 and its hosts" 3
    (check_q_reference ~what:"partition" g ~root);
  Alcotest.(check (option int)) "Q(s1) via two hosts" (Some 2)
    (Core_set.q_of g ~root s1)

(* The oracle depth of the headline fabric is cheap enough to pin: it
   is the preset's own suggested depth. *)
let test_ft1k_oracle_depth () =
  let g = fabric "ft-1k" in
  let root = Option.get (Graph.host_by_name g "h0") in
  Alcotest.(check int) "Q" 12 (Core_set.q_bound g ~root);
  Alcotest.(check int) "D" 10 (Analysis.diameter g);
  Alcotest.(check (option int)) "Q+D+1 is the preset's depth"
    (Option.get (San_fabric.Fabric.find_preset "ft-1k")).p_depth
    (Some (Core_set.search_depth g ~root))

(* The fuzzer's fabrics, rooted at each case's mapper, then again with
   one seeded link removed: the graph a remap sees after an incident. *)
let test_q_reference_fuzz () =
  let fallbacks = ref 0 in
  for seed = 0 to 999 do
    let c = San_check.Fuzz_gen.gen ~seed in
    match San_check.Fuzz_gen.mapper_node c with
    | None -> ()
    | Some root ->
      let g = c.San_check.Fuzz_gen.graph in
      let what = Printf.sprintf "fuzz case %d" seed in
      fallbacks := !fallbacks + check_q_reference ~what g ~root;
      if Graph.num_wires g > 0 then begin
        let rng = San_util.Prng.create seed in
        let cut = Faults.remove_random_links ~rng g ~count:1 in
        fallbacks :=
          !fallbacks + check_q_reference ~what:(what ^ " cut") cut ~root
      end
  done;
  Alcotest.(check bool) "some cases need the fallback arena" true
    (!fallbacks > 0)

(* ---------- min-cost flow ---------- *)

let test_flow_simple () =
  (* 0 -> 1 -> 3 and 0 -> 2 -> 3, disjoint unit paths. *)
  let f = Flow.create 4 in
  Flow.add_arc f ~src:0 ~dst:1 ~cap:1 ~cost:1;
  Flow.add_arc f ~src:1 ~dst:3 ~cap:1 ~cost:1;
  Flow.add_arc f ~src:0 ~dst:2 ~cap:1 ~cost:3;
  Flow.add_arc f ~src:2 ~dst:3 ~cap:1 ~cost:3;
  Alcotest.(check (option int)) "one unit, cheap path" (Some 2)
    (Flow.min_cost_flow f ~source:0 ~sink:3 ~amount:1);
  Alcotest.(check (option int)) "two units use both" (Some 8)
    (Flow.min_cost_flow f ~source:0 ~sink:3 ~amount:2);
  Alcotest.(check (option int)) "three units impossible" None
    (Flow.min_cost_flow f ~source:0 ~sink:3 ~amount:3);
  Alcotest.(check int) "max flow" 2 (Flow.max_flow_value f ~source:0 ~sink:3)

let test_flow_rerouting () =
  (* Classic case where the second augmentation must push flow back. *)
  let f = Flow.create 4 in
  Flow.add_arc f ~src:0 ~dst:1 ~cap:1 ~cost:1;
  Flow.add_arc f ~src:0 ~dst:2 ~cap:1 ~cost:1;
  Flow.add_arc f ~src:1 ~dst:2 ~cap:1 ~cost:0;
  Flow.add_arc f ~src:1 ~dst:3 ~cap:1 ~cost:5;
  Flow.add_arc f ~src:2 ~dst:3 ~cap:1 ~cost:1;
  Alcotest.(check (option int)) "min cost 2-flow" (Some 8)
    (Flow.min_cost_flow f ~source:0 ~sink:3 ~amount:2)

(* ---------- isomorphism ---------- *)

let test_iso_identity () =
  let g, _ = Generators.now_c () in
  Alcotest.(check bool) "graph iso to itself" true
    (Iso.equal ~map:g ~actual:g ())

let test_iso_port_shift () =
  (* The same network with every switch's ports shifted is isomorphic. *)
  let build shift =
    let g = Graph.create () in
    let s0 = Graph.add_switch g () in
    let s1 = Graph.add_switch g () in
    let h0 = Graph.add_host g ~name:"h0" in
    let h1 = Graph.add_host g ~name:"h1" in
    Graph.connect g (h0, 0) (s0, 0 + shift);
    Graph.connect g (h1, 0) (s1, 1 + shift);
    Graph.connect g (s0, 2 + shift) (s1, 3 + shift);
    g
  in
  Alcotest.(check bool) "shifted ports isomorphic" true
    (Iso.equal ~map:(build 0) ~actual:(build 4) ())

let test_iso_detects_missing_edge () =
  let g1, _ = Generators.now_c () in
  let g2, _ = Generators.now_c () in
  (* Cut one switch-switch wire in g2. *)
  let (e, _) =
    List.find
      (fun ((a, _), (b, _)) -> not (Graph.is_host g2 a || Graph.is_host g2 b))
      (Graph.wires g2)
  in
  Graph.disconnect g2 e;
  Alcotest.(check bool) "missing edge detected" false
    (Iso.equal ~map:g2 ~actual:g1 ())

let test_iso_detects_renamed_host () =
  let g1 = Generators.star ~leaves:2 () in
  let g2 = Graph.create () in
  let hub = Graph.add_switch g2 () in
  let l0 = Graph.add_switch g2 () in
  let l1 = Graph.add_switch g2 () in
  Graph.connect g2 (hub, 0) (l0, 0);
  Graph.connect g2 (hub, 1) (l1, 0);
  let h0 = Graph.add_host g2 ~name:"h0" in
  let hx = Graph.add_host g2 ~name:"hx" in
  Graph.connect g2 (h0, 0) (l0, 1);
  Graph.connect g2 (hx, 0) (l1, 1);
  Alcotest.(check bool) "renamed host detected" false
    (Iso.equal ~map:g2 ~actual:g1 ())

let test_iso_respects_exclusion () =
  let g = Generators.pendant_branch () in
  let f = Core_set.separated_set g in
  (* Build the bare core by hand: two switches, doubled link, hosts. *)
  let core = Graph.create () in
  let s0 = Graph.add_switch core () in
  let s1 = Graph.add_switch core () in
  Graph.connect core (s0, 0) (s1, 0);
  Graph.connect core (s0, 1) (s1, 1);
  let h0 = Graph.add_host core ~name:"h0" in
  let h1 = Graph.add_host core ~name:"h1" in
  let h2 = Graph.add_host core ~name:"h2" in
  Graph.connect core (h0, 0) (s0, 2);
  Graph.connect core (h1, 0) (s0, 3);
  Graph.connect core (h2, 0) (s1, 2);
  Alcotest.(check bool) "core match with exclusion" true
    (Iso.equal ~map:core ~actual:g ~exclude:f ());
  Alcotest.(check bool) "mismatch without exclusion" false
    (Iso.equal ~map:core ~actual:g ())

(* Two independent switch-bridges, one hiding a hostless tail and the
   other a hostless cycle: [separated_set] must mark the union of both
   fragments, and [Iso.check ~exclude] must accept a map that carries
   only the core. *)
let test_iso_two_bridge_union () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g () in
  let s1 = Graph.add_switch g () in
  Graph.connect g (s0, 0) (s1, 0);
  let h0 = Graph.add_host g ~name:"h0" in
  let h1 = Graph.add_host g ~name:"h1" in
  Graph.connect g (h0, 0) (s0, 1);
  Graph.connect g (h1, 0) (s1, 1);
  (* Bridge 1: hostless two-switch tail off s0. *)
  let t0 = Graph.add_switch g () in
  let t1 = Graph.add_switch g () in
  Graph.connect g (s0, 2) (t0, 0);
  Graph.connect g (t0, 1) (t1, 0);
  (* Bridge 2: hostless three-switch cycle off s1. *)
  let c0 = Graph.add_switch g () in
  let c1 = Graph.add_switch g () in
  let c2 = Graph.add_switch g () in
  Graph.connect g (s1, 2) (c0, 0);
  Graph.connect g (c0, 1) (c1, 0);
  Graph.connect g (c1, 1) (c2, 0);
  Graph.connect g (c2, 1) (c0, 2);
  let f = Core_set.separated_set g in
  List.iter
    (fun v -> Alcotest.(check bool) "fragment node in F" true f.(v))
    [ t0; t1; c0; c1; c2 ];
  List.iter
    (fun v -> Alcotest.(check bool) "core node not in F" false f.(v))
    [ s0; s1; h0; h1 ];
  let core = Graph.create () in
  let m0 = Graph.add_switch core () in
  let m1 = Graph.add_switch core () in
  Graph.connect core (m0, 0) (m1, 0);
  let k0 = Graph.add_host core ~name:"h0" in
  let k1 = Graph.add_host core ~name:"h1" in
  Graph.connect core (k0, 0) (m0, 1);
  Graph.connect core (k1, 0) (m1, 1);
  Alcotest.(check bool) "core match with two-bridge exclusion" true
    (Iso.equal ~map:core ~actual:g ~exclude:f ());
  Alcotest.(check bool) "mismatch without exclusion" false
    (Iso.equal ~map:core ~actual:g ())

(* The confirming worm may cross a wire once per direction: behind a
   single host attachment, a triangle's switches are confirmable only
   by going out one way and back the other over the same host cable —
   Q must be finite there (a fuzz counterexample pinned the old
   both-legs-outward flow returning None and starving the depth). *)
let test_q_direction_reuse () =
  let g = Graph.create () in
  let s3 = Graph.add_switch g () in
  let s0 = Graph.add_switch g () in
  let s1 = Graph.add_switch g () in
  let h0 = Graph.add_host g ~name:"h0" in
  Graph.connect g (h0, 0) (s3, 0);
  Graph.connect g (s3, 1) (s0, 0);
  Graph.connect g (s3, 2) (s1, 0);
  Graph.connect g (s0, 1) (s1, 1);
  Alcotest.(check (option int)) "Q(s0) via both cable directions"
    (Some 5) (Core_set.q_of g ~root:h0 s0);
  Alcotest.(check (option int)) "Q(s1) via both cable directions"
    (Some 5) (Core_set.q_of g ~root:h0 s1);
  Alcotest.(check bool) "depth covers the closing probe" true
    (Core_set.search_depth g ~root:h0 >= 5)

(* ---------- faults ---------- *)

let test_faults () =
  let g, _ = Generators.now_c () in
  let rng = San_util.Prng.create 4 in
  let g' = Faults.remove_random_links ~rng g ~count:3 in
  Alcotest.(check int) "three links removed" (Graph.num_wires g - 3)
    (Graph.num_wires g');
  Alcotest.(check int) "hosts still attached" (Graph.num_hosts g)
    (List.length
       (List.filter (fun h -> Graph.degree g' h = 1) (Graph.hosts g')));
  let sw = List.hd (Graph.switches g) in
  let g'' = Faults.isolate_switch g sw in
  Alcotest.(check int) "switch isolated" 0 (Graph.degree g'' sw);
  match Faults.add_random_link ~rng g with
  | Some g3 ->
    Alcotest.(check int) "one link added" (Graph.num_wires g + 1)
      (Graph.num_wires g3)
  | None -> Alcotest.fail "spare ports exist, link should be addable"

let test_flap_link () =
  let g, _ = Generators.now_c () in
  (* pick a switch-to-switch wire so hosts keep their attachment *)
  let e =
    List.find_map
      (fun (((a, _) as ea), (b, _)) ->
        if (not (Graph.is_host g a)) && not (Graph.is_host g b) then Some ea
        else None)
      (Graph.wires g)
    |> Option.get
  in
  match Faults.flap_link g e with
  | None -> Alcotest.fail "wired end should flap"
  | Some (degraded, restore) ->
    Alcotest.(check int) "one wire down" (Graph.num_wires g - 1)
      (Graph.num_wires degraded);
    Alcotest.(check int) "original untouched" (Graph.num_wires g)
      (Graph.num_wires (Graph.copy g));
    let repaired = restore degraded in
    Alcotest.(check int) "wire back" (Graph.num_wires g)
      (Graph.num_wires repaired);
    Alcotest.(check bool) "same wires as before the flap" true
      (List.sort compare (Graph.wires repaired)
      = List.sort compare (Graph.wires g));
    (* restore refuses if the port was re-wired meanwhile *)
    let hijacked = Graph.copy degraded in
    let s = Graph.add_switch hijacked ~name:"intruder" () in
    Graph.connect hijacked e (s, 0);
    (match restore hijacked with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "restore over a re-wired port should refuse")

let test_flap_unwired () =
  let g, _ = Generators.now_c () in
  let s = Graph.add_switch g ~name:"spare" () in
  Alcotest.(check bool) "unwired end does not flap" true
    (Faults.flap_link g (s, 0) = None)

(* ---------- serialization ---------- *)

let test_serial_roundtrip () =
  let g, _ = Generators.now_cab () in
  match Serial.of_json (Serial.to_json g) with
  | Ok g' ->
    Alcotest.(check bool) "wires identical" true (Graph.wires g' = Graph.wires g);
    Alcotest.(check int) "hosts" (Graph.num_hosts g) (Graph.num_hosts g');
    Alcotest.(check bool) "isomorphic too" true (Iso.equal ~map:g' ~actual:g ())
  | Error e -> Alcotest.fail e

let test_serial_text_roundtrip () =
  let g = Generators.torus ~rows:2 ~cols:3 () in
  let text = San_util.Json.to_string (Serial.to_json g) in
  match Result.bind (San_util.Json.of_string text) Serial.of_json with
  | Ok g' -> Alcotest.(check bool) "parallel wires survive" true
      (Graph.wires g' = Graph.wires g)
  | Error e -> Alcotest.fail e

let test_serial_rejects_garbage () =
  List.iter
    (fun j ->
      match Serial.of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted malformed map")
    San_util.Json.
      [ Null;
        Obj [ ("radix", int 8) ];
        Obj [ ("radix", int 8); ("nodes", Arr [ Obj [ ("id", int 1) ] ]);
              ("wires", Arr []) ];
        Obj [ ("radix", int 8);
              ("nodes", Arr [ Obj [ ("id", int 0); ("kind", Str "llama") ] ]);
              ("wires", Arr []) ] ]

let test_serial_file () =
  let g, _ = Generators.now_c () in
  let path = Filename.temp_file "san" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serial.save g path;
      match Serial.load path with
      | Ok g' -> Alcotest.(check bool) "file round trip" true
          (Graph.wires g' = Graph.wires g)
      | Error e -> Alcotest.fail e)

(* ---------- map diffing ---------- *)

let remap_c g =
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let net = San_simnet.Network.create g in
  Result.get_ok (San_mapper.Berkeley.run net ~mapper).San_mapper.Berkeley.map

let test_diff_identity () =
  let g, _ = Generators.now_c () in
  let m = remap_c g in
  Alcotest.(check int) "no changes between equal maps" 0
    (List.length (Diff.diff ~old_map:m ~new_map:(remap_c g)))

let test_diff_reports_cut_link () =
  let g, _ = Generators.now_c () in
  let m0 = remap_c g in
  let rng = San_util.Prng.create 77 in
  let m1 = remap_c (Faults.remove_random_links ~rng g ~count:1) in
  match Diff.diff ~old_map:m0 ~new_map:m1 with
  | [ Diff.Link_removed _ ] -> ()
  | cs ->
    Alcotest.failf "expected exactly one lost link, got %d changes"
      (List.length cs)

let test_diff_reports_silent_host () =
  let g, _ = Generators.now_c () in
  let m0 = remap_c g in
  let silent = Option.get (Graph.host_by_name g "C-h3") in
  let net = San_simnet.Network.create ~responding:(fun h -> h <> silent) g in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let m1 =
    Result.get_ok (San_mapper.Berkeley.run net ~mapper).San_mapper.Berkeley.map
  in
  (match Diff.diff ~old_map:m0 ~new_map:m1 with
  | [ Diff.Host_removed "C-h3" ] -> ()
  | cs -> Alcotest.failf "expected one vanished host, got %d" (List.length cs));
  match Diff.diff ~old_map:m1 ~new_map:m0 with
  | [ Diff.Host_added "C-h3" ] -> ()
  | cs -> Alcotest.failf "expected one appeared host, got %d" (List.length cs)

let test_diff_reports_removed_switch () =
  let g, _ = Generators.now_c () in
  let m0 = remap_c g in
  (* Pull a mid switch (fat-tree redundancy keeps everything routed). *)
  let h0 = Option.get (Graph.host_by_name g "C-h0") in
  let leaf = fst (Option.get (Graph.neighbor g (h0, 0))) in
  let mid =
    Graph.wired_ports g leaf
    |> List.filter_map (fun (_, (n, _)) ->
           if Graph.is_host g n then None else Some n)
    |> List.hd
  in
  let m1 = remap_c (Faults.isolate_switch g mid) in
  let changes = Diff.diff ~old_map:m0 ~new_map:m1 in
  Alcotest.(check int) "exactly one change" 1 (List.length changes);
  match changes with
  | [ Diff.Switch_removed _ ] -> ()
  | _ -> Alcotest.fail "expected a removed switch"

let test_diff_shift_insensitive () =
  (* The same network with shifted switch ports diffs as unchanged. *)
  let build shift =
    let g = Graph.create () in
    let s0 = Graph.add_switch g () in
    let s1 = Graph.add_switch g () in
    let h0 = Graph.add_host g ~name:"h0" in
    let h1 = Graph.add_host g ~name:"h1" in
    Graph.connect g (h0, 0) (s0, 0 + shift);
    Graph.connect g (h1, 0) (s1, 2 + shift);
    Graph.connect g (s0, 1 + shift) (s1, 3 + shift);
    g
  in
  Alcotest.(check int) "shifted ports: unchanged" 0
    (List.length (Diff.diff ~old_map:(build 0) ~new_map:(build 4)))

(* ---------- DOT export ---------- *)

let test_dot () =
  let g = Generators.star ~leaves:2 () in
  let s = Dot.to_string ~graph_name:"star" g in
  Alcotest.(check bool) "graph header" true
    (Astring.String.is_prefix ~affix:"graph \"star\"" s);
  Alcotest.(check bool) "mentions host" true
    (Astring.String.is_infix ~affix:"h0" s);
  Alcotest.(check bool) "mentions hub" true
    (Astring.String.is_infix ~affix:"hub" s)

let () =
  Alcotest.run "san_topology"
    [
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "connect errors" `Quick test_graph_connect_errors;
          Alcotest.test_case "duplicate host" `Quick test_graph_duplicate_host;
          Alcotest.test_case "disconnect" `Quick test_graph_disconnect;
          Alcotest.test_case "copy independence" `Quick test_graph_copy_independent;
          Alcotest.test_case "wires canonical" `Quick test_graph_wires_canonical;
          Alcotest.test_case "parallel wires" `Quick test_parallel_wires;
          Alcotest.test_case "wire order" `Quick test_graph_wires_order;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "bfs and diameter" `Quick test_bfs_and_diameter;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "farthest switch" `Quick test_farthest_switch;
        ] );
      ( "generators",
        [
          Alcotest.test_case "figure 3 counts" `Quick test_figure3_counts;
          Alcotest.test_case "now counts" `Quick test_now_counts;
          Alcotest.test_case "port limits" `Quick test_generator_port_limits;
        ] );
      ( "core_set",
        [
          Alcotest.test_case "bridges in chain" `Quick test_bridges_chain;
          Alcotest.test_case "parallel not bridge" `Quick
            test_bridges_parallel_not_bridge;
          Alcotest.test_case "F of pendant" `Quick test_f_pendant;
          Alcotest.test_case "F of chain" `Quick test_f_chain_is_core;
          Alcotest.test_case "Q values" `Quick test_q_values;
          Alcotest.test_case "Q undefined in F" `Quick test_q_undefined_in_f;
          Alcotest.test_case "Q direction reuse" `Quick test_q_direction_reuse;
          qcheck lemma1_prop;
          Alcotest.test_case "Q equals flow reference" `Quick
            test_q_reference_pinned;
          Alcotest.test_case "Q equals flow reference on fuzz cases" `Quick
            test_q_reference_fuzz;
          Alcotest.test_case "ft-1k oracle depth" `Quick test_ft1k_oracle_depth;
        ] );
      ( "flow",
        [
          Alcotest.test_case "simple" `Quick test_flow_simple;
          Alcotest.test_case "rerouting" `Quick test_flow_rerouting;
        ] );
      ( "iso",
        [
          Alcotest.test_case "identity" `Quick test_iso_identity;
          Alcotest.test_case "port shift" `Quick test_iso_port_shift;
          Alcotest.test_case "missing edge" `Quick test_iso_detects_missing_edge;
          Alcotest.test_case "renamed host" `Quick test_iso_detects_renamed_host;
          Alcotest.test_case "exclusion" `Quick test_iso_respects_exclusion;
          Alcotest.test_case "two-bridge union" `Quick test_iso_two_bridge_union;
        ] );
      ( "faults",
        [
          Alcotest.test_case "inject" `Quick test_faults;
          Alcotest.test_case "flap link" `Quick test_flap_link;
          Alcotest.test_case "flap unwired" `Quick test_flap_unwired;
        ] );
      ( "serial",
        [
          Alcotest.test_case "roundtrip" `Quick test_serial_roundtrip;
          Alcotest.test_case "text roundtrip" `Quick test_serial_text_roundtrip;
          Alcotest.test_case "garbage" `Quick test_serial_rejects_garbage;
          Alcotest.test_case "file" `Quick test_serial_file;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identity" `Quick test_diff_identity;
          Alcotest.test_case "cut link" `Quick test_diff_reports_cut_link;
          Alcotest.test_case "silent host" `Quick test_diff_reports_silent_host;
          Alcotest.test_case "removed switch" `Quick test_diff_reports_removed_switch;
          Alcotest.test_case "shift insensitive" `Quick test_diff_shift_insensitive;
        ] );
      ("dot", [ Alcotest.test_case "export" `Quick test_dot ]);
    ]
