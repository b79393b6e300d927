open San_topology
open San_mapper

let qcheck t = QCheck_alcotest.to_alcotest t

(* ---------- the §3.1 simplified labelling oracle ---------- *)

let labels_map g mapper_name depth =
  let mapper = Option.get (Graph.host_by_name g mapper_name) in
  let net = San_simnet.Network.create g in
  Labels.run ~depth net ~mapper

let test_labels_star () =
  let g = Generators.star ~leaves:3 () in
  let r = labels_map g "h0" Berkeley.Oracle in
  (match r.Labels.map with
  | Ok m ->
    Alcotest.(check bool) "quotient isomorphic to actual" true
      (Iso.equal ~map:m ~actual:g ())
  | Error e -> Alcotest.failf "labels failed: %s" e);
  Alcotest.(check bool) "tree at least as big as quotient" true
    (r.Labels.tree_vertices >= r.Labels.labels)

let test_labels_prunes_f () =
  let g = Generators.pendant_branch () in
  let r = labels_map g "h0" Berkeley.Oracle in
  match r.Labels.map with
  | Ok m ->
    Alcotest.(check int) "tail pruned from quotient" 2 (Graph.num_switches m);
    Alcotest.(check bool) "isomorphic to core" true
      (Iso.equal ~map:m ~actual:g ~exclude:(Core_set.separated_set g) ())
  | Error e -> Alcotest.failf "labels failed: %s" e

(* The §3.3 claim, executably: the production algorithm computes the
   same map as the simplified one. *)
let labels_agree_prop =
  QCheck.Test.make ~name:"simplified == production on random nets" ~count:20
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, switches) ->
      let rng = San_util.Prng.create ((seed * 7) + switches) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts:3 ~extra_links:1 ()
      in
      (* Cap the oracle's exponential tree with a fixed budget both
         algorithms share. *)
      let root = Option.get (Graph.host_by_name g "h0") in
      let depth = Berkeley.Fixed (min 8 (Core_set.search_depth g ~root)) in
      let rl = labels_map g "h0" depth in
      let mapper = Option.get (Graph.host_by_name g "h0") in
      let net = San_simnet.Network.create g in
      let rb = Berkeley.run ~depth net ~mapper in
      match (rl.Labels.map, rb.Berkeley.map) with
      | Ok a, Ok b -> Iso.equal ~map:a ~actual:b ()
      | Error _, Error _ -> true
      | _ -> false)

(* ---------- map merging ---------- *)

let test_union_identical () =
  let g, _ = Generators.now_c () in
  match Merge_maps.union_c g g with
  | Ok u ->
    Alcotest.(check bool) "self-union isomorphic" true (Iso.equal ~map:u ~actual:g ())
  | Error e -> Alcotest.failf "self-union failed: %s" e.Merge_maps.detail

let split_star () =
  (* A hub with two leaf switches, each with hosts; two partial views
     that share only the hub-side structure through host h0. *)
  let g = Generators.star ~leaves:3 () in
  (* view A: everything within 3 hops of h0; view B: within 3 of h1 *)
  g

let test_union_overlapping_views () =
  let g = split_star () in
  let mk_view center_name =
    let mapper = Option.get (Graph.host_by_name g center_name) in
    let net = San_simnet.Network.create g in
    let r = Berkeley.run ~depth:(Berkeley.Fixed 4) net ~mapper in
    Result.get_ok r.Berkeley.map
  in
  let va = mk_view "h0" and vb = mk_view "h1" in
  match Merge_maps.union_c va vb with
  | Ok u ->
    Alcotest.(check bool) "union covers the star" true
      (Graph.num_hosts u = 3 && Graph.num_switches u = 4)
  | Error e -> Alcotest.failf "union failed: %s" e.Merge_maps.detail

let test_union_no_anchor () =
  let g1 = Graph.create () in
  let s1 = Graph.add_switch g1 () in
  let h1 = Graph.add_host g1 ~name:"only-in-a" in
  Graph.connect g1 (h1, 0) (s1, 0);
  let g2 = Graph.create () in
  let s2 = Graph.add_switch g2 () in
  let h2 = Graph.add_host g2 ~name:"only-in-b" in
  Graph.connect g2 (h2, 0) (s2, 0);
  match Merge_maps.union_c g1 g2 with
  | Error e ->
    Alcotest.(check string) "anchor error" "maps share no host anchor"
      e.Merge_maps.detail
  | Ok _ -> Alcotest.fail "anchorless union must fail"

let test_union_conflict_detected () =
  (* Two "views" that disagree: in A, host x and host y share a switch;
     in B they sit on two different switches joined by a wire. *)
  let a = Graph.create () in
  let s = Graph.add_switch a () in
  let x = Graph.add_host a ~name:"x" in
  let y = Graph.add_host a ~name:"y" in
  Graph.connect a (x, 0) (s, 0);
  Graph.connect a (y, 0) (s, 1);
  let b = Graph.create () in
  let s1 = Graph.add_switch b () in
  let s2 = Graph.add_switch b () in
  let x' = Graph.add_host b ~name:"x" in
  let y' = Graph.add_host b ~name:"y" in
  Graph.connect b (x', 0) (s1, 0);
  Graph.connect b (y', 0) (s2, 0);
  Graph.connect b (s1, 1) (s2, 1);
  (* In A, x's switch has y at port 1; in B, x's switch has a switch
     at port 1.  The union must not silently accept both. *)
  match Merge_maps.union_c a b with
  | Error _ -> ()
  | Ok u ->
    (* If it merged, the map must at least not duplicate hosts. *)
    Alcotest.(check bool) "no silent corruption" true (Graph.num_hosts u = 2)

let test_union_port_shift_tolerance () =
  (* The same two-switch network normalised with different port
     offsets must merge cleanly. *)
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
  match Merge_maps.union_c (build 0) (build 4) with
  | Ok u ->
    Alcotest.(check int) "still two switches" 2 (Graph.num_switches u);
    Alcotest.(check int) "still three wires" 3 (Graph.num_wires u)
  | Error e -> Alcotest.failf "shifted union failed: %s" e.Merge_maps.detail

(* ---------- merge error paths: typed conflicts ---------- *)

let check_cls name expected = function
  | Ok _ -> Alcotest.failf "%s: union_c must fail" name
  | Error c ->
    Alcotest.(check string)
      name
      (Merge_maps.class_name expected)
      (Merge_maps.class_name c.Merge_maps.cls);
    c

let test_union_c_no_anchor () =
  let mk name =
    let g = Graph.create () in
    let s = Graph.add_switch g () in
    let h = Graph.add_host g ~name in
    Graph.connect g (h, 0) (s, 0);
    g
  in
  let c =
    check_cls "disjoint host names" Merge_maps.No_anchor
      (Merge_maps.union_c (mk "only-in-a") (mk "only-in-b"))
  in
  (* Nothing pins the maps, so there is no node to blame. *)
  Alcotest.(check bool) "no located node" true (c.Merge_maps.b_node = None)

let test_union_c_unanchorable_fragment () =
  (* b shares a host with a, but also carries an island of two wired
     switches that no probe path ties to any anchor. *)
  let a = Graph.create () in
  let s = Graph.add_switch a () in
  let h = Graph.add_host a ~name:"h0" in
  Graph.connect a (h, 0) (s, 0);
  let b = Graph.create () in
  let s' = Graph.add_switch b () in
  let h' = Graph.add_host b ~name:"h0" in
  Graph.connect b (h', 0) (s', 0);
  let i1 = Graph.add_switch b () in
  let i2 = Graph.add_switch b () in
  Graph.connect b (i1, 0) (i2, 0);
  let c =
    check_cls "island of switches" Merge_maps.Unanchorable
      (Merge_maps.union_c a b)
  in
  (match c.Merge_maps.b_node with
  | Some v ->
    Alcotest.(check bool) "blames an island switch" true (v = i1 || v = i2)
  | None -> Alcotest.fail "unanchorable conflict must locate the node")

let test_union_c_contradictory_frames () =
  (* Both views see h0 and h1 on one switch, but disagree on the port
     distance between them: aligning via h0 gives the switch shift 0,
     aligning via h1 gives shift -1. *)
  let mk h1_port =
    let g = Graph.create () in
    let s = Graph.add_switch g () in
    let h0 = Graph.add_host g ~name:"h0" in
    let h1 = Graph.add_host g ~name:"h1" in
    Graph.connect g (h0, 0) (s, 0);
    Graph.connect g (h1, 0) (s, h1_port);
    g
  in
  let c =
    check_cls "frames disagree" Merge_maps.Frame_mismatch
      (Merge_maps.union_c (mk 1) (mk 2))
  in
  Alcotest.(check bool)
    "locates the contradicting wire" true
    (c.Merge_maps.b_wire <> None)

let test_union_c_name_clash () =
  (* Same switch position, port 1: view a says host h1, view b says
     host h2. Propagation binds b's h2 onto the union's h1 and must
     refuse the identification. *)
  let mk other =
    let g = Graph.create () in
    let s = Graph.add_switch g () in
    let h0 = Graph.add_host g ~name:"h0" in
    let hx = Graph.add_host g ~name:other in
    Graph.connect g (h0, 0) (s, 0);
    Graph.connect g (hx, 0) (s, 1);
    g
  in
  ignore
    (check_cls "host name disagreement" Merge_maps.Name_clash
       (Merge_maps.union_c (mk "h1") (mk "h2")))

let test_union_c_radix_mismatch () =
  let mk radix =
    let g = Graph.create ~radix () in
    let s = Graph.add_switch g () in
    let h = Graph.add_host g ~name:"h0" in
    Graph.connect g (h, 0) (s, 0);
    g
  in
  ignore
    (check_cls "radix disagreement" Merge_maps.Structural
       (Merge_maps.union_c (mk 4) (mk 8)))

(* ---------- parallel mapping ---------- *)

module Region = San_shard.Region
module Runner = San_shard.Runner

let local_run g ~mappers ~depth ~radius =
  Runner.execute g (Result.get_ok (Region.local g ~mappers ~depth ~radius))

let test_parallel_now () =
  let g, _ = Generators.now_cab () in
  let plan = Result.get_ok (Region.local g ~mappers:4 ~depth:6 ~radius:5) in
  Alcotest.(check int) "four mappers placed" 4 plan.Region.shards;
  let r = Runner.execute g plan in
  (match r.Runner.map with
  | Ok m ->
    Alcotest.(check bool) "global map isomorphic" true (Iso.equal ~map:m ~actual:g ())
  | Error e -> Alcotest.failf "merge failed: %s" e);
  Alcotest.(check bool) "wall below sum" true (r.Runner.wall_ns < r.Runner.sum_ns);
  Alcotest.(check bool) "no local failures" true
    (List.for_all (fun s -> s.Runner.s_map_nodes > 0) r.Runner.reports)

let test_parallel_beats_solo_wall_clock () =
  let g, _ = Generators.now_cab () in
  let solo =
    let net = San_simnet.Network.create g in
    Berkeley.run net ~mapper:(Option.get (Graph.host_by_name g "C-util"))
  in
  let r = local_run g ~mappers:9 ~depth:6 ~radius:5 in
  Alcotest.(check bool) "parallel wall < solo" true
    (r.Runner.wall_ns < solo.Berkeley.elapsed_ns)

let test_parallel_rejects_bad_mappers () =
  let g, _ = Generators.now_c () in
  Alcotest.(check bool) "no mappers rejected" true
    (Result.is_error (Region.local g ~mappers:0 ~depth:5 ~radius:3));
  let hostless = Graph.create ~radix:8 () in
  ignore (Graph.add_switch hostless ~name:"s" ());
  Alcotest.(check bool) "hostless fabric rejected" true
    (Result.is_error (Region.local hostless ~mappers:4 ~depth:5 ~radius:3))

(* The §6 table of the bench's extensions section, row by row: probes,
   simulated walls (exact ns) and verdicts. *)
let test_parallel_table () =
  let g, _ = Generators.now_cab () in
  List.iter
    (fun (k, d, r, probes, wall_ns, sum_ns, verdict) ->
      let row = Printf.sprintf "k=%d d=%d r=%d" k d r in
      let rr = local_run g ~mappers:k ~depth:d ~radius:r in
      Alcotest.(check int) (row ^ ": total probes") probes rr.Runner.total_probes;
      Alcotest.(check (float 0.0)) (row ^ ": wall") wall_ns rr.Runner.wall_ns;
      Alcotest.(check (float 0.0)) (row ^ ": sum") sum_ns rr.Runner.sum_ns;
      Alcotest.(check string) (row ^ ": verdict") verdict
        (match rr.Runner.map with
        | Ok m ->
          if Iso.equal ~map:m ~actual:g () then "correct"
          else Printf.sprintf "partial (%d switches)" (Graph.num_switches m)
        | Error e -> "merge failed: " ^ e);
      Alcotest.(check (list int)) (row ^ ": no dropped views") []
        rr.Runner.dropped_views;
      Alcotest.(check int) (row ^ ": no resolutions") 0
        (List.length rr.Runner.resolutions))
    [
      (4, 6, 5, 8306, 1272027400., 3556968300., "correct");
      (9, 6, 5, 18727, 1269947400., 8000136300., "correct");
      (9, 5, 4, 11939, 839438400., 5065932400., "partial (40 switches)");
      (16, 5, 4, 21607, 841518400., 9165216100., "partial (40 switches)");
    ]

(* ---------- randomized mapping ---------- *)

let test_randomized_correct () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let net = San_simnet.Network.create g in
  let r = Randomized.run ~rng:(San_util.Prng.create 4) net ~mapper in
  match r.Randomized.map with
  | Ok m ->
    Alcotest.(check bool) "isomorphic" true (Iso.equal ~map:m ~actual:g ());
    Alcotest.(check int) "coupon probes accounted" 150 r.Randomized.coupon_probes
  | Error e -> Alcotest.failf "randomized failed: %s" e

let randomized_correct_prop =
  QCheck.Test.make ~name:"randomized maps random nets" ~count:15
    QCheck.(pair small_int (int_range 3 7))
    (fun (seed, switches) ->
      let rng = San_util.Prng.create ((seed * 3) + switches) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts:4 ~extra_links:2 ()
      in
      let mapper = Option.get (Graph.host_by_name g "h0") in
      let net = San_simnet.Network.create g in
      let r =
        Randomized.run ~samples:60 ~rng:(San_util.Prng.create seed) net ~mapper
      in
      match r.Randomized.map with
      | Ok m ->
        Iso.equal ~map:m ~actual:g ~exclude:(Core_set.separated_set g) ()
      | Error _ -> false)

(* ---------- walk probe (the §6 firmware tweak) ---------- *)

let test_walk_probe_reads_early_hit () =
  let g = Generators.star ~leaves:2 () in
  let h0 = Option.get (Graph.host_by_name g "h0") in
  let net = San_simnet.Network.create g in
  (* A long walk that hits h1 with turns to spare: h0 -> leaf0 (entry
     1, hub at port 0: turn -1) -> hub (entry 0; leaf1 at port 1:
     turn +1) -> leaf1 (entry 0; h1 at port 1: turn +1) -> h1, with
     extra turns appended. *)
  match San_simnet.Network.walk_probe net ~src:h0 ~turns:[ -1; 1; 1; 5; 5 ] with
  | Some (name, consumed), _ ->
    Alcotest.(check string) "read by h1" "h1" name;
    Alcotest.(check int) "three turns consumed" 3 consumed
  | None, _ -> Alcotest.fail "walk probe should be read by the early host"

let test_walk_probe_silent_host () =
  let g = Generators.star ~leaves:2 () in
  let h0 = Option.get (Graph.host_by_name g "h0") in
  let h1 = Option.get (Graph.host_by_name g "h1") in
  let net = San_simnet.Network.create ~responding:(fun h -> h <> h1) g in
  match San_simnet.Network.walk_probe net ~src:h0 ~turns:[ -1; 1; 1; 5 ] with
  | None, _ -> ()
  | Some _, _ -> Alcotest.fail "silent host must not read the worm"

(* ---------- cross traffic ---------- *)

let test_traffic_lossless_at_zero () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let clean = San_simnet.Network.create g in
  let r0 = Berkeley.run clean ~mapper in
  let lossy = San_simnet.Network.create ~traffic:(0.0, San_util.Prng.create 1) g in
  let r1 = Berkeley.run lossy ~mapper in
  Alcotest.(check int) "identical probe counts at zero loss"
    (Berkeley.total_probes r0) (Berkeley.total_probes r1)

(* 8%: mild loss rates no longer degrade the retryless run, because
   replicates of explored classes re-probe still-unknown slots and so
   give every lost probe organic second chances. *)
let test_retries_restore_map_under_loss () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let run retries =
    let net =
      San_simnet.Network.create ~traffic:(0.08, San_util.Prng.create 3) g
    in
    let policy = { Berkeley.faithful with retries } in
    (Berkeley.run ~policy net ~mapper).Berkeley.map
  in
  (match run 0 with
  | Ok m ->
    Alcotest.(check bool) "lossy map degraded without retries" false
      (Iso.equal ~map:m ~actual:g ())
  | Error _ -> ());
  match run 2 with
  | Ok m ->
    Alcotest.(check bool) "two retries restore the map" true
      (Iso.equal ~map:m ~actual:g ())
  | Error e -> Alcotest.failf "retry run failed: %s" e

let test_traffic_degrades_gracefully () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let lossy =
    San_simnet.Network.create ~traffic:(0.10, San_util.Prng.create 1) g
  in
  let r = Berkeley.run lossy ~mapper in
  (* Heavy loss: mapping still terminates and exports something. *)
  match r.Berkeley.map with
  | Ok m -> Alcotest.(check bool) "some map" true (Graph.num_nodes m >= 1)
  | Error _ -> () (* unresolved replicates acceptable under heavy loss *)

(* appended: on-line mapping over the event simulator *)
let test_online_quiescent_matches_cut_through () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let online =
    Online.run ~traffic_per_ms:0.0 ~rng:(San_util.Prng.create 1) g ~mapper
  in
  let analytic =
    let net =
      San_simnet.Network.create ~model:San_simnet.Collision.Cut_through g
    in
    Berkeley.run net ~mapper
  in
  (* The event-driven simulator independently reproduces the analytic
     cut-through response function: same probe count, same map. *)
  Alcotest.(check int) "probe counts agree"
    (Berkeley.total_probes analytic) online.Online.probes;
  match (online.Online.map, analytic.Berkeley.map) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "maps agree" true (Iso.equal ~map:a ~actual:b ())
  | _ -> Alcotest.fail "both should export"

let test_online_under_traffic_still_correct () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let r =
    Online.run ~traffic_per_ms:20.0 ~rng:(San_util.Prng.create 2) g ~mapper
  in
  Alcotest.(check bool) "background flowed" true (r.Online.background_injected > 100);
  match r.Online.map with
  | Ok m ->
    Alcotest.(check bool) "still isomorphic under load" true
      (Iso.equal ~map:m ~actual:g ())
  | Error e -> Alcotest.failf "map failed: %s" e

(* ---------- self-identifying switches (§6 what-if) ---------- *)

let test_selfid_correct_and_cheaper () =
  let g, _ = Generators.now_cab () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let r = Selfid.run g ~mapper in
  (match r.Selfid.map with
  | Ok m ->
    Alcotest.(check bool) "isomorphic (full N: nothing is pruned)" true
      (Iso.equal ~map:m ~actual:g ());
    (* With identities, ports are absolute: the map should align with
       zero shift everywhere — checked implicitly by Iso. *)
    Alcotest.(check int) "one exploration per switch" 40 r.Selfid.explorations
  | Error e -> Alcotest.failf "selfid failed: %s" e);
  let net = San_simnet.Network.create g in
  let rb = Berkeley.run net ~mapper in
  Alcotest.(check bool) "way fewer probes than Berkeley" true
    (r.Selfid.probes * 3 < Berkeley.total_probes rb)

let selfid_prop =
  QCheck.Test.make ~name:"selfid maps random nets" ~count:25
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, switches) ->
      let rng = San_util.Prng.create ((seed * 23) + switches) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts:3 ~extra_links:2 ()
      in
      let mapper = Option.get (Graph.host_by_name g "h0") in
      let r = Selfid.run g ~mapper in
      match r.Selfid.map with
      | Ok m -> Iso.equal ~map:m ~actual:g ()
      | Error _ -> false)

(* ---------- incremental remapping ---------- *)

let check_n_minus_f name (r : Incremental.result) ~actual ~exclude =
  match r.Incremental.map with
  | Ok map -> (
    match Iso.check ~map ~actual ~exclude () with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s map not N' - F': %s" name e)
  | Error e -> Alcotest.failf "%s map failed: %s" name e

let test_incremental_unchanged () =
  let g, _ = Generators.now_cab () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let net = San_simnet.Network.create g in
  let full = Berkeley.run net ~mapper in
  let map0 = Result.get_ok full.Berkeley.map in
  let net1 = San_simnet.Network.create g in
  let r = Incremental.run net1 ~mapper ~previous:map0 in
  Alcotest.(check bool) "verdict unchanged" true (r.Incremental.verdict = Incremental.Unchanged);
  Alcotest.(check bool) "far fewer probes than a remap" true
    (r.Incremental.verify_probes * 5 < Berkeley.total_probes full);
  Alcotest.(check bool) "far faster than a remap" true
    (r.Incremental.total_elapsed_ns *. 5.0 < full.Berkeley.elapsed_ns);
  Alcotest.(check bool) "returns the same map" true
    (match r.Incremental.map with Ok m -> m == map0 | Error _ -> false)

let test_incremental_detects_and_recovers () =
  let g, _ = Generators.now_cab () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let net = San_simnet.Network.create g in
  let map0 = Result.get_ok (Berkeley.run net ~mapper).Berkeley.map in
  let rng = San_util.Prng.create 77 in
  let g1 = Faults.remove_random_links ~rng g ~count:2 in
  let net1 = San_simnet.Network.create g1 in
  let r = Incremental.run net1 ~mapper ~previous:map0 in
  (match r.Incremental.verdict with
  | Incremental.Changed n -> Alcotest.(check bool) "discrepancies seen" true (n > 0)
  | Incremental.Unchanged -> Alcotest.fail "change missed");
  match r.Incremental.map with
  | Ok m ->
    Alcotest.(check bool) "recovered map isomorphic to new reality" true
      (Iso.equal ~map:m ~actual:g1 ~exclude:(Core_set.separated_set g1) ())
  | Error e -> Alcotest.failf "recovery failed: %s" e

let test_incremental_detects_silent_host () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let net = San_simnet.Network.create g in
  let map0 = Result.get_ok (Berkeley.run net ~mapper).Berkeley.map in
  let silent = Option.get (Graph.host_by_name g "C-h9") in
  let net1 = San_simnet.Network.create ~responding:(fun h -> h <> silent) g in
  let r = Incremental.run net1 ~mapper ~previous:map0 in
  match r.Incremental.verdict with
  | Incremental.Changed _ -> ()
  | Incremental.Unchanged -> Alcotest.fail "dead daemon missed"

let test_incremental_detects_new_link () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let net = San_simnet.Network.create g in
  let map0 = Result.get_ok (Berkeley.run net ~mapper).Berkeley.map in
  let rng = San_util.Prng.create 3 in
  match Faults.add_random_link ~rng g with
  | None -> Alcotest.fail "expected a free port"
  | Some g1 -> (
    let net1 = San_simnet.Network.create g1 in
    let r = Incremental.run net1 ~mapper ~previous:map0 in
    (match r.Incremental.verdict with
    | Incremental.Changed _ -> ()
    | Incremental.Unchanged -> Alcotest.fail "new cable missed");
    Alcotest.(check bool) "a new cable is remapped in full" true
      (r.Incremental.repair = Incremental.Remapped);
    check_n_minus_f "remapped" r ~actual:g1
      ~exclude:(Core_set.separated_set g1))

(* The NOW with one cut or one silent host, against its quiet map. *)
let now_epoch ?(responding = fun _ -> true) g g1 =
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let map0 =
    Result.get_ok
      (Berkeley.run (San_simnet.Network.create g) ~mapper).Berkeley.map
  in
  let net1 = San_simnet.Network.create ~responding g1 in
  (mapper, map0, net1, Incremental.run net1 ~mapper ~previous:map0)

(* A patched map must itself verify unchanged, in exactly the checks
   its re-verification spent. *)
let check_patched name (r : Incremental.result) ~net ~mapper ~lost =
  Alcotest.(check bool) (name ^ ": patched") true
    (r.Incremental.repair = Incremental.Patched lost);
  let again =
    Incremental.run net ~mapper ~previous:(Result.get_ok r.Incremental.map)
  in
  Alcotest.(check bool) (name ^ ": patched map verifies") true
    (again.Incremental.verdict = Incremental.Unchanged);
  Alcotest.(check int) (name ^ ": remap probes are the second sweep")
    again.Incremental.verify_probes r.Incremental.remap_probes

let test_incremental_patches_cut () =
  let g, _ = Generators.now_cab () in
  let bridges = Core_set.bridges g in
  let cuttable =
    List.filter
      (fun ((a, _), (b, _) as w) ->
        (not (Graph.is_host g a)) && (not (Graph.is_host g b))
        && not (List.mem w bridges))
      (Graph.wires g)
  in
  let rng = San_util.Prng.create 5 in
  let e, _ =
    List.nth cuttable (San_util.Prng.int rng (List.length cuttable))
  in
  let g1 = Faults.remove_link g e in
  let mapper, _, net1, r = now_epoch g g1 in
  check_patched "cut" r ~net:net1 ~mapper ~lost:1;
  check_n_minus_f "patched" r ~actual:g1 ~exclude:(Core_set.separated_set g1)

let test_incremental_patches_dead_daemon () =
  let g, _ = Generators.now_c () in
  let silent = Option.get (Graph.host_by_name g "C-h9") in
  let responding h = h <> silent in
  let mapper, _, net1, r = now_epoch ~responding g g in
  check_patched "dead daemon" r ~net:net1 ~mapper ~lost:1;
  let sep = Core_set.separated_set g in
  check_n_minus_f "patched" r ~actual:g
    ~exclude:(Array.mapi (fun v f -> f || v = silent) sep)

(* A cut that leaves a hostless region hanging off one cable: the
   patch would keep what a fresh map drops (Theorem 1's F), so the
   epoch remaps at once, after the one sweep. The NOW gains a hostless
   switch on two cables to two of its switches; the cut takes one. *)
let test_incremental_stranding_cut_remaps () =
  let g, _ = Generators.now_c () in
  let x = Graph.add_switch g ~name:"x" () in
  (match
     List.filter
       (fun s -> s <> x && Graph.free_ports g s <> [])
       (Graph.switches g)
   with
  | a :: b :: _ ->
    Graph.connect g (x, 0) (a, List.hd (Graph.free_ports g a));
    Graph.connect g (x, 1) (b, List.hd (Graph.free_ports g b))
  | _ -> Alcotest.fail "expected two switches with a free port");
  let g1 = Faults.remove_link g (x, 0) in
  let mapper, map0, _, r = now_epoch g g1 in
  Alcotest.(check int) "the hostless switch is mapped"
    (Graph.num_switches g) (Graph.num_switches map0);
  let quiet =
    Incremental.run (San_simnet.Network.create g) ~mapper ~previous:map0
  in
  (match r.Incremental.verdict with
  | Incremental.Changed _ -> ()
  | Incremental.Unchanged -> Alcotest.fail "cut missed");
  Alcotest.(check bool) "remapped" true
    (r.Incremental.repair = Incremental.Remapped);
  Alcotest.(check int) "no second sweep" quiet.Incremental.verify_probes
    r.Incremental.verify_probes;
  check_n_minus_f "remapped" r ~actual:g1 ~exclude:(Core_set.separated_set g1)

let test_incremental_unwired_mapper () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let g1 = Faults.remove_link g (mapper, 0) in
  let _, _, _, r = now_epoch g g1 in
  (match r.Incremental.verdict with
  | Incremental.Changed _ -> ()
  | Incremental.Unchanged -> Alcotest.fail "unwired mapper missed");
  match r.Incremental.map with
  | Ok m ->
    Alcotest.(check int) "the lone mapper" 1 (Graph.num_nodes m);
    Alcotest.(check int) "no switch" 0 (Graph.num_switches m)
  | Error e -> Alcotest.failf "remap failed: %s" e

(* The map numbers ports from the lowest used slot; a cable plugged in
   below the mapper's one known wire must still be seen. *)
let test_incremental_cable_below_mapper () =
  let g = Graph.create ~radix:8 () in
  let s = Graph.add_switch g () in
  let m = Graph.add_host g ~name:"m" in
  Graph.connect g (m, 0) (s, 3);
  let map0 =
    Result.get_ok
      (Berkeley.run (San_simnet.Network.create g) ~mapper:m).Berkeley.map
  in
  Alcotest.(check int) "one switch mapped" 1 (Graph.num_switches map0);
  let g1 = Graph.copy g in
  let h = Graph.add_host g1 ~name:"h" in
  Graph.connect g1 (h, 0) (s, 1);
  let r =
    Incremental.run (San_simnet.Network.create g1) ~mapper:m ~previous:map0
  in
  (match r.Incremental.verdict with
  | Incremental.Changed _ -> ()
  | Incremental.Unchanged -> Alcotest.fail "cable below the mapper missed");
  check_n_minus_f "remapped" r ~actual:g1 ~exclude:(Core_set.separated_set g1)

let test_incremental_daemon_replay () =
  let preset = Option.get (San_fabric.Fabric.find_preset "ft-100") in
  let g = preset.San_fabric.Fabric.p_build ~seed:1 in
  let schedule = Result.get_ok (San_service.Schedule.parse "1:cut") in
  let reports () =
    let acc = ref [] in
    let module D = San_service.Daemon in
    ignore
      (D.run ~schedule ~on_epoch:(fun r -> acc := r :: !acc) ~epochs:2 g);
    List.rev_map
      (fun (r : D.epoch_report) ->
        ( r.D.events,
          r.D.verdict,
          r.D.probes,
          (r.D.verify_ns, r.D.remap_ns, r.D.epoch_ns),
          Option.map
            (fun d ->
              ( d.San_service.Delta.sent_bytes,
                d.San_service.Delta.plan.San_service.Delta.unchanged_hosts ))
            r.D.dist ))
      !acc
  in
  let a = reports () in
  Alcotest.(check bool) "identical epoch reports" true (a = reports ());
  match a with
  | [ _; (events, _, _, _, _) ] ->
    Alcotest.(check bool) "the cut is patched" true
      (List.exists (String.starts_with ~prefix:"patched map: ") events)
  | _ -> Alcotest.fail "expected two epochs"

let () =
  Alcotest.run "san_mapper.extensions"
    [
      ( "labels oracle",
        [
          Alcotest.test_case "star" `Quick test_labels_star;
          Alcotest.test_case "prunes F" `Quick test_labels_prunes_f;
          qcheck labels_agree_prop;
        ] );
      ( "map merging",
        [
          Alcotest.test_case "self union" `Quick test_union_identical;
          Alcotest.test_case "overlapping views" `Quick test_union_overlapping_views;
          Alcotest.test_case "no anchor" `Quick test_union_no_anchor;
          Alcotest.test_case "conflict" `Quick test_union_conflict_detected;
          Alcotest.test_case "port shifts" `Quick test_union_port_shift_tolerance;
          Alcotest.test_case "conflict: no anchor" `Quick test_union_c_no_anchor;
          Alcotest.test_case "conflict: unanchorable" `Quick
            test_union_c_unanchorable_fragment;
          Alcotest.test_case "conflict: frame mismatch" `Quick
            test_union_c_contradictory_frames;
          Alcotest.test_case "conflict: name clash" `Quick test_union_c_name_clash;
          Alcotest.test_case "conflict: structural" `Quick
            test_union_c_radix_mismatch;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "NOW" `Slow test_parallel_now;
          Alcotest.test_case "beats solo wall" `Slow test_parallel_beats_solo_wall_clock;
          Alcotest.test_case "bad mappers" `Quick test_parallel_rejects_bad_mappers;
          Alcotest.test_case "section 6 table" `Slow test_parallel_table;
        ] );
      ( "randomized",
        [
          Alcotest.test_case "C" `Quick test_randomized_correct;
          qcheck randomized_correct_prop;
        ] );
      ( "walk probe",
        [
          Alcotest.test_case "early hit read" `Quick test_walk_probe_reads_early_hit;
          Alcotest.test_case "silent host" `Quick test_walk_probe_silent_host;
        ] );
      ( "cross traffic",
        [
          Alcotest.test_case "zero loss" `Quick test_traffic_lossless_at_zero;
          Alcotest.test_case "heavy loss" `Quick test_traffic_degrades_gracefully;
          Alcotest.test_case "retries restore" `Quick test_retries_restore_map_under_loss;
        ] );
      ( "online",
        [
          Alcotest.test_case "quiescent = cut-through" `Slow
            test_online_quiescent_matches_cut_through;
          Alcotest.test_case "correct under load" `Slow
            test_online_under_traffic_still_correct;
        ] );
      ( "selfid",
        [
          Alcotest.test_case "correct and cheaper" `Quick test_selfid_correct_and_cheaper;
          qcheck selfid_prop;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "unchanged epoch" `Slow test_incremental_unchanged;
          Alcotest.test_case "detects and recovers" `Slow
            test_incremental_detects_and_recovers;
          Alcotest.test_case "dead daemon" `Quick test_incremental_detects_silent_host;
          Alcotest.test_case "new cable" `Quick test_incremental_detects_new_link;
          Alcotest.test_case "cut cable patched" `Quick test_incremental_patches_cut;
          Alcotest.test_case "dead daemon patched" `Quick
            test_incremental_patches_dead_daemon;
          Alcotest.test_case "stranding cut remaps" `Quick
            test_incremental_stranding_cut_remaps;
          Alcotest.test_case "unwired mapper" `Quick test_incremental_unwired_mapper;
          Alcotest.test_case "cable below the mapper" `Quick
            test_incremental_cable_below_mapper;
          Alcotest.test_case "seeded daemon replay" `Slow
            test_incremental_daemon_replay;
        ] );
    ]
