(* Regression tests for specific bugs found and fixed during
   development — each encodes the failure scenario that once broke. *)

open San_topology
open San_mapper

let qcheck t = QCheck_alcotest.to_alcotest t

(* Bug: the randomized mapper's splice walked coupon paths assuming
   every reused model vertex was entered through its frame-0 port; a
   path entering an existing vertex through any other port corrupted
   the frame arithmetic ("vertex deduced equal to itself at shift -1").
   Fix: thread (vertex, entry slot) pairs and expose
   Model.neighbor_end_via.  This rebuilds exactly that shape. *)
let test_splice_entry_frames () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  (* Many coupon walks re-enter switches through different ports; with
     the frame bug this raised Model.Inconsistent. *)
  for seed = 1 to 8 do
    let net = San_simnet.Network.create g in
    let r = Randomized.run ~samples:80 ~rng:(San_util.Prng.create seed) net ~mapper in
    match r.Randomized.map with
    | Ok m ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d maps correctly" seed)
        true
        (Iso.equal ~map:m ~actual:g ())
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

let test_neighbor_end_via_is_merge_stable () =
  (* The far slot returned by neighbor_end_via must stay valid after
     the far vertex's class is re-framed by a later merge. *)
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  let a = Model.add_switch_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] in
  let b = Model.add_switch_vertex m ~parent:s ~turn:2 ~rev_probe:[ 2 ] in
  (* Look across s's slot 1 before any merging. *)
  let far, far_rel =
    Option.get (Model.neighbor_end_via m s ~slot:(Model.turn_slot m s 1))
  in
  Alcotest.(check int) "far vertex is a" (Model.canonical m a) (Model.canonical m far);
  (* Now merge a and b (replicates seen through a shared host at
     offset-consistent turns), re-framing one of them. *)
  ignore (Model.add_host_vertex m ~parent:a ~turn:1 ~rev_probe:[ 1; 1 ] ~name:"h");
  ignore (Model.add_host_vertex m ~parent:b ~turn:3 ~rev_probe:[ 3; 2 ] ~name:"h");
  Alcotest.(check int) "a and b merged" (Model.canonical m a) (Model.canonical m b);
  (* The stored (far, far_rel) still addresses the edge to s. *)
  let slot_now = far_rel + Model.frame_shift m far in
  match Model.neighbor_end_via m far ~slot:slot_now with
  | Some (back, _) ->
    Alcotest.(check int) "round trip back to s" (Model.canonical m s)
      (Model.canonical m back)
  | None -> Alcotest.fail "stored far slot went stale after merge"

(* Bug: Merge_maps originally created fresh union nodes eagerly while
   propagating, duplicating switches whose identification arrived
   later; fix was the two-phase drain-bindings-then-create-one loop.
   This is the NOW scenario that exposed it. *)
let test_two_phase_gluing_avoids_duplicates () =
  let g, _ = Generators.now_cab () in
  let plan =
    Result.get_ok (San_shard.Region.local g ~mappers:4 ~depth:7 ~radius:5)
  in
  match (San_shard.Runner.execute g plan).San_shard.Runner.map with
  | Ok m ->
    Alcotest.(check int) "exactly 40 switches, no duplicates" 40
      (Graph.num_switches m)
  | Error e -> Alcotest.failf "glue failed: %s" e

(* Bug: an early flow-solver draft aliased arc records across queries,
   so a second min_cost_flow on the same network saw depleted
   capacities. *)
let test_flow_requery_stable () =
  let f = Flow.create 2 in
  Flow.add_arc f ~src:0 ~dst:1 ~cap:2 ~cost:3;
  Alcotest.(check (option int)) "first query" (Some 6)
    (Flow.min_cost_flow f ~source:0 ~sink:1 ~amount:2);
  Alcotest.(check (option int)) "second query identical" (Some 6)
    (Flow.min_cost_flow f ~source:0 ~sink:1 ~amount:2);
  Alcotest.(check int) "max flow after cost queries" 2
    (Flow.max_flow_value f ~source:0 ~sink:1)

(* Bug: hosts can never be locally dominant (their switch is above
   them), so UP*/DOWN* relabelling must only ever fire for hostless
   local maxima — an early version relabelled switch-adjacent maxima
   even when a host kept them usable. *)
let test_relabelling_spares_hosted_switches () =
  let g = Generators.ring ~switches:4 ~hosts_per_switch:1 () in
  let s0 = List.hd (Graph.switches g) in
  let ud = San_routing.Updown.build ~root:s0 g in
  Alcotest.(check (list int)) "nothing relabelled with hosts everywhere" []
    (San_routing.Updown.relabeled ud)

(* Election collisions must respond to their knob — guards against the
   tuning silently becoming a no-op. *)
let test_election_tuning_bites () =
  let g, _ = Generators.now_c () in
  let overhead tuning =
    let samples =
      List.init 8 (fun i ->
          let net = San_simnet.Network.create g in
          let o = Election.run ~tuning ~rng:(San_util.Prng.create (i + 1)) net in
          o.Election.collision_extra_ns)
    in
    (San_util.Summary.of_list samples).San_util.Summary.avg
  in
  let low =
    overhead { Election.default_tuning with collision_prob_per_loser = 1e-6 }
  in
  let high =
    overhead { Election.default_tuning with collision_prob_per_loser = 1e-2 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "collision knob works (%.0f < %.0f)" low high)
    true (low < high)

(* The documented schema example in Serial's interface must parse. *)
let test_serial_schema_doc () =
  let text =
    {|{ "radix": 8,
        "nodes": [ {"id":0,"kind":"host","name":"C-h0"},
                   {"id":1,"kind":"switch"} ],
        "wires": [ [0,0, 1,3] ] }|}
  in
  match Result.bind (San_util.Json.of_string text) Serial.of_json with
  | Ok g ->
    Alcotest.(check int) "one host" 1 (Graph.num_hosts g);
    Alcotest.(check (option (pair int int))) "wire placed" (Some (1, 3))
      (Graph.neighbor g (0, 0))
  | Error e -> Alcotest.fail e

let splice_never_corrupts_prop =
  QCheck.Test.make ~name:"randomized splice never corrupts the model" ~count:20
    QCheck.(pair small_int (int_range 3 8))
    (fun (seed, switches) ->
      let rng = San_util.Prng.create ((seed * 43) + switches) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts:4 ~extra_links:3 ()
      in
      let mapper = Option.get (Graph.host_by_name g "h0") in
      let net = San_simnet.Network.create g in
      match
        (Randomized.run ~samples:100 ~rng:(San_util.Prng.create seed) net
           ~mapper)
          .Randomized.map
      with
      | Ok _ -> true
      | Error _ -> false
      | exception Model.Inconsistent _ -> false)

let () =
  Alcotest.run "san_regressions"
    [
      ( "fixed bugs",
        [
          Alcotest.test_case "splice entry frames" `Quick test_splice_entry_frames;
          Alcotest.test_case "neighbor_end_via stability" `Quick
            test_neighbor_end_via_is_merge_stable;
          Alcotest.test_case "two-phase gluing" `Slow
            test_two_phase_gluing_avoids_duplicates;
          Alcotest.test_case "flow requery" `Quick test_flow_requery_stable;
          Alcotest.test_case "relabelling spares hosted" `Quick
            test_relabelling_spares_hosted_switches;
          Alcotest.test_case "election tuning" `Quick test_election_tuning_bites;
          Alcotest.test_case "serial schema doc" `Quick test_serial_schema_doc;
          qcheck splice_never_corrupts_prop;
        ] );
    ]
