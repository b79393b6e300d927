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

(* ---------- the model against its reference ---------- *)

open San_topology
open San_simnet
module Why = San_why.Why
module Json = San_util.Json

(* One call the exploration engine made on its model, as seen from
   outside: an exploration (the explored vertex's route), a probe that
   found something (its turns; the host's name, or None for a switch),
   or the final turn-0 self-probe (whether it bounced back). *)
type event =
  | Explore of Route.t
  | Found of Route.t * string option
  | Root_probe of bool

(* Map [g] with the faithful policy and record its event stream: the
   service sees every probe and its answer, [expand] every
   exploration. Returns the events and the pruned model. *)
let record ?(model = Collision.Circuit) ?(responding = fun _ -> true) g ~mapper
    ~depth =
  let net = Network.create ~model ~responding g in
  let sv = Berkeley.service_of_network net ~mapper in
  let log = ref [] in
  let note e = log := e :: !log in
  let sv =
    {
      sv with
      Berkeley.sv_host_probe =
        (fun ~turns ->
          let ((r, _) as res) = sv.Berkeley.sv_host_probe ~turns in
          (match (turns, r) with
          | [ 0 ], r -> note (Root_probe (match r with Network.Host _ -> true | _ -> false))
          | _, Network.Host name -> note (Found (turns, Some name))
          | _ -> ());
          res);
      sv_switch_probe =
        (fun ~turns ->
          let ((r, _) as res) = sv.Berkeley.sv_switch_probe ~turns in
          if r = Network.Switch then note (Found (turns, None));
          res);
    }
  in
  let m = Model.create ~mapper_name:(Graph.name g mapper) ~radix:(Graph.radix g) in
  let expand route =
    note (Explore route);
    true
  in
  ignore
    (Berkeley.explore_service ~expand ~policy:Berkeley.faithful ~depth_used:depth
       ~record_trace:false sv m [ Model.root_switch m ]);
  Model.prune m;
  (List.rev !log, m)

module type MODEL = sig
  type t

  val create : mapper_name:string -> radix:int -> t
  val root_switch : t -> int
  val add_switch_vertex : t -> parent:int -> turn:int -> rev_probe:Route.t -> int

  val add_host_vertex :
    t -> parent:int -> turn:int -> rev_probe:Route.t -> name:string -> int

  val set_explored : t -> int -> unit
  val kill_root_switch : t -> unit
  val prune : t -> unit
  val to_graph : t -> Graph.t
  val canonical : t -> int -> int
  val frame_shift : t -> int -> int
  val offset_window : t -> int -> int * int
  val is_explored : t -> int -> bool
  val is_live : t -> int -> bool
  val slot_occupied : t -> int -> int -> bool
  val created_vertices : t -> int
  val live_vertices : t -> int
  val created_edges : t -> int
  val live_edges : t -> int
  val known_hosts : t -> int
end

module Routes = Hashtbl.Make (struct
  type t = Route.t

  let equal = ( = )
  let hash l = List.fold_left (fun h x -> (h * 31) + x + 7) 0 l land max_int
end)

(* Replays an event stream into one model: switch vertices are found
   again by the route that created them. *)
module Replay (X : MODEL) = struct
  type st = { m : X.t; by_route : int Routes.t; radix : int }

  let start ~mapper_name ~radix =
    let m = X.create ~mapper_name ~radix in
    let by_route = Routes.create 1024 in
    Routes.replace by_route [] (X.root_switch m);
    { m; by_route; radix }

  (* Applies one event; returns the vertices it touched. *)
  let step st = function
    | Explore route ->
      let v = Routes.find st.by_route route in
      X.set_explored st.m v;
      [ v ]
    | Found (turns, found) -> (
      let rev_probe = List.rev turns in
      let turn = List.hd rev_probe in
      let parent = Routes.find st.by_route (List.rev (List.tl rev_probe)) in
      match found with
      | None ->
        let child = X.add_switch_vertex st.m ~parent ~turn ~rev_probe in
        Routes.replace st.by_route turns child;
        [ parent; child ]
      | Some name -> [ parent; X.add_host_vertex st.m ~parent ~turn ~rev_probe ~name ])
    | Root_probe bounced ->
      if not bounced then X.kill_root_switch st.m;
      []

  let state st v =
    let r1 = st.radix - 1 in
    ( (X.canonical st.m v, X.frame_shift st.m v, X.offset_window st.m v),
      (X.is_explored st.m v, X.is_live st.m v),
      List.init ((2 * r1) + 1) (fun k -> X.slot_occupied st.m v (k - r1)) )

  let counters st =
    [
      X.created_vertices st.m; X.live_vertices st.m; X.created_edges st.m;
      X.live_edges st.m; X.known_hosts st.m;
    ]

  let prune st = X.prune st.m
  let export st = Json.to_string (Serial.to_json (X.to_graph st.m))
end

module New = Replay (Model)
module Ref = Replay (Model_reference)

let ledger_text () =
  let snap = Why.capture () in
  String.concat "\n"
    (List.map (fun (i, e) -> Json.to_string (Why.entry_to_json i e)) (Why.entries snap))

(* One model's replay with the why-ledger on: the ledger, its merge
   records and the export. *)
let with_ledger f =
  Why.set_enabled true;
  Fun.protect ~finally:(fun () -> Why.set_enabled false) @@ fun () ->
  let export = f () in
  let snap = Why.capture () in
  (ledger_text (), Why.merges snap, export)

(* The engine's per-turn skip test, turn by turn. *)
let open_turn_by_turns m v =
  let c = Model.canonical m v and shift = Model.frame_shift m v in
  Array.exists
    (fun turn ->
      let slot = turn + shift in
      not
        (Probe_order.already_known m c ~slot
        || Probe_order.provably_illegal m c ~slot))
    (Probe_order.turn_order ~radix:(Model.radix m))

(* Before an exploration, and before each probe's answer is recorded,
   the one mask test agrees with testing every turn. *)
let check_open_turn ~what m ev by_route =
  let v =
    match ev with
    | Explore route -> Routes.find by_route route
    | Found (turns, _) -> Routes.find by_route (List.rev (List.tl (List.rev turns)))
    | Root_probe _ -> assert false
  in
  let c = Model.canonical m v and shift = Model.frame_shift m v in
  if Model.has_open_turn m c ~shift <> open_turn_by_turns m v then
    Alcotest.failf "%s: open-turn test disagrees with the turns at vertex %d" what v

(* Replays [events] into the model and its reference side by side.
   After every call the touched vertices agree (class, frame shift,
   offset window, explored and live flags, every slot's occupancy) and
   so do the counters; every vertex agrees at calls 4^k and after
   pruning. Then the exports, and with [why] the ledgers and merge
   records of two separate replays, must be identical. Returns the
   export. *)
let differential ?(why = true) ~what events ~mapper_name ~radix =
  let a = New.start ~mapper_name ~radix and b = Ref.start ~mapper_name ~radix in
  let same_vertex ~at v =
    if New.state a v <> Ref.state b v then
      Alcotest.failf "%s: vertex %d differs from the reference after call %d" what v at
  in
  let sweep ~at =
    for v = 0 to Model.created_vertices a.New.m - 1 do
      same_vertex ~at v
    done
  in
  let next_sweep = ref 1 in
  List.iteri
    (fun i ev ->
      (match ev with
      | Explore _ | Found _ -> check_open_turn ~what a.New.m ev a.New.by_route
      | Root_probe _ -> ());
      let touched = New.step a ev in
      if Ref.step b ev <> touched then
        Alcotest.failf "%s: call %d touched different vertices" what i;
      List.iter
        (fun v ->
          same_vertex ~at:i v;
          same_vertex ~at:i (Model.canonical a.New.m v))
        touched;
      if New.counters a <> Ref.counters b then
        Alcotest.failf "%s: counters differ after call %d" what i;
      if i = !next_sweep then begin
        sweep ~at:i;
        next_sweep := 4 * !next_sweep
      end)
    events;
  New.prune a;
  Ref.prune b;
  sweep ~at:(List.length events);
  if New.counters a <> Ref.counters b then
    Alcotest.failf "%s: counters differ after pruning" what;
  let export = New.export a in
  Alcotest.(check string) (what ^ ": exported map") (Ref.export b) export;
  (match Model.check_invariants a.New.m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invariant: %s" what e);
  if why then begin
    let replay_with start step prune export () =
      let st = start ~mapper_name ~radix in
      List.iter (fun ev -> ignore (step st ev)) events;
      prune st;
      export st
    in
    let new_ledger, new_merges, new_export =
      with_ledger
        (replay_with New.start New.step New.prune New.export)
    in
    let ref_ledger, ref_merges, ref_export =
      with_ledger
        (replay_with Ref.start Ref.step Ref.prune Ref.export)
    in
    Alcotest.(check bool) (what ^ ": merge records") true (new_merges = ref_merges);
    Alcotest.(check string) (what ^ ": why-ledger") ref_ledger new_ledger;
    Alcotest.(check string) (what ^ ": export with why on") ref_export new_export
  end;
  export

(* Records a faithful map of [g] and checks the model against the
   reference on it; the recorded run's own export must match too. *)
let check_fabric ?why ?model ?responding ~what ?depth g ~mapper =
  let depth =
    match depth with Some d -> d | None -> Core_set.search_depth g ~root:mapper
  in
  let events, m = record ?model ?responding g ~mapper ~depth in
  let export =
    differential ?why ~what events ~mapper_name:(Graph.name g mapper)
      ~radix:(Graph.radix g)
  in
  Alcotest.(check string) (what ^ ": recorded run's export") export
    (Json.to_string (Serial.to_json (Model.to_graph m)));
  (Model.to_graph m, m)

let preset name =
  match San_fabric.Fabric.parse name with
  | Ok p -> (p.San_fabric.Fabric.p_build ~seed:1, p.San_fabric.Fabric.p_depth)
  | Error e -> Alcotest.fail e

let first_host g = List.hd (Graph.hosts g)

let test_reference_now () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun model ->
          let what = name ^ " " ^ Collision.model_to_string model in
          ignore (check_fabric ~model ~what g ~mapper:(first_host g) : _ * _))
        [ Collision.Circuit; Collision.Cut_through ])
    [
      ("now-c", fst (Generators.now_c ())); ("now-ca", fst (Generators.now_ca ()));
      ("now-cab", fst (Generators.now_cab ()));
    ]

let test_reference_presets () =
  List.iter
    (fun (name, why) ->
      let g, depth = preset name in
      ignore (check_fabric ~why ~what:name ?depth g ~mapper:(first_host g)))
    [ ("ft-100", true); ("levels=2,radix=32,edge=2,hosts=8", true);
      ("levels=3,radix=32,edge=4,hosts=16", false) ]

let test_reference_ft1k () =
  let g, depth = preset "ft-1k" in
  ignore (check_fabric ~why:false ~what:"ft-1k" ?depth g ~mapper:(first_host g))

(* Above radix 32 a switch has more than 63 slots and its masks take
   two words each. The edge switches here wire all 48 ports, so the
   root switch's own exploration (entry port 0) wires slots past 15,
   which live in the second word. *)
let test_reference_radix48 () =
  let g, depth = preset "levels=2,radix=48,edge=2,hosts=24" in
  Alcotest.(check int) "radix" 48 (Graph.radix g);
  let mapper = first_host g in
  let depth = Option.value depth ~default:(Core_set.search_depth g ~root:mapper) in
  let events, _ = record g ~mapper ~depth in
  Alcotest.(check bool) "a root-switch slot in the second mask word is wired" true
    (List.exists (function Found ([ t ], _) -> t >= 16 | _ -> false) events);
  let map, _ = check_fabric ~what:"radix 48" ~depth g ~mapper in
  match Iso.check ~map ~actual:g ~exclude:(Core_set.separated_set g) () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "radix-48 map is not N - F: %s" e

let test_reference_fuzz () =
  let cases = ref 0 in
  for seed = 0 to 299 do
    let case = San_check.Fuzz_gen.gen ~seed:(seed * 7919) in
    let g = case.San_check.Fuzz_gen.graph in
    let silent = case.San_check.Fuzz_gen.silent in
    let responding h = not (List.mem (Graph.name g h) silent) in
    match San_check.Fuzz_gen.mapper_node case with
    | Some mapper when Graph.neighbor g (mapper, 0) <> None ->
      incr cases;
      ignore
        (check_fabric ~responding ~what:(Printf.sprintf "fuzz case %d" seed) g ~mapper)
    | _ -> ()
  done;
  Alcotest.(check bool) "most cases mapped" true (!cases >= 250)

(* ---------- allocation pins ---------- *)

(* A model with merged classes, every vertex then queued again: none
   has a dirty slot, so draining the mergelist allocates nothing. *)
let test_merge_loop_alloc () =
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  let v1 = Model.add_switch_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] in
  let v2 = Model.add_switch_vertex m ~parent:s ~turn:2 ~rev_probe:[ 2 ] in
  ignore (Model.add_host_vertex m ~parent:v1 ~turn:1 ~rev_probe:[ 1; 1 ] ~name:"hx");
  ignore (Model.add_host_vertex m ~parent:v2 ~turn:3 ~rev_probe:[ 3; 2 ] ~name:"hx");
  Alcotest.(check int) "replicates merged" (Model.canonical m v1) (Model.canonical m v2);
  for _ = 1 to 100 do
    for v = 0 to Model.created_vertices m - 1 do
      Model.enqueue m v
    done
  done;
  Alcotest.(check (float 0.0))
    "words allocated" 0.0
    (Alloc.words (fun () -> Model.run_merge_loop m));
  check_inv m

(* A radix-4 switch whose offset is pinned and whose four ports are all
   wired: no turn is open. Exploring it again and again sends no probe
   and allocates nothing between one exploration's end and the next. *)
let test_closed_exploration_alloc () =
  let m = Model.create ~mapper_name:"root" ~radix:4 in
  let s = Model.root_switch m in
  ignore (Model.add_switch_vertex m ~parent:s ~turn:3 ~rev_probe:[ 3 ]);
  ignore (Model.add_host_vertex m ~parent:s ~turn:1 ~rev_probe:[ 1 ] ~name:"a");
  ignore (Model.add_host_vertex m ~parent:s ~turn:2 ~rev_probe:[ 2 ] ~name:"b");
  Alcotest.(check (pair int int)) "offset pinned" (0, 0) (Model.offset_window m s);
  Alcotest.(check bool) "no open turn" false (Model.has_open_turn m s ~shift:0);
  let probes = ref 0 in
  let never ~turns:_ =
    incr probes;
    (Network.Nothing, 0.0)
  in
  let sv =
    { Berkeley.sv_radix = 4; sv_host_probe = never; sv_switch_probe = never }
  in
  let n = 50 in
  let stamps = Array.make n 0.0 and k = ref 0 in
  let tick ~probes:_ ~frontier:_ =
    stamps.(!k) <- Alloc.counter ();
    incr k
  in
  let explorations, _, _ =
    Berkeley.explore_service ~tick ~policy:Berkeley.faithful ~depth_used:5
      ~record_trace:false sv m (List.init n (fun _ -> s))
  in
  Alcotest.(check int) "explorations" n explorations;
  Alcotest.(check int) "no probe" 0 !probes;
  for i = 1 to n - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "words in exploration %d" i)
      0.0
      (stamps.(i) -. stamps.(i - 1))
  done

(* 10,000 switch vertices in a chain, each child under the last: no
   slot is wired twice, so no merge fires. Each vertex holds two slots,
   its parent's cable and its child's, as a replicate in a wavefront
   does. The routes are built first, so what is counted is the model's
   own storage: its int columns, which grow by fixed chunks, and the
   route column, 140,265 words in all. *)
let test_chain_alloc () =
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let n = 10_000 in
  let routes = Array.make (n + 1) [] in
  for i = 1 to n do
    routes.(i) <- 1 :: routes.(i - 1)
  done;
  let last = ref (Model.root_switch m) in
  let words =
    Alloc.words (fun () ->
        for i = 1 to n do
          last := Model.add_switch_vertex m ~parent:!last ~turn:1 ~rev_probe:routes.(i)
        done)
  in
  Alcotest.(check int) "no merge" (n + 2) (Model.live_vertices m);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words, under 15 per vertex" words)
    true
    (words < 15.0 *. float_of_int n);
  Alcotest.(check (list int)) "the last route" (List.init n (fun _ -> 1))
    (Model.probe_string m !last);
  check_inv m

let test_open_turn () =
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  (* A fresh class: only its entry slot is wired. *)
  Alcotest.(check bool) "fresh switch open" true (Model.has_open_turn m s ~shift:0);
  ignore (Model.add_switch_vertex m ~parent:s ~turn:7 ~rev_probe:[ 7 ]);
  (* Offset 0: slots 1..6 open, negative ones illegal. *)
  Alcotest.(check bool) "pinned, six open" true (Model.has_open_turn m s ~shift:0);
  for t = 1 to 6 do
    ignore
      (Model.add_host_vertex m ~parent:s ~turn:t ~rev_probe:[ t ]
         ~name:(Printf.sprintf "h%d" t))
  done;
  Alcotest.(check bool) "all wired" false (Model.has_open_turn m s ~shift:0);
  (* From a member at shift 7 the turns address slots 0..14: only
     7..14 lie beyond the window, 0..6 are wired, and slot 7 is turn
     0. *)
  Alcotest.(check bool) "shifted member" false (Model.has_open_turn m s ~shift:7);
  (* Slots 0..6 wired, offset 0 or 1: slots -1 and 7 are vacant and
     admitted. From shift 7 the only one a turn reaches, 7, is turn
     0's. *)
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  ignore (Model.add_switch_vertex m ~parent:s ~turn:6 ~rev_probe:[ 6 ]);
  for t = 1 to 5 do
    ignore
      (Model.add_host_vertex m ~parent:s ~turn:t ~rev_probe:[ t ]
         ~name:(Printf.sprintf "h%d" t))
  done;
  Alcotest.(check (pair int int)) "offset 0 or 1" (0, 1) (Model.offset_window m s);
  Alcotest.(check bool) "slot 7 from shift 0" true (Model.has_open_turn m s ~shift:0);
  Alcotest.(check bool) "slot 7 is turn 0 at shift 7" false
    (Model.has_open_turn m s ~shift:7);
  Alcotest.(check bool) "slot -1 from shift -6" true
    (Model.has_open_turn m s ~shift:(-6));
  (* Offset pinned to 1 (slots -1 and 6 wired): slots -1..6 admitted,
     all wired but 5. From shift -2 the turns reach -1..5, so the one
     open slot is the top of the range. *)
  let m = Model.create ~mapper_name:"root" ~radix:8 in
  let s = Model.root_switch m in
  ignore (Model.add_switch_vertex m ~parent:s ~turn:6 ~rev_probe:[ 6 ]);
  List.iter
    (fun t ->
      ignore
        (Model.add_host_vertex m ~parent:s ~turn:t ~rev_probe:[ t ]
           ~name:(Printf.sprintf "h%d" t)))
    [ -1; 1; 2; 3; 4 ];
  Alcotest.(check (pair int int)) "offset 1" (1, 1) (Model.offset_window m s);
  Alcotest.(check bool) "top of the range open" true
    (Model.has_open_turn m s ~shift:(-2));
  ignore (Model.add_host_vertex m ~parent:s ~turn:5 ~rev_probe:[ 5 ] ~name:"h5");
  Alcotest.(check bool) "then closed" false (Model.has_open_turn m s ~shift:(-2));
  (* A class still at its one entry slot, radix 2: from shift 1 the
     turns reach slots 0 (wired) and 2 (beyond the window). *)
  let m = Model.create ~mapper_name:"root" ~radix:2 in
  let s = Model.root_switch m in
  Alcotest.(check bool) "radix 2, shift 0" true (Model.has_open_turn m s ~shift:0);
  Alcotest.(check bool) "radix 2, shift 1" false (Model.has_open_turn m s ~shift:1);
  Alcotest.(check bool) "radix 2, shift -1" false
    (Model.has_open_turn m s ~shift:(-1));
  (* Radix 32 uses bit 62 of the mask word; radix 33 a second word. *)
  List.iter
    (fun radix ->
      let m = Model.create ~mapper_name:"root" ~radix in
      let s = Model.root_switch m in
      let r1 = radix - 1 in
      ignore (Model.add_switch_vertex m ~parent:s ~turn:r1 ~rev_probe:[ r1 ]);
      Alcotest.(check bool) "top slot wired" true (Model.slot_occupied m s r1);
      for t = 1 to r1 - 1 do
        ignore
          (Model.add_host_vertex m ~parent:s ~turn:t ~rev_probe:[ t ]
             ~name:(Printf.sprintf "h%d" t))
      done;
      Alcotest.(check bool) (Printf.sprintf "radix %d closed" radix) false
        (Model.has_open_turn m s ~shift:0);
      check_inv m)
    [ 32; 33; 48 ]

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
      ( "probe_order",
        [
          Alcotest.test_case "heuristics" `Quick test_probe_order;
          Alcotest.test_case "open turns" `Quick test_open_turn;
        ] );
      ( "reference",
        [
          Alcotest.test_case "NOW presets, both collision models" `Quick
            test_reference_now;
          Alcotest.test_case "ft-100 and radix 32" `Quick test_reference_presets;
          Alcotest.test_case "radix 48" `Quick test_reference_radix48;
          Alcotest.test_case "fuzz campaign" `Quick test_reference_fuzz;
          Alcotest.test_case "ft-1k seed 1" `Slow test_reference_ft1k;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "merge loop without dirty slots" `Quick
            test_merge_loop_alloc;
          Alcotest.test_case "exploration without open turns" `Quick
            test_closed_exploration_alloc;
          Alcotest.test_case "a chain of vertices without merges" `Quick
            test_chain_alloc;
        ] );
    ]
