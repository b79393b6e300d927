open San_topology
open San_service
module D = San_routing.Distribute

(* ---------- world ---------- *)

let test_world_kill_revive () =
  let g, _ = Generators.now_c () in
  let w = World.create g in
  let h = List.hd (Graph.hosts (World.graph w)) in
  let name = Graph.name (World.graph w) h in
  Alcotest.(check bool) "initially responding" true (World.responding w h);
  World.kill_host w name;
  Alcotest.(check bool) "down after kill" true (World.is_down w name);
  Alcotest.(check bool) "silent to probes" false (World.responding w h);
  Alcotest.(check bool) "switches always respond" true
    (World.responding w (List.hd (Graph.switches (World.graph w))));
  World.revive_host w name;
  Alcotest.(check bool) "answers again" true (World.responding w h)

let test_world_deferred_repair () =
  let g, _ = Generators.now_c () in
  let w = World.create g in
  let wires = Graph.num_wires (World.graph w) in
  World.defer w ~at_epoch:3 ~label:"noop repair" (fun g -> g);
  Alcotest.(check (list string)) "not due yet" [] (World.due_repairs w ~epoch:2);
  Alcotest.(check (list string)) "due at 3" [ "noop repair" ]
    (World.due_repairs w ~epoch:3);
  Alcotest.(check (list string)) "applied once" [] (World.due_repairs w ~epoch:3);
  Alcotest.(check int) "wiring untouched by noop" wires
    (Graph.num_wires (World.graph w))

(* ---------- schedule ---------- *)

let test_schedule_parse () =
  match Schedule.parse "2:cut,4:flap=3,6:isolate,8:kill-leader,9:revive=C-h4" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check int) "last epoch" 9 (Schedule.last_epoch s);
    Alcotest.(check bool) "cut at 2" true
      (Schedule.actions_at s 2 = [ Schedule.Cut_links 1 ]);
    Alcotest.(check bool) "flap at 4" true
      (Schedule.actions_at s 4 = [ Schedule.Flap_link 3 ]);
    Alcotest.(check bool) "nothing at 5" true (Schedule.actions_at s 5 = []);
    Alcotest.(check bool) "kill-leader at 8" true
      (Schedule.actions_at s 8 = [ Schedule.Kill_leader ]);
    Alcotest.(check bool) "revive at 9" true
      (Schedule.actions_at s 9 = [ Schedule.Revive_host "C-h4" ])

let test_schedule_parse_rejects () =
  List.iter
    (fun s ->
      match Schedule.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed schedule %S" s)
    [ "nonsense"; "1:warp"; "x:cut"; "1:cut=many"; "-1:cut" ]

let test_schedule_empty () =
  match Schedule.parse "" with
  | Ok s -> Alcotest.(check int) "empty schedule" (-1) (Schedule.last_epoch s)
  | Error e -> Alcotest.fail e

(* ---------- delta planning ---------- *)

let table_of g = San_routing.Routes.compute g

let test_delta_cold_ledger_ships_full () =
  let g, _ = Generators.now_c () in
  let table = table_of g in
  let p = Delta.plan ~installed:Delta.empty table in
  Alcotest.(check int) "one slice per host" (Graph.num_hosts g)
    (List.length p.Delta.slices);
  List.iter
    (fun (s : Delta.slice) ->
      Alcotest.(check bool) ("cold slice is full: " ^ s.Delta.owner) true
        (s.Delta.kind = Delta.Full))
    p.Delta.slices;
  Alcotest.(check int) "delta cost equals full cost" p.Delta.full_bytes
    p.Delta.delta_bytes;
  Alcotest.(check int) "nothing unchanged" 0 p.Delta.unchanged_hosts

let test_delta_identical_table_ships_nothing () =
  let g, _ = Generators.now_c () in
  let table = table_of g in
  let p = Delta.plan ~installed:(Delta.of_routes table) table in
  Alcotest.(check int) "every host unchanged" (Graph.num_hosts g)
    p.Delta.unchanged_hosts;
  Alcotest.(check int) "no bytes to ship" 0 p.Delta.delta_bytes

let test_delta_distribute_advances_ledger () =
  let g, _ = Generators.now_c () in
  let table = table_of g in
  let leader = Option.get (Graph.host_by_name g "C-util") in
  match Delta.distribute ~installed:Delta.empty table ~actual:g ~leader with
  | Error e -> Alcotest.fail e
  | Ok rep ->
    Alcotest.(check int) "all slices land" 0 rep.Delta.dist.D.hosts_missed;
    Alcotest.(check bool) "cold start ships real bytes" true
      (rep.Delta.sent_bytes > 0);
    (* a second distribution of the same table has nothing to say *)
    let p = Delta.plan ~installed:rep.Delta.installed table in
    Alcotest.(check int) "ledger now current" (Graph.num_hosts g)
      p.Delta.unchanged_hosts

(* ---------- the dense planner against the Smap reference ---------- *)

module Ref = Delta_reference

(* One epoch through both planners on one input: every slice (owner,
   kind, bytes, full bytes), the plan totals, the pooled
   redistribution figure, the report and [entries_for] on every host
   of the advanced ledger must agree. Returns both advanced ledgers,
   for the next epoch. *)
let agree what (mine, theirs) table ~actual ~leader =
  let p = Delta.plan ~installed:mine table
  and rp = Ref.plan ~installed:theirs table in
  Alcotest.(check int) (what ^ ": packed full bytes")
    (Ref.packed_full_bytes table) (Delta.packed_full_bytes table);
  Alcotest.(check int) (what ^ ": slices") (List.length rp.Delta.slices)
    (List.length p.Delta.slices);
  List.iter2
    (fun (s : Delta.slice) (r : Delta.slice) ->
      if s <> r then Alcotest.failf "%s: slice of %s differs" what r.Delta.owner)
    p.Delta.slices rp.Delta.slices;
  Alcotest.(check bool) (what ^ ": plan totals") true (p = rp);
  match
    ( Delta.distribute ~installed:mine table ~actual ~leader,
      Ref.distribute ~installed:theirs table ~actual ~leader )
  with
  | Error e, Error e' ->
    Alcotest.(check string) (what ^ ": same refusal") e' e;
    (mine, theirs)
  | Ok r, Ok r' ->
    Alcotest.(check bool) (what ^ ": distributed plan") true
      (r.Delta.plan = r'.Ref.plan);
    Alcotest.(check bool) (what ^ ": delivery") true (r.Delta.dist = r'.Ref.dist);
    Alcotest.(check int) (what ^ ": sent bytes") r'.Ref.sent_bytes
      r.Delta.sent_bytes;
    Alcotest.(check int) (what ^ ": full sent bytes") r'.Ref.full_sent_bytes
      r.Delta.full_sent_bytes;
    let hosts = Ref.hosts r'.Ref.installed in
    Alcotest.(check (list string)) (what ^ ": ledger hosts") hosts
      (Delta.hosts r.Delta.installed);
    List.iter
      (fun h ->
        if
          Delta.entries_for r.Delta.installed h
          <> Ref.entries_for r'.Ref.installed h
        then Alcotest.failf "%s: ledger row of %s differs" what h)
      hosts;
    (r.Delta.installed, r'.Ref.installed)
  | Ok _, Error e -> Alcotest.failf "%s: only the reference failed: %s" what e
  | Error e, Ok _ -> Alcotest.failf "%s: only the dense planner failed: %s" what e

let cold = (Delta.empty, Ref.empty)
let last_host g = List.hd (List.rev (Graph.hosts g))

(* Cold start, the same table again, then the table after cutting the
   [k]-th wire (modulo the wire count), compiled from scratch and
   against the previous table (whose plan reads only the changed
   pairs). *)
let cut_chain what g ~k =
  let leader = last_host g in
  let table = table_of g in
  let l = agree (what ^ " cold") cold table ~actual:g ~leader in
  let l = agree (what ^ " again") l table ~actual:g ~leader in
  let wires = Graph.wires g in
  if wires <> [] then begin
    let e = fst (List.nth wires (k mod List.length wires)) in
    let g' = Faults.remove_link g e in
    List.iter
      (fun (how, table') ->
        ignore (agree (what ^ " cut" ^ how) l table' ~actual:g' ~leader);
        (* against a ledger built whole by [of_routes] *)
        ignore
          (agree (what ^ " cut" ^ how ^ ", whole ledger")
             (Delta.of_routes table, Ref.of_routes table)
             table' ~actual:g' ~leader))
      [
        ("", table_of g');
        (" against the previous table", San_routing.Routes.compute ~previous:table g');
      ]
  end

let fabric spec ~seed =
  match San_fabric.Fabric.parse spec with
  | Ok p -> p.San_fabric.Fabric.p_build ~seed
  | Error e -> Alcotest.fail e

let test_delta_reference_presets () =
  List.iter
    (fun (what, g) -> cut_chain what g ~k:7)
    [
      ("now-c", fst (Generators.now_c ()));
      ("now-ca", fst (Generators.now_ca ()));
      ("now-cab", fst (Generators.now_cab ()));
      ("ft-100", fabric "ft-100" ~seed:1);
    ]

(* The converge-ft400 incident's two epochs: the cold world, then the
   world after the schedule's seeded cut, with the daemon's leader
   rule (highest-address responding host), and the leader's name. *)
let converge_epochs seed =
  let schedule = Result.get_ok (Schedule.parse "1:cut") in
  let world = World.create (fabric "levels=3,radix=16,edge=50,hosts=8" ~seed) in
  let rng = San_util.Prng.create seed in
  ignore (Schedule.apply schedule world ~rng ~leader:"" ~epoch:0);
  let g0 = World.graph world in
  let leader_name = Graph.name g0 (last_host g0) in
  ignore (Schedule.apply schedule world ~rng ~leader:leader_name ~epoch:1);
  (g0, World.graph world, leader_name)

let test_delta_reference_converge () =
  List.iter
    (fun seed ->
      let g0, g1, leader_name = converge_epochs seed in
      let l =
        agree
          (Printf.sprintf "converge seed %d epoch 0" seed)
          cold (table_of g0) ~actual:g0 ~leader:(last_host g0)
      in
      ignore
        (agree
           (Printf.sprintf "converge seed %d epoch 1" seed)
           l (table_of g1) ~actual:g1
           ~leader:(Option.get (Graph.host_by_name g1 leader_name))))
    (List.init 10 succ)

(* The daemon's path through the incident: epoch 1's table compiled
   against epoch 0's, planned from its changed pairs; then the same
   table again. *)
let test_delta_reference_converge_changed () =
  List.iter
    (fun seed ->
      let what = Printf.sprintf "converge seed %d" seed in
      let g0, g1, leader_name = converge_epochs seed in
      let t0 = table_of g0 in
      let l = agree (what ^ " epoch 0") cold t0 ~actual:g0 ~leader:(last_host g0) in
      let t1 = San_routing.Routes.compute ~previous:t0 g1 in
      let leader = Option.get (Graph.host_by_name g1 leader_name) in
      let l = agree (what ^ " epoch 1") l t1 ~actual:g1 ~leader in
      ignore (agree (what ^ " epoch 1 again") l t1 ~actual:g1 ~leader))
    (List.init 10 succ)

(* [g] rebuilt with each host renamed by [rename], or dropped where it
   gives [None]: the map after hosts left or were replaced. *)
let rehost g rename =
  let g' = Graph.create ~radix:(Graph.radix g) () in
  let ids =
    Array.of_list
      (List.map
         (fun n ->
           if Graph.is_host g n then
             match rename (Graph.name g n) with
             | Some name -> Graph.add_host g' ~name
             | None -> -1
           else Graph.add_switch g' ~name:(Graph.name g n) ())
         (Graph.nodes g))
  in
  List.iter
    (fun ((a, pa), (b, pb)) ->
      if ids.(a) >= 0 && ids.(b) >= 0 then Graph.connect g' (ids.(a), pa) (ids.(b), pb))
    (Graph.wires g);
  g'

(* [table_of], or, when [chained], each table compiled against the one
   before it. *)
let tables ~chained =
  let last = ref None in
  fun g ->
    let t =
      if chained then San_routing.Routes.compute ?previous:!last g else table_of g
    in
    last := Some t;
    t

(* A host leaves the map, comes back, then is replaced by a host of
   another name: its tombstones, and rows of other table generations
   (the departed host's own row, missed rows, rows over a names array
   of the same length but other names) that must be merge-walked by
   name against the fresh table. *)
let departure ~chained () =
  let table_of = tables ~chained in
  let g, _ = Generators.now_ca () in
  let leader = last_host g in
  let gone = Graph.name g (List.hd (Graph.hosts g)) in
  let g' = rehost g (fun n -> if n = gone then None else Some n) in
  let leader' = Option.get (Graph.host_by_name g' (Graph.name g leader)) in
  let l = agree "before" cold (table_of g) ~actual:g ~leader in
  let departed = table_of g' in
  Alcotest.(check bool) "every other row tombstones the departed host" true
    (List.for_all
       (fun (s : Delta.slice) ->
         match s.Delta.kind with
         | Delta.Delta { removed; _ } -> removed = 1
         | Delta.Unchanged | Delta.Full -> false)
       (Delta.plan ~installed:(fst l) departed).Delta.slices);
  let l = agree "departed" l departed ~actual:g' ~leader:leader' in
  let l = agree "departed again" l (table_of g') ~actual:g' ~leader:leader' in
  let l = agree "returned" l (table_of g) ~actual:g ~leader in
  (* The table still names the departed host but the network lacks it:
     its slice is missed and keeps the row of an older generation. *)
  let l = agree "unreachable" l (table_of g) ~actual:g' ~leader:leader' in
  let l = agree "settled" l (table_of g) ~actual:g ~leader in
  let g'' = rehost g (fun n -> Some (if n = gone then "zz-" ^ n else n)) in
  ignore
    (agree "replaced" l (table_of g'') ~actual:g''
       ~leader:(Option.get (Graph.host_by_name g'' (Graph.name g leader))))

let test_delta_reference_departure = departure ~chained:false

(* A missed slice keeps its old row: three hosts on one switch, the
   ports rewired so every route changes, delivered over a network that
   lacks the third host. *)
let missed ~chained () =
  let table_of = tables ~chained in
  let build ports names =
    let g = Graph.create () in
    let s = Graph.add_switch g ~name:"s" () in
    List.iter2
      (fun p n ->
        let h = Graph.add_host g ~name:n in
        Graph.connect g (h, 0) (s, p))
      ports names;
    g
  in
  let full = build [ 0; 1; 2 ] [ "a"; "b"; "c" ] in
  let rewired = build [ 2; 1; 0 ] [ "a"; "b"; "c" ] in
  let actual = build [ 2; 1 ] [ "a"; "b" ] in
  let leader g = Option.get (Graph.host_by_name g "a") in
  let l = agree "cold" cold (table_of full) ~actual:full ~leader:(leader full) in
  let rewired_table = table_of rewired in
  let l = agree "c missed" l rewired_table ~actual ~leader:(leader actual) in
  (match Delta.entries_for (fst l) "c" with
  | [ ("a", [ -2 ]); ("b", [ -1 ]) ] -> ()
  | _ -> Alcotest.fail "the missed host's row moved");
  ignore (agree "c back" l (table_of rewired) ~actual:rewired ~leader:(leader rewired));
  (* The same table again, as the daemon re-sends a missed slice. *)
  ignore
    (agree "c back, same table" l rewired_table ~actual:rewired
       ~leader:(leader rewired))

let test_delta_reference_missed = missed ~chained:false

(* 300 fuzzer fabrics, each cold, again and after one cut. *)
let test_delta_reference_fuzz () =
  for seed = 1 to 300 do
    let case = San_check.Fuzz_gen.gen ~seed in
    let g = case.San_check.Fuzz_gen.graph in
    if Graph.num_hosts g > 0 then
      cut_chain (Printf.sprintf "fuzz seed %d" seed) g ~k:seed
  done

(* Planning a table against the ledger its own distribution advanced:
   every slice is unchanged and takes its naive size from the
   installed row, so nothing is allocated per entry: about 38 words
   per host (view, counters, slice records), where ft-100 holds 99
   entries per host and one pooled slice alone allocates thousands of
   words. *)
let test_delta_plan_alloc () =
  let g = fabric "ft-100" ~seed:1 in
  let table = table_of g in
  let hosts = Graph.num_hosts g in
  let rep =
    Result.get_ok
      (Delta.distribute ~installed:Delta.empty table ~actual:g ~leader:(last_host g))
  in
  let installed = rep.Delta.installed in
  ignore (Delta.plan ~installed table);
  let w0 = Alloc.counter () in
  let p = Delta.plan ~installed table in
  let words = Alloc.counter () -. w0 in
  Alcotest.(check int) "every slice unchanged" hosts p.Delta.unchanged_hosts;
  let per_host = words /. float_of_int hosts in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per host" per_host)
    true (per_host <= 48.0)

(* The incident's plan: converge-ft400's epoch-1 table (seed 1) over
   the epoch-0 ledger, with changed and unchanged slices alike. The
   scan compares each pair without a closure or a list, and a changed
   slice only re-reads its fresh row, so the plan builds no pool and no
   per-route list: at most 40 words per host (measured 38.1), where
   the host's 399 routes alone would take at least 800 words to copy
   and one pooled slice thousands. *)
let test_delta_incident_alloc () =
  let g0, g1, leader_name = converge_epochs 1 in
  let rep =
    Result.get_ok
      (Delta.distribute ~installed:Delta.empty (table_of g0) ~actual:g0
         ~leader:(Option.get (Graph.host_by_name g0 leader_name)))
  in
  let installed = rep.Delta.installed and table = table_of g1 in
  let w0 = Alloc.counter () in
  let p = Delta.plan ~installed table in
  let words = Alloc.counter () -. w0 in
  let hosts = Graph.num_hosts g1 in
  Alcotest.(check bool) "some slices changed, most did not" true
    (p.Delta.unchanged_hosts > hosts / 2 && p.Delta.unchanged_hosts < hosts);
  let per_host = words /. float_of_int hosts in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per host" per_host)
    true (per_host <= 40.0)

(* ---------- the converge-ft400 incident, pinned ---------- *)

(* The daemon's epoch 1 on converge-ft400 (two epochs, a seeded cut at
   epoch 1), for seeds 1-10: its probes, the incident's simulated
   convergence time, the bytes its distribution shipped and the slices
   it left unchanged. *)
let incident_facts =
  [
    (1, 3752, 777737543.75, 1664, 368);
    (2, 3754, 775966200., 0, 400);
    (3, 3753, 787972456.25, 31520, 328);
    (4, 3752, 774845456.25, 416, 392);
    (5, 3752, 773886200., 0, 400);
    (6, 3752, 811234631.25, 9324, 360);
    (7, 3752, 774854756.25, 1056, 392);
    (8, 3752, 778313400., 0, 400);
    (9, 3752, 816556443.75, 22204, 80);
    (10, 3752, 773890600., 0, 400);
  ]

let test_converge_incident_pinned () =
  let schedule = Result.get_ok (Schedule.parse "1:cut") in
  List.iter
    (fun (seed, probes, converge_ns, delta_bytes, unchanged) ->
      let what = Printf.sprintf "seed %d" seed in
      let g = fabric "levels=3,radix=16,edge=50,hosts=8" ~seed in
      let config = { Daemon.default_config with Daemon.seed } in
      let o = Result.get_ok (Daemon.run ~config ~schedule ~epochs:2 g) in
      let e1 = List.nth o.Daemon.reports 1 in
      let inc =
        match o.Daemon.incidents with
        | [ i ] -> i
        | _ -> Alcotest.failf "%s: expected one incident" what
      in
      let d = Option.get e1.Daemon.dist in
      Alcotest.(check int) (what ^ ": probes") probes e1.Daemon.probes;
      Alcotest.(check (float 0.0)) (what ^ ": converge ns") converge_ns
        inc.Daemon.converge_ns;
      Alcotest.(check int) (what ^ ": delta bytes") delta_bytes
        d.Delta.sent_bytes;
      Alcotest.(check int) (what ^ ": unchanged hosts") unchanged
        d.Delta.plan.Delta.unchanged_hosts)
    incident_facts

(* ---------- the acceptance scenario ---------- *)

(* A scripted link cut on a fixed-seed topology: the daemon must catch
   it with the cheap incremental sweep, remap, and restore full route
   coverage by delta distribution within 2 epochs of detection —
   shipping strictly fewer bytes than a full redistribution would. *)
let test_daemon_converges_after_link_cut () =
  let g, _ = Generators.now_c () in
  let schedule = Result.get_ok (Schedule.parse "2:cut") in
  let o =
    Result.get_ok (Daemon.run ~schedule ~epochs:6 g)
  in
  let report e = List.nth o.Daemon.reports e in
  (* quiet epoch before the fault: verified, no distribution *)
  let r1 = report 1 in
  Alcotest.(check bool) "epoch 1 verified" true (r1.Daemon.verdict = Daemon.Verified);
  Alcotest.(check bool) "epoch 1 ships nothing" true (r1.Daemon.dist = None);
  (* the cut is detected by incremental verify at epoch 2 *)
  let r2 = report 2 in
  (match r2.Daemon.verdict with
  | Daemon.Changed n -> Alcotest.(check bool) "discrepancies seen" true (n > 0)
  | _ -> Alcotest.fail "epoch 2 should detect the cut");
  Alcotest.(check bool) "remap phase entered" true
    (List.mem Daemon.Remapping r2.Daemon.phases);
  (* routes re-installed with hosts_missed = 0 within 2 epochs *)
  let converged =
    List.exists
      (fun (r : Daemon.epoch_report) ->
        r.Daemon.epoch >= 2 && r.Daemon.epoch <= 4
        && r.Daemon.hosts_total > 0
        && r.Daemon.hosts_covered = r.Daemon.hosts_total
        &&
        match r.Daemon.dist with
        | Some d -> d.Delta.dist.D.hosts_missed = 0
        | None -> false)
      o.Daemon.reports
  in
  Alcotest.(check bool) "full coverage within 2 epochs of the fault" true
    converged;
  let inc =
    match o.Daemon.incidents with
    | [ i ] -> i
    | l -> Alcotest.failf "expected exactly one incident, got %d" (List.length l)
  in
  Alcotest.(check int) "detected at epoch 2" 2 inc.Daemon.detected_epoch;
  Alcotest.(check bool) "resolved within 2 epochs" true
    (inc.Daemon.resolved_epoch <= 4);
  Alcotest.(check bool) "convergence time is positive" true
    (inc.Daemon.converge_ns > 0.0);
  (* the localized fault ships strictly fewer bytes than a full
     redistribution of every slice *)
  let d2 = Option.get r2.Daemon.dist in
  Alcotest.(check bool) "delta strictly beats full redistribution" true
    (d2.Delta.sent_bytes < d2.Delta.full_sent_bytes);
  Alcotest.(check bool) "most slices untouched by a single cut" true
    (d2.Delta.plan.Delta.unchanged_hosts > Graph.num_hosts g / 2);
  Alcotest.(check bool) "daemon ends stable" true
    (o.Daemon.final_phase = Daemon.Stable)

let test_daemon_deterministic () =
  let g, _ = Generators.now_c () in
  let schedule = Result.get_ok (Schedule.parse "1:cut,3:flap=2") in
  let run () = Result.get_ok (Daemon.run ~schedule ~epochs:6 g) in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical epoch reports" true
    (a.Daemon.reports = b.Daemon.reports);
  Alcotest.(check bool) "identical incidents" true
    (a.Daemon.incidents = b.Daemon.incidents)

(* Sharded remaps report simulated time only, so seeded sharded runs
   replay exactly too. *)
let test_daemon_sharded_deterministic () =
  let g, _ = Generators.now_c () in
  let schedule = Result.get_ok (Schedule.parse "1:cut") in
  let config = { Daemon.default_config with Daemon.shards = 2 } in
  let run () = Result.get_ok (Daemon.run ~config ~schedule ~epochs:3 g) in
  let a = run () and b = run () in
  Alcotest.(check bool) "remaps ran sharded" true
    (List.exists
       (fun (r : Daemon.epoch_report) -> r.Daemon.remap_ns > 0.0)
       a.Daemon.reports);
  Alcotest.(check bool) "identical epoch reports" true
    (a.Daemon.reports = b.Daemon.reports);
  Alcotest.(check bool) "identical incidents" true
    (a.Daemon.incidents = b.Daemon.incidents)

let test_daemon_reelects_on_leader_death () =
  let g, _ = Generators.now_c () in
  let schedule = Result.get_ok (Schedule.parse "2:kill-leader") in
  let o = Result.get_ok (Daemon.run ~schedule ~epochs:6 g) in
  Alcotest.(check int) "two elections" 2 o.Daemon.elections;
  let r0 = List.nth o.Daemon.reports 0 in
  let r2 = List.nth o.Daemon.reports 2 in
  Alcotest.(check bool) "new leader took over" true
    (r2.Daemon.elected && r2.Daemon.leader <> r0.Daemon.leader);
  Alcotest.(check bool) "still converges" true
    (o.Daemon.final_phase = Daemon.Stable)

let test_daemon_quiet_run_never_redistributes () =
  let g, _ = Generators.now_c () in
  let o = Result.get_ok (Daemon.run ~epochs:5 g) in
  Alcotest.(check int) "one cold-start remap only" 1 o.Daemon.remaps;
  List.iteri
    (fun i (r : Daemon.epoch_report) ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "epoch %d ships nothing" i)
          true (r.Daemon.dist = None))
    o.Daemon.reports

(* The flight directory may be nested and missing: the recorder
   creates it, so a daemon driven into Degraded still leaves a
   recording that the postmortem reader parses. *)
let test_daemon_flight_nested_dir () =
  let dir =
    List.fold_left Filename.concat (Filename.get_temp_dir_name ())
      [ Printf.sprintf "san_service_test_%d" (Unix.getpid ()); "flights"; "star" ]
  in
  Alcotest.(check bool) "directory starts missing" false (Sys.file_exists dir);
  let g = Generators.star ~leaves:3 () in
  let schedule =
    Result.get_ok (Schedule.parse "2:kill-leader,3:kill-leader,4:kill-leader")
  in
  let config = { Daemon.default_config with Daemon.flight_dir = Some dir } in
  San_obs.Obs.set_enabled true;
  San_obs.Obs.reset ();
  let o =
    Fun.protect
      ~finally:(fun () -> San_obs.Obs.set_enabled false)
      (fun () -> Result.get_ok (Daemon.run ~config ~schedule ~epochs:6 g))
  in
  Alcotest.(check bool) "parked degraded" true
    (o.Daemon.final_phase = Daemon.Degraded);
  let flights =
    List.filter
      (fun f -> f <> "flight-final.jsonl")
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check bool) "a degraded-transition flight exists" true
    (flights <> []);
  match San_why.Postmortem.read (Filename.concat dir (List.hd flights)) with
  | Error e -> Alcotest.fail e
  | Ok pm ->
    Alcotest.(check bool) "the timeline reaches degraded" true
      (List.exists
         (fun l -> Astring.String.is_infix ~affix:"-> degraded" l)
         (San_why.Postmortem.timeline pm))

let test_daemon_rejects_hostless_net () =
  let g = Graph.create () in
  ignore (Graph.add_switch g ());
  match Daemon.run ~epochs:1 g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a network with no hosts cannot be daemonized"

let () =
  Alcotest.run "san_service"
    [
      ( "world",
        [
          Alcotest.test_case "kill and revive" `Quick test_world_kill_revive;
          Alcotest.test_case "deferred repair" `Quick test_world_deferred_repair;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "parse" `Quick test_schedule_parse;
          Alcotest.test_case "rejects garbage" `Quick test_schedule_parse_rejects;
          Alcotest.test_case "empty" `Quick test_schedule_empty;
        ] );
      ( "delta",
        [
          Alcotest.test_case "cold ledger ships full" `Quick
            test_delta_cold_ledger_ships_full;
          Alcotest.test_case "identical table ships nothing" `Quick
            test_delta_identical_table_ships_nothing;
          Alcotest.test_case "distribute advances ledger" `Quick
            test_delta_distribute_advances_ledger;
        ] );
      ( "delta reference",
        [
          Alcotest.test_case "NOW presets and ft-100 with a cut" `Quick
            test_delta_reference_presets;
          Alcotest.test_case "converge-ft400 epochs 0-1, seeds 1-10" `Slow
            test_delta_reference_converge;
          Alcotest.test_case "a host leaves, returns, is replaced" `Quick
            test_delta_reference_departure;
          Alcotest.test_case "a missed slice keeps its row" `Quick
            test_delta_reference_missed;
          Alcotest.test_case "converge-ft400 epoch 1 from its changed pairs"
            `Slow test_delta_reference_converge_changed;
          Alcotest.test_case "departures, tables compiled against the last"
            `Quick (departure ~chained:true);
          Alcotest.test_case "a missed slice, tables compiled against the last"
            `Quick (missed ~chained:true);
          Alcotest.test_case "fuzz campaign" `Quick test_delta_reference_fuzz;
          Alcotest.test_case "replanning allocates per host only" `Quick
            test_delta_plan_alloc;
          Alcotest.test_case "the incident's plan builds no pool or list" `Slow
            test_delta_incident_alloc;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "converge-ft400 incident, seeds 1-10" `Slow
            test_converge_incident_pinned;
          Alcotest.test_case "converges after link cut" `Quick
            test_daemon_converges_after_link_cut;
          Alcotest.test_case "deterministic" `Quick test_daemon_deterministic;
          Alcotest.test_case "sharded deterministic" `Quick
            test_daemon_sharded_deterministic;
          Alcotest.test_case "re-elects on leader death" `Quick
            test_daemon_reelects_on_leader_death;
          Alcotest.test_case "quiet run" `Quick
            test_daemon_quiet_run_never_redistributes;
          Alcotest.test_case "flight recording in a nested missing directory"
            `Quick test_daemon_flight_nested_dir;
          Alcotest.test_case "rejects hostless net" `Quick
            test_daemon_rejects_hostless_net;
        ] );
    ]
