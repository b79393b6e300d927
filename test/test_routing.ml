open San_topology
open San_routing

let qcheck t = QCheck_alcotest.to_alcotest t

(* ---------- orientation ---------- *)

let test_updown_root_selection () =
  let g, _ = Generators.now_c () in
  let util = Option.get (Graph.host_by_name g "C-util") in
  let ud = Updown.build ~ignore_hosts:[ util ] g in
  let name = Graph.name g (Updown.root ud) in
  Alcotest.(check bool) ("root is a C root, got " ^ name) true
    (String.length name >= 6 && String.sub name 0 6 = "C-root");
  Alcotest.(check int) "root label 0" 0 (Updown.label ud (Updown.root ud))

let test_updown_direction () =
  let g = Generators.star ~leaves:2 () in
  let hub = List.hd (Graph.switches g) in
  let ud = Updown.build ~root:hub g in
  let leaf = List.nth (Graph.switches g) 1 in
  Alcotest.(check bool) "towards root is up" true (Updown.is_up ud leaf hub);
  Alcotest.(check bool) "away from root is down" false (Updown.is_up ud hub leaf)

let test_legal_turns () =
  let g = Generators.star ~leaves:3 () in
  let hub = List.hd (Graph.switches g) in
  let ud = Updown.build ~root:hub g in
  let l0 = List.nth (Graph.switches g) 1 in
  let l1 = List.nth (Graph.switches g) 2 in
  Alcotest.(check bool) "up then down legal" true (Updown.legal_turn ud l0 hub l1);
  let h0 = Option.get (Graph.host_by_name g "h0") in
  let h1 = Option.get (Graph.host_by_name g "h1") in
  (* h0 - l0 - hub - l1 - h1 is up, up, down, down. *)
  Alcotest.(check bool) "full path valid" true
    (Updown.valid_path ud [ h0; l0; hub; l1; h1 ]);
  (* A down-then-up zigzag is rejected. *)
  Alcotest.(check bool) "down-up rejected" false
    (Updown.valid_path ud [ hub; l0; hub ])

let test_dominant_relabelling () =
  (* A 4-cycle of switches; only a hostless switch can be locally
     dominant (an attached host is always below its switch). Rooting
     at s0 makes the hostless antipode s2 a local maximum. *)
  let g = Graph.create () in
  let s = Array.init 4 (fun i -> Graph.add_switch g ~name:(Printf.sprintf "s%d" i) ()) in
  for i = 0 to 3 do
    Graph.connect g (s.(i), 0) (s.((i + 1) mod 4), 1)
  done;
  let h0 = Graph.add_host g ~name:"h0" in
  let h1 = Graph.add_host g ~name:"h1" in
  Graph.connect g (h0, 0) (s.(0), 2);
  Graph.connect g (h1, 0) (s.(1), 2);
  let ud = Updown.build ~root:s.(0) g in
  Alcotest.(check (list int)) "the hostless antipode relabelled" [ s.(2) ]
    (Updown.relabeled ud);
  Alcotest.(check bool) "relabelled below neighbours" true
    (Updown.label ud s.(2) < Updown.label ud s.(1));
  (* After relabelling it is transitable: all host pairs route. *)
  let table = Routes.compute ~root:s.(0) g in
  Alcotest.(check int) "no unreachable pairs" 0
    (List.length (Routes.unreachable_pairs table));
  Alcotest.(check bool) "still deadlock-free" true
    (Result.is_ok (Deadlock.check_routes table))

(* ---------- paths ---------- *)

let test_paths_distances () =
  let g = Generators.star ~leaves:2 () in
  let hub = List.hd (Graph.switches g) in
  let ud = Updown.build ~root:hub g in
  let pt = Paths.compute ud in
  let h0 = Option.get (Graph.host_by_name g "h0") in
  let h1 = Option.get (Graph.host_by_name g "h1") in
  Alcotest.(check (option int)) "h0 -> h1 distance" (Some 4)
    (Paths.distance pt ~src:h0 ~dst:h1);
  match Paths.node_path pt ~src:h0 ~dst:h1 with
  | Some path ->
    Alcotest.(check int) "path nodes" 5 (List.length path);
    Alcotest.(check bool) "compliant" true (Updown.valid_path ud path)
  | None -> Alcotest.fail "no path"

(* ---------- route tables ---------- *)

let full_check ?rng name g =
  let table = Routes.compute ?rng g in
  (match Routes.verify_delivery table with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s delivery: %s" name e);
  (match Routes.verify_updown table with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s compliance: %s" name e);
  (match Deadlock.check_routes table with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s deadlock: %s" name e);
  let hosts = Graph.num_hosts g in
  let st = Routes.length_stats table in
  Alcotest.(check int) (name ^ " all pairs routed") (hosts * (hosts - 1))
    st.Routes.pairs;
  table

let test_routes_now () = ignore (full_check "NOW" (fst (Generators.now_cab ())))

let test_routes_classics () =
  ignore (full_check "hypercube" (Generators.hypercube ~dim:4 ()));
  ignore (full_check "torus" (Generators.torus ~rows:3 ~cols:3 ()));
  ignore (full_check "mesh" (Generators.mesh ~rows:4 ~cols:2 ()));
  ignore (full_check "chain" (Generators.chain ~switches:3 ()))

let test_routes_deterministic_without_rng () =
  let g, _ = Generators.now_c () in
  let t1 = Routes.compute g and t2 = Routes.compute g in
  Alcotest.(check bool) "same tables" true (Routes.all t1 = Routes.all t2)

let test_load_balance_spreads () =
  (* Parallel wires between two switches: with rng, both should carry
     routes. *)
  let g = Graph.create () in
  let s0 = Graph.add_switch g () in
  let s1 = Graph.add_switch g () in
  Graph.connect g (s0, 0) (s1, 0);
  Graph.connect g (s0, 1) (s1, 1);
  for i = 0 to 2 do
    let h = Graph.add_host g ~name:(Printf.sprintf "a%d" i) in
    Graph.connect g (h, 0) (s0, 2 + i)
  done;
  for i = 0 to 2 do
    let h = Graph.add_host g ~name:(Printf.sprintf "b%d" i) in
    Graph.connect g (h, 0) (s1, 2 + i)
  done;
  let rng = San_util.Prng.create 8 in
  let table = Routes.compute ~rng g in
  let loads = Routes.channel_loads table in
  let used_parallel =
    List.filter (fun ((n, p), _) -> n = s0 && (p = 0 || p = 1)) loads
  in
  Alcotest.(check int) "both parallel channels used" 2
    (List.length used_parallel);
  ignore (full_check ~rng "parallel" g)

let test_channel_loads_congestion () =
  (* UP*/DOWN* concentrates traffic near the root (the paper's noted
     effect): the hottest channel must touch a root-side switch. *)
  let g, _ = Generators.now_c () in
  let table = Routes.compute g in
  match Routes.channel_loads table with
  | ((n, _), load) :: _ ->
    Alcotest.(check bool) "hot channel is switch-side" true (not (Graph.is_host g n));
    Alcotest.(check bool) "meaningful load" true (load > 10)
  | [] -> Alcotest.fail "no loads"

let test_channel_loads_tie_order () =
  (* Every channel of a 3-leaf star carries exactly two routes, so the
     order is decided by the tie-break alone: wire end ascending. *)
  let g = Generators.star ~leaves:3 () in
  Alcotest.(check (list (pair (pair int int) int))) "ties by wire end"
    [
      ((0, 0), 2); ((0, 1), 2); ((0, 2), 2); ((1, 0), 2); ((1, 1), 2);
      ((2, 0), 2); ((3, 0), 2); ((3, 1), 2); ((4, 0), 2); ((5, 0), 2);
      ((5, 1), 2); ((6, 0), 2);
    ]
    (Routes.channel_loads (Routes.compute g));
  (* Mixed loads: heaviest first, ties still by wire end. *)
  let g, _ = Generators.now_c () in
  let loads = Routes.channel_loads (Routes.compute g) in
  Alcotest.(check bool) "load descending, then wire end" true
    (loads = List.sort (fun (w, a) (w', b) -> compare (b, w) (a, w')) loads)

(* ---------- golden tables ---------- *)

let table_digest table =
  Routes.all table
  |> List.map (fun (src, dst, turns) ->
         Printf.sprintf "%d %d %s\n" src dst
           (String.concat "," (List.map string_of_int turns)))
  |> String.concat "" |> Digest.string |> Digest.to_hex

let test_golden_tables () =
  (* MD5 of every route, pinned for the default, penalty-steered and
     randomized compilers so a change to path or wire selection shows
     up as a changed table. *)
  let prefer u v = float_of_int (((u * 31) + (v * 17)) mod 7) in
  List.iter
    (fun (spec, default, preferred, random) ->
      let g =
        match San_fabric.Fabric.parse spec with
        | Ok p -> p.San_fabric.Fabric.p_build ~seed:1
        | Error e -> Alcotest.fail e
      in
      let check mode want table =
        Alcotest.(check string) (spec ^ " " ^ mode) want (table_digest table)
      in
      check "default" default (Routes.compute g);
      check "prefer" preferred (Routes.compute ~prefer g);
      check "rng" random (Routes.compute ~rng:(San_util.Prng.create 7) g))
    [
      ( "ft-100",
        "0fb2087b9cde87a9eb258831cf0c9a06",
        "d54fed5e99ea4c634e2e429a47ae75cb",
        "a625381b2357d9e1e821368794c87b52" );
      ( "now-cab",
        "5ea8effaa6fb59c5a4b2774868236963",
        "d0dad6842c848faa3ab9e64095003465",
        "90d2312c4bb516f1a5f9d470a6855638" );
    ]

(* ---------- the int-only order and the exit memo ---------- *)

let fabric ?(seed = 1) spec =
  match San_fabric.Fabric.parse spec with
  | Ok p -> p.San_fabric.Fabric.p_build ~seed
  | Error e -> Alcotest.fail e

(* [Updown.is_up] against the (label, id) tuple order it replaced, on
   every ordered node pair. *)
let check_tuple_order what ud =
  let n = Graph.num_nodes (Updown.graph ud) in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let tuple = (Updown.label ud v, v) < (Updown.label ud u, u) in
      if Updown.is_up ud u v <> tuple then
        Alcotest.failf "%s: is_up %d %d disagrees with the tuple order" what u v
    done
  done

let test_updown_int_order () =
  List.iter
    (fun (what, g) -> check_tuple_order what (Updown.build g))
    [
      ("now-c", fst (Generators.now_c ()));
      ("now-ca", fst (Generators.now_ca ()));
      ("now-cab", fst (Generators.now_cab ()));
    ];
  (* Rooted at an edge switch, ft-100's other spine-side switches are
     locally dominant and get relabelled below their neighbours. *)
  let g = fabric "ft-100" in
  let ud = Updown.build ~root:(List.hd (Graph.switches g)) g in
  Alcotest.(check bool) "ft-100 relabels dominant switches" true
    (Updown.relabeled ud <> []);
  check_tuple_order "ft-100" ud;
  (* DFS-labelled random nets with a detached host and switch, which
     keep the label max_int and tie on it. *)
  for seed = 1 to 40 do
    let rng = San_util.Prng.create seed in
    let g =
      Generators.random_connected ~rng ~switches:(2 + (seed mod 7))
        ~hosts:(2 + (seed mod 5)) ~extra_links:(seed mod 4) ()
    in
    let root = List.hd (Graph.switches g) in
    let s = Graph.add_switch g () and h = Graph.add_host g ~name:"detached" in
    Graph.connect g (h, 0) (s, 0);
    let ud = Updown.build ~root ~labeling:Updown.Dfs g in
    Alcotest.(check bool) "detached nodes unlabelled" true
      (Updown.label ud s = max_int && Updown.label ud h = max_int);
    check_tuple_order (Printf.sprintf "random seed %d" seed) ud
  done

let turns_of buf = function
  | -1 -> None
  | len -> Some (Array.to_list (Array.sub buf 0 len))

(* The exit memo never changes a route: tables compiled pair by pair
   destination-major, source-major and in a shuffled order (there the
   one distance vector is recomputed at almost every pair) equal
   [Routes.compute]. *)
let test_compile_orders () =
  List.iter
    (fun (what, g) ->
      let table = Routes.compute g in
      let hosts = Array.of_list (Graph.hosts g) in
      let buf = Array.make (Graph.num_nodes g + 1) 0 in
      let pairs order =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b -> if a = b then None else Some (order a b))
              (Array.to_list hosts))
          (Array.to_list hosts)
      in
      let compile how pairs =
        let pt = Paths.compute (Routes.updown table) in
        List.iter
          (fun (src, dst) ->
            if
              turns_of buf (Paths.route_into pt ~src ~dst ~buf)
              <> Routes.route table ~src ~dst
            then
              Alcotest.failf "%s %s: route %d->%d differs" what how src dst)
          pairs
      in
      compile "destination-major" (pairs (fun dst src -> (src, dst)));
      compile "source-major" (pairs (fun src dst -> (src, dst)));
      let shuffled = Array.of_list (pairs (fun src dst -> (src, dst))) in
      San_util.Prng.shuffle (San_util.Prng.create 11) shuffled;
      compile "shuffled" (Array.to_list shuffled))
    [ ("now-cab", fst (Generators.now_cab ())); ("ft-100", fabric "ft-100") ]

(* Walks with [prefer] or [rng] neither read nor disturb the memo:
   interleaved with default walks on one [Paths.t], in the order
   [Routes.compute] compiles, each mode still yields its own table
   (the seeded draws consumed in the same order). *)
let test_memo_isolation () =
  let g = fabric "ft-100" in
  let prefer u v = float_of_int (((u * 31) + (v * 17)) mod 7) in
  let plain = Routes.compute g
  and steered = Routes.compute ~prefer g
  and random = Routes.compute ~rng:(San_util.Prng.create 7) g in
  let pt = Paths.compute (Routes.updown plain) in
  let rng = San_util.Prng.create 7 in
  let hosts = Array.of_list (Graph.hosts g) in
  let buf = Array.make (Graph.num_nodes g + 1) 0 in
  let check what table src dst len =
    if turns_of buf len <> Routes.route table ~src ~dst then
      Alcotest.failf "%s route %d->%d differs" what src dst
  in
  Array.iter
    (fun dst ->
      Array.iter
        (fun src ->
          if src <> dst then begin
            check "default" plain src dst (Paths.route_into pt ~src ~dst ~buf);
            check "prefer" steered src dst
              (Paths.route_into ~prefer pt ~src ~dst ~buf);
            check "rng" random src dst (Paths.route_into ~rng pt ~src ~dst ~buf);
            check "default again" plain src dst
              (Paths.route_into pt ~src ~dst ~buf)
          end)
        hosts)
    hosts

(* A warm destination's walk allocates nothing: the distance vector is
   cached and every exit is memoised. *)
let test_route_into_zero_alloc () =
  let g = fabric "ft-100" in
  let pt = Paths.compute (Updown.build g) in
  let hosts = Array.of_list (Graph.hosts g) in
  let dst = hosts.(0) in
  let buf = Array.make (Graph.num_nodes g + 1) 0 in
  for i = 1 to Array.length hosts - 1 do
    ignore (Paths.route_into pt ~src:hosts.(i) ~dst ~buf)
  done;
  Alcotest.(check (float 0.0))
    "words allocated" 0.0
    (Alloc.words (fun () ->
         for i = 1 to Array.length hosts - 1 do
           ignore (Paths.route_into pt ~src:hosts.(i) ~dst ~buf)
         done))

(* ---------- the suffix compiler against the pair-by-pair one ---------- *)

(* [Routes.compute]'s shared-suffix table equals the pair-by-pair
   reference: every route and unreachable pair in (src, dst) order,
   [iter]'s visiting order, and [route] on every node pair, switches
   and ids just outside the graph included. *)
let agrees_with_reference ?root ?labeling ?previous what g =
  let table = Routes.compute ?root ?labeling ?previous g
  and reference = Routes_reference.compute ?root ?labeling g in
  let all = Routes_reference.all reference in
  if Routes.all table <> all then Alcotest.failf "%s: all differs" what;
  if Routes.unreachable_pairs table <> Routes_reference.unreachable_pairs reference
  then Alcotest.failf "%s: unreachable pairs differ" what;
  let visited = ref [] in
  Routes.iter table (fun src dst turns -> visited := (src, dst, turns) :: !visited);
  if List.rev !visited <> all then Alcotest.failf "%s: iter order differs" what;
  let n = Graph.num_nodes g in
  for src = -1 to n do
    for dst = -1 to n do
      if Routes.route table ~src ~dst <> Routes_reference.route reference ~src ~dst
      then Alcotest.failf "%s: route %d->%d differs" what src dst
    done
  done;
  table

let test_reference_presets () =
  ignore (agrees_with_reference "now-cab" (fst (Generators.now_cab ())));
  ignore (agrees_with_reference "ft-100" (fabric "ft-100"))

(* Destinations that are not behind a switch take their own BFS: a
   host-rooted order (the root's cable is an up move toward it), a
   host cabled to a host and an unwired host; plus DFS labellings and
   a cable from a switch to itself. *)
let test_reference_anchors () =
  let g = fabric "ft-100" in
  let root = List.hd (Graph.hosts g) in
  let other = List.nth (Graph.hosts g) 1 in
  let pt = Paths.compute (Updown.build ~root g) in
  Alcotest.(check int) "the root host is its own anchor" root (Paths.anchor pt root);
  Alcotest.(check int) "another host hangs off its switch"
    (fst (Option.get (Graph.peer g other 0)))
    (Paths.anchor pt other);
  ignore (agrees_with_reference ~root "ft-100 from a host root" g);
  ignore
    (agrees_with_reference ~labeling:Updown.Dfs "now-cab dfs"
       (fst (Generators.now_cab ())));
  ignore (agrees_with_reference ~labeling:Updown.Dfs "ft-100 dfs" g);
  let g = Graph.create ~radix:8 () in
  let sw =
    Array.init 3 (fun i -> Graph.add_switch g ~name:(Printf.sprintf "s%d" i) ())
  in
  let host name (s, p) =
    let h = Graph.add_host g ~name in
    Graph.connect g (h, 0) (sw.(s), p);
    h
  in
  let a = host "a" (0, 0) and b = host "b" (0, 1) and c = host "c" (1, 0) in
  let d = host "d" (2, 0) and e = host "e" (2, 7) in
  Graph.connect g (sw.(0), 4) (sw.(1), 4);
  Graph.connect g (sw.(0), 5) (sw.(1), 6);
  Graph.connect g (sw.(1), 5) (sw.(2), 2);
  Graph.connect g (sw.(2), 3) (sw.(2), 5);
  let x = Graph.add_host g ~name:"x" and y = Graph.add_host g ~name:"y" in
  Graph.connect g (x, 0) (y, 0);
  let u = Graph.add_host g ~name:"u" in
  let pt = Paths.compute (Updown.build g) in
  List.iter
    (fun h ->
      Alcotest.(check int)
        (Graph.name g h ^ " is its own anchor")
        h (Paths.anchor pt h))
    [ x; y; u ];
  List.iter
    (fun h ->
      Alcotest.(check bool) (Graph.name g h ^ " hangs off a switch") true
        (Paths.anchor pt h <> h))
    [ a; b; c; d; e ];
  ignore (agrees_with_reference "hand-built corners" g);
  ignore (agrees_with_reference ~labeling:Updown.Dfs "hand-built corners dfs" g)

(* The converge-ft400 incident's two epoch maps: the cold fabric, then
   the world after the schedule's seeded cut. *)
let converge_maps seed =
  let module Schedule = San_service.Schedule in
  let module World = San_service.World in
  let schedule = Result.get_ok (Schedule.parse "1:cut") in
  let world = World.create (fabric ~seed "levels=3,radix=16,edge=50,hosts=8") in
  let rng = San_util.Prng.create seed in
  ignore (Schedule.apply schedule world ~rng ~leader:"" ~epoch:0);
  let g0 = World.graph world in
  let leader = Graph.name g0 (List.hd (List.rev (Graph.hosts g0))) in
  ignore (Schedule.apply schedule world ~rng ~leader ~epoch:1);
  (g0, World.graph world)

let test_reference_converge () =
  List.iter
    (fun seed ->
      let g0, g1 = converge_maps seed in
      ignore
        (agrees_with_reference (Printf.sprintf "converge seed %d epoch 0" seed) g0);
      ignore
        (agrees_with_reference (Printf.sprintf "converge seed %d epoch 1" seed) g1))
    [ 1; 2; 3 ]

(* Fuzzer fabrics: parallel wires, cables from a switch to itself,
   disconnected and hostless pieces. *)
let test_reference_fuzz () =
  for seed = 1 to 300 do
    ignore
      (agrees_with_reference
         (Printf.sprintf "fuzz seed %d" seed)
         (San_check.Fuzz_gen.gen ~seed).San_check.Fuzz_gen.graph)
  done

(* ---------- routes that persist across epochs ---------- *)

(* The incident's epoch-1 table compiled against epoch 0's, seeds 1-10:
   the pair-by-pair reference's table, with at most 5% of the pairs
   walked; every pair whose reference route did not change keeps the
   previous cell physically, and the changed pairs are exactly the
   others. *)
let test_persist_converge () =
  for seed = 1 to 10 do
    let what = Printf.sprintf "converge seed %d" seed in
    let g0, g1 = converge_maps seed in
    let t0 = Routes.compute g0 in
    let t1 = agrees_with_reference ~previous:t0 what g1 in
    Alcotest.(check bool) (what ^ ": linked to epoch 0") true
      (match Routes.previous_generation t1 with
      | Some g -> g == Routes.generation t0
      | None -> false);
    let pairs = (Routes.length_stats t1).Routes.pairs in
    if Routes.rewalked t1 * 20 > pairs then
      Alcotest.failf "%s: %d of %d pairs walked" what (Routes.rewalked t1) pairs;
    let r0 = Routes_reference.compute g0 and r1 = Routes_reference.compute g1 in
    let changed = Hashtbl.create 64 in
    Routes.iter_changed t1 (fun src dst -> Hashtbl.replace changed (src, dst) ());
    let counterpart n = Option.get (Graph.host_by_name g0 (Graph.name g1 n)) in
    List.iter
      (fun src ->
        List.iter
          (fun dst ->
            let src0 = counterpart src and dst0 = counterpart dst in
            let same =
              Routes_reference.route r0 ~src:src0 ~dst:dst0
              = Routes_reference.route r1 ~src ~dst
            in
            if same <> not (Hashtbl.mem changed (src, dst)) then
              Alcotest.failf "%s: pair %d->%d %s" what src dst
                (if same then "listed as changed" else "missing from the changes");
            if same && Routes.cell t1 ~src ~dst <> Routes.cell t0 ~src:src0 ~dst:dst0
            then Alcotest.failf "%s: unchanged pair %d->%d not kept" what src dst)
          (Graph.hosts g1))
      (Graph.hosts g1)
  done

(* A fabric compiled against its own table walks nothing and keeps
   every cell, under a switch root, a host root (whose anchor is the
   root host itself) and a DFS labelling. *)
let test_persist_unchanged () =
  let g = fabric "ft-100" in
  let root = List.hd (Graph.hosts g) in
  List.iter
    (fun (what, compute) ->
      let t0 = compute None in
      let t1 = compute (Some t0) in
      Alcotest.(check int) (what ^ ": nothing walked") 0 (Routes.rewalked t1);
      let changed = ref 0 in
      Routes.iter_changed t1 (fun _ _ -> incr changed);
      Alcotest.(check int) (what ^ ": nothing changed") 0 !changed;
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              if Routes.cell t1 ~src ~dst <> Routes.cell t0 ~src ~dst then
                Alcotest.failf "%s: %d->%d not kept" what src dst)
            (Graph.hosts g))
        (Graph.hosts g);
      ignore (agrees_with_reference ~previous:t0 what g))
    [
      ("ft-100", fun previous -> Routes.compute ?previous g);
      ("ft-100 from a host root", fun previous -> Routes.compute ~root ?previous g);
      ( "ft-100 dfs",
        fun previous -> Routes.compute ~labeling:Updown.Dfs ?previous g );
    ]

(* A previous table of another fabric, or of the same fabric under
   another orientation (root and labelling): the table is still the
   reference's. Over an unrelated fabric no name matches, so
   every pair is walked and no changes are listed. *)
let test_persist_unrelated () =
  let now = fst (Generators.now_cab ()) and ft = fabric "ft-100" in
  let t = agrees_with_reference ~previous:(Routes.compute now) "ft-100 over now-cab" ft in
  Alcotest.(check int) "every pair walked"
    (Routes.length_stats t).Routes.pairs (Routes.rewalked t);
  Alcotest.(check bool) "no previous generation" true
    (Routes.previous_generation t = None);
  (* Switches without names match nothing, and a [rng] table keeps no
     record: either way every pair is walked. *)
  let unnamed = Graph.create ~radix:(Graph.radix ft) () in
  List.iter
    (fun n ->
      ignore
        (if Graph.is_host ft n then Graph.add_host unnamed ~name:(Graph.name ft n)
         else Graph.add_switch unnamed ()))
    (Graph.nodes ft);
  List.iter (fun (a, b) -> Graph.connect unnamed a b) (Graph.wires ft);
  List.iter
    (fun (what, previous, g) ->
      let t = agrees_with_reference ~previous what g in
      Alcotest.(check int) (what ^ ": every pair walked")
        (Routes.length_stats t).Routes.pairs (Routes.rewalked t))
    [
      ("unnamed switches", Routes.compute unnamed, unnamed);
      ("over an rng table", Routes.compute ~rng:(San_util.Prng.create 1) ft, ft);
    ];
  List.iter
    (fun (what, g) ->
      List.iter
        (fun root ->
          List.iter
            (fun labeling ->
              ignore
                (agrees_with_reference
                   ~previous:(Routes.compute ~root ~labeling g)
                   (Printf.sprintf "%s over an order rooted at %d" what root)
                   g))
            [ Updown.Bfs; Updown.Dfs ])
        (List.filter (fun n -> n mod 9 = 0) (Graph.nodes g)))
    [ ("now-cab", now); ("ft-100", ft) ];
  for seed = 1 to 100 do
    let g = (San_check.Fuzz_gen.gen ~seed).San_check.Fuzz_gen.graph in
    let g' = (San_check.Fuzz_gen.gen ~seed:(seed + 1)).San_check.Fuzz_gen.graph in
    ignore
      (agrees_with_reference ~previous:(Routes.compute g)
         (Printf.sprintf "fuzz seed %d over seed %d" (seed + 1) seed)
         g')
  done

(* [g] with its node ids reversed: the same names, kinds and wires. *)
let reversed g =
  let n = Graph.num_nodes g in
  let g' = Graph.create ~radix:(Graph.radix g) () in
  let id = Array.make n (-1) in
  for o = n - 1 downto 0 do
    let name = Graph.name g o in
    id.(o) <-
      (if Graph.is_host g o then Graph.add_host g' ~name
       else Graph.add_switch g' ~name ())
  done;
  List.iter
    (fun ((a, pa), (b, pb)) -> Graph.connect g' (id.(a), pa) (id.(b), pb))
    (Graph.wires g);
  g'

(* [g] without its [k]-th wire (counted modulo the wire count). *)
let without_wire g k =
  let g = Graph.copy g in
  (match Graph.wires g with
  | [] -> ()
  | wires -> Graph.disconnect g (fst (List.nth wires (k mod List.length wires))));
  g

(* Three epochs, each losing one wire, the middle one with its node
   ids reversed: each table is compiled against the one before, so the
   last reads exit records that anchors skipped in the middle compile
   carried over to new ids. Every table is the reference's. *)
let test_persist_chain () =
  let chain what g0 k =
    let g1 = reversed (without_wire g0 k) in
    let g2 = without_wire g1 (k + 1) in
    let t0 = Routes.compute g0 in
    let t1 = agrees_with_reference ~previous:t0 (what ^ " epoch 1") g1 in
    ignore (agrees_with_reference ~previous:t1 (what ^ " epoch 2") g2)
  in
  for seed = 1 to 300 do
    chain
      (Printf.sprintf "fuzz seed %d" seed)
      (San_check.Fuzz_gen.gen ~seed).San_check.Fuzz_gen.graph seed
  done;
  List.iter
    (fun k -> chain (Printf.sprintf "ft-100 wire %d" k) (fabric "ft-100") k)
    [ 0; 57; 140; 210 ]

(* A compile against a table of the same graph skips every anchor and
   shares every row: on converge-ft400's fabric it allocates words in
   proportion to the nodes, ports and hosts (the orientation, about 44
   words a node, the packed wiring, the name matching, the record and
   one row pointer per host; 48,544 words in all), under 96 per node
   plus 8 per host. A copy of the whole table would add nh² words
   (159,600 here) on top. *)
let test_persist_alloc () =
  let g = fabric "levels=3,radix=16,edge=50,hosts=8" in
  let t0 = Routes.compute g in
  let t1 = ref t0 in
  let words = Alloc.words (fun () -> t1 := Routes.compute ~previous:t0 g) in
  let v = Graph.num_nodes g and nh = List.length (Graph.hosts g) in
  let bound = float_of_int ((96 * v) + (8 * nh)) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d nodes and %d hosts (bound %.0f)" words v
       nh bound)
    true (words <= bound);
  Alcotest.(check int) "nothing walked" 0 (Routes.rewalked !t1);
  List.iter
    (fun dst ->
      List.iter
        (fun src ->
          if Routes.cell !t1 ~src ~dst <> Routes.cell t0 ~src ~dst then
            Alcotest.failf "%d->%d not kept" src dst)
        (Graph.hosts g))
    (Graph.hosts g)

(* 300 fuzzer cases through the [incremental_routes] property: a
   seed-drawn fault, renumbering and root change, the table against a
   from-scratch compile and the delta plans read off its changes. *)
let test_persist_fuzz () =
  for seed = 1 to 300 do
    match
      San_check.Props.run "incremental_routes" (San_check.Fuzz_gen.gen ~seed)
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "fuzz seed %d: %s" seed e
  done

(* A compiled route costs a shift and an or, a long one a pool cell
   beyond the tail it shares: on ft-1k the whole compute (orientation,
   distance vectors, table) stays within 14 words per routed pair,
   where the pair-by-pair compiler took about 25. The routes longer
   than a cell holds share their tails in the table's pool, which holds
   under a quarter of their turns. *)
let test_compile_alloc_and_sharing () =
  let g = fabric "ft-1k" in
  let before = Alloc.counter () in
  let table = Routes.compute g in
  let words = Alloc.counter () -. before in
  let pairs = (Routes.length_stats table).Routes.pairs in
  let per_pair = words /. float_of_int pairs in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per routed pair" per_pair)
    true (per_pair <= 14.0);
  let cells = Routes.cells table in
  let long_turns = ref 0 in
  Routes.iter table (fun _ _ r ->
      let len = List.length r in
      if len > Cell.inline_turns cells then long_turns := !long_turns + len);
  let pooled = Cell.Pool.cells (Cell.pool cells) in
  Alcotest.(check bool)
    (Printf.sprintf "%d pool cells for %d long-route turns" pooled !long_turns)
    true
    (!long_turns > 0 && 4 * pooled < !long_turns)

(* Walks toward one destination after another refill one distance
   vector in place: on ft-100, [route_into] from every host toward ten
   destinations in turn allocates at most one vector ([2 · num_nodes]
   ints and a header) plus a little slack, where a vector per
   destination would take ten. *)
let test_route_into_one_vector () =
  let g = fabric "ft-100" in
  let pt = Paths.compute (Updown.build g) in
  let hosts = Array.of_list (Graph.hosts g) in
  let buf = Array.make (Graph.num_nodes g + 1) 0 in
  let words =
    Alloc.words (fun () ->
        for d = 0 to 9 do
          let dst = hosts.(d * 7) in
          Array.iter
            (fun src ->
              if src <> dst then ignore (Paths.route_into pt ~src ~dst ~buf))
            hosts
        done)
  in
  let vector = float_of_int ((2 * Graph.num_nodes g) + 1) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for ten destinations (one vector is %.0f)" words
       vector)
    true
    (words <= vector +. 64.0)

(* [compile], [route_into] and [distance] on one [Paths.t] in turn:
   for each anchor, walks toward a host behind it, its compile, the
   same walks again, [distance] to the anchor and walks toward a host
   behind the next anchor. Every route and every compiled cell is the
   pair-by-pair reference's, and the distance to an anchor is one hop
   short of a destination behind it, so no query reads a distance
   vector left by another node's. *)
let test_shared_vector () =
  List.iter
    (fun (what, g) ->
      let reference = Routes_reference.compute g in
      let pt = Paths.compute (Updown.build g) in
      let hosts = Array.of_list (Graph.hosts g) in
      let nh = Array.length hosts in
      let buf = Array.make (Graph.num_nodes g + 1) 0 in
      let behind = Array.make (Graph.num_nodes g) [] in
      for d = nh - 1 downto 0 do
        let a = Paths.anchor pt hosts.(d) in
        behind.(a) <- (hosts.(d), d) :: behind.(a)
      done;
      let anchors =
        Array.of_list (List.filter (fun a -> behind.(a) <> []) (Graph.nodes g))
      in
      let walk dst =
        Array.iter
          (fun src ->
            if
              src <> dst
              && turns_of buf (Paths.route_into pt ~src ~dst ~buf)
                 <> Routes_reference.route reference ~src ~dst
            then Alcotest.failf "%s: route %d->%d differs" what src dst)
          hosts
      in
      let cells = Cell.create ~radix:(Graph.radix g) in
      let into = Array.init nh (fun _ -> Array.make nh Cell.none) in
      Array.iteri
        (fun i anchor ->
          let here = fst (List.hd behind.(anchor)) in
          walk here;
          ignore
            (Paths.compile pt ~cells ~anchor ~dsts:behind.(anchor) ~srcs:hosts ~into);
          walk here;
          Array.iter
            (fun src ->
              if src <> here then
                let expected =
                  Option.map
                    (fun r -> List.length r + if anchor = here then 1 else 0)
                    (Routes_reference.route reference ~src ~dst:here)
                in
                if Paths.distance pt ~src ~dst:anchor <> expected then
                  Alcotest.failf "%s: distance %d->%d differs" what src anchor)
            hosts;
          walk (fst (List.hd behind.(anchors.((i + 1) mod Array.length anchors)))))
        anchors;
      Array.iteri
        (fun d dst ->
          Array.iteri
            (fun s src ->
              if
                Cell.to_route cells into.(d).(s)
                <> Routes_reference.route reference ~src ~dst
              then Alcotest.failf "%s: compiled %d->%d differs" what src dst)
            hosts)
        hosts)
    ([ ("now-cab", fst (Generators.now_cab ())); ("ft-100", fabric "ft-100") ]
    @ List.init 30 (fun i ->
          let seed = i + 1 in
          ( Printf.sprintf "fuzz seed %d" seed,
            (San_check.Fuzz_gen.gen ~seed).San_check.Fuzz_gen.graph )))

let test_dense_table_edges () =
  let g, _ = Generators.now_c () in
  let table = Routes.compute g in
  let h0 = List.nth (Graph.hosts g) 0 and h1 = List.nth (Graph.hosts g) 1 in
  let s = List.hd (Graph.switches g) and past = Graph.num_nodes g in
  Alcotest.(check bool) "a host pair routes" true
    (Routes.route table ~src:h0 ~dst:h1 <> None);
  List.iter
    (fun (what, src, dst) ->
      Alcotest.(check bool) what true (Routes.route table ~src ~dst = None))
    [
      ("src = dst", h0, h0);
      ("switch source", s, h1);
      ("switch destination", h0, s);
      ("negative source", -1, h1);
      ("negative destination", h0, -1);
      ("source past the graph", past, h1);
      ("destination past the graph", h0, past);
    ];
  let all = Routes.all table in
  Alcotest.(check bool) "all in (src, dst) order" true
    (all = List.sort compare all)

let test_route_lengths_bounded () =
  let g, _ = Generators.now_cab () in
  let table = Routes.compute g in
  let st = Routes.length_stats table in
  Alcotest.(check bool) "max within diameter+2" true
    (st.Routes.max_len <= Analysis.diameter g + 2);
  Alcotest.(check bool) "min is 1" true (st.Routes.min_len >= 1)

let test_map_routes_drive_actual () =
  (* The port-offset invariance end to end: map with the Berkeley
     algorithm, compute routes on the map, deliver on the actual. *)
  let g, _ = Generators.now_c () in
  let net = San_simnet.Network.create g in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let r = San_mapper.Berkeley.run net ~mapper in
  match r.San_mapper.Berkeley.map with
  | Error e -> Alcotest.failf "map failed: %s" e
  | Ok m -> (
    let table = Routes.compute m in
    match Routes.verify_delivery ~against:g table with
    | Ok () -> ()
    | Error e -> Alcotest.failf "actual delivery: %s" e)

(* ---------- dependency cycles ---------- *)

let test_deadlock_detects_cycle () =
  (* Hand-build routes that chase each other around a ring — the
     classic deadlocked configuration UP*/DOWN* exists to prevent. *)
  let g = Generators.ring ~switches:4 ~hosts_per_switch:1 () in
  let host i = Option.get (Graph.host_by_name g (Printf.sprintf "h%d-0" i)) in
  (* The checker must accept a compliant table... *)
  let table = Routes.compute g in
  (match Deadlock.check_routes table with
  | Ok () -> ()
  | Error e -> Alcotest.failf "compliant table flagged: %s" e);
  (* ... and flag a synthetic cyclic set: four "routes", each crossing
     two consecutive ring edges clockwise, chasing one another — the
     classic deadlocked configuration UP*/DOWN* exists to prevent. *)
  let sw = Array.of_list (Graph.switches g) in
  let cyclic =
    List.init 4 (fun i ->
        let h = host i in
        (* host -> its switch -> next switch -> next-next switch *)
        let enter = Option.get (Graph.neighbor g (h, 0)) in
        let _, entry = enter in
        let next j = sw.((i + j) mod 4) in
        let exit_port cur target =
          fst
            (List.find (fun (_, (n, _)) -> n = target) (Graph.wired_ports g cur))
        in
        let p1 = exit_port sw.(i) (next 1) in
        let via = Option.get (Graph.neighbor g (sw.(i), p1)) in
        let p2 = exit_port (next 1) (next 2) in
        let t1 = p1 - entry in
        let t2 = p2 - snd via in
        (h, [ t1; t2 ]))

  in
  match Deadlock.check_acyclic g cyclic with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cyclic dependency set not detected"

let test_myricom_map_routes_acyclic () =
  (* Route tables computed over a Myricom-built map must be free of
     channel-dependence cycles too: the map's port numbering comes from
     probe orientation, not the actual wiring, so a cycle here would
     mean the orientation was recorded backwards somewhere. *)
  let check name g =
    let mapper = List.hd (Graph.hosts g) in
    let r = San_myricom.Myricom.run g ~mapper in
    match r.San_myricom.Myricom.map with
    | Error e -> Alcotest.failf "%s: myricom map failed: %s" name e
    | Ok m ->
      let table = Routes.compute m in
      (match Deadlock.check_routes table with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: dependence cycle: %s" name e);
      (match Routes.verify_delivery ~against:g table with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: actual delivery: %s" name e);
      Alcotest.(check (list (pair int int))) (name ^ " all pairs routed") []
        (Routes.unreachable_pairs table)
  in
  check "C" (fst (Generators.now_c ()));
  check "torus" (Generators.torus ~rows:3 ~cols:3 ())

let test_dfs_labeling_sound () =
  let g, _ = Generators.now_cab () in
  let table = Routes.compute ~labeling:Updown.Dfs g in
  Alcotest.(check bool) "dfs routes deliver" true
    (Result.is_ok (Routes.verify_delivery table));
  Alcotest.(check bool) "dfs routes compliant" true
    (Result.is_ok (Routes.verify_updown table));
  Alcotest.(check bool) "dfs routes deadlock-free" true
    (Result.is_ok (Deadlock.check_routes table));
  Alcotest.(check int) "dfs routes all pairs" (100 * 99)
    (Routes.length_stats table).Routes.pairs

let dfs_sound_prop =
  QCheck.Test.make ~name:"dfs labelling sound on random nets" ~count:20
    QCheck.(pair small_int (int_range 2 7))
    (fun (seed, switches) ->
      let rng = San_util.Prng.create ((seed * 5) + switches) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts:3
          ~extra_links:(seed mod 3) ()
      in
      let table = Routes.compute ~labeling:Updown.Dfs g in
      Result.is_ok (Routes.verify_delivery table)
      && Result.is_ok (Deadlock.check_routes table)
      && Routes.unreachable_pairs table = [])

(* ---------- in-band route distribution (§5.5) ---------- *)

let test_distribution_plan () =
  let g, _ = Generators.now_c () in
  let table = Routes.compute g in
  let p = Distribute.plan table in
  Alcotest.(check int) "one slice per host" 36
    (List.length p.Distribute.slices);
  List.iter
    (fun (s : Distribute.slice) ->
      Alcotest.(check int) "routes to all other hosts" 35 s.Distribute.entries;
      Alcotest.(check bool) "bytes positive and SRAM-scale" true
        (s.Distribute.bytes > 0 && s.Distribute.bytes < 4096))
    p.Distribute.slices

let test_distribution_delivers () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  (* Distribute the map-derived table over the actual network. *)
  let net = San_simnet.Network.create g in
  let r = San_mapper.Berkeley.run net ~mapper in
  let table = Routes.compute (Result.get_ok r.San_mapper.Berkeley.map) in
  match Distribute.simulate table ~actual:g ~leader:mapper with
  | Ok rep ->
    Alcotest.(check int) "all other hosts updated" 35 rep.Distribute.hosts_updated;
    Alcotest.(check int) "none missed" 0 rep.Distribute.hosts_missed;
    Alcotest.(check bool) "finishes quickly" true (rep.Distribute.duration_ns < 1e8)
  | Error e -> Alcotest.failf "distribution failed: %s" e

let test_distribution_needs_leader () =
  let g, _ = Generators.now_c () in
  let other = Graph.create () in
  let s = Graph.add_switch other () in
  let stranger = Graph.add_host other ~name:"stranger" in
  Graph.connect other (stranger, 0) (s, 0);
  let table = Routes.compute g in
  match Distribute.simulate table ~actual:other ~leader:stranger with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown leader must be rejected"

let test_distribution_retry_attempts () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let table = Routes.compute g in
  (* realistic slices land in the first pass *)
  (match Distribute.simulate table ~actual:g ~leader:mapper with
  | Ok rep ->
    Alcotest.(check int) "single pass suffices" 1 rep.Distribute.attempts;
    Alcotest.(check (list int)) "no missed owners" [] rep.Distribute.missed
  | Error e -> Alcotest.failf "distribution failed: %s" e);
  (* grossly oversized slices contend until forward-reset drops some;
     re-send passes, with less contention each time, win them back *)
  let slices =
    List.filter_map
      (fun h -> if h = mapper then None else Some (h, 400_000))
      (Graph.hosts g)
  in
  let no_retry =
    Result.get_ok
      (Distribute.simulate_slices ~retries:0 table ~actual:g ~leader:mapper
         ~slices)
  in
  let with_retry =
    Result.get_ok
      (Distribute.simulate_slices ~retries:3 table ~actual:g ~leader:mapper
         ~slices)
  in
  Alcotest.(check bool) "storm drops some slices" true
    (no_retry.Distribute.hosts_missed > 0);
  Alcotest.(check int) "no-retry runs one pass" 1 no_retry.Distribute.attempts;
  Alcotest.(check bool) "retries run more passes" true
    (with_retry.Distribute.attempts > 1);
  Alcotest.(check bool) "retries recover slices" true
    (with_retry.Distribute.hosts_missed < no_retry.Distribute.hosts_missed);
  Alcotest.(check int) "every missed owner listed"
    with_retry.Distribute.hosts_missed
    (List.length with_retry.Distribute.missed)

(* Every slice of the table's plan, as [simulate] sends them. *)
let plan_slices table =
  List.map
    (fun s -> (s.Distribute.owner, s.Distribute.bytes))
    (Distribute.plan table).Distribute.slices

let test_distribution_structural_skip () =
  (* table over three hosts; the actual fabric only knows two of them *)
  let build names =
    let g = Graph.create () in
    let s = Graph.add_switch g ~name:"s" () in
    List.iteri
      (fun i n ->
        let h = Graph.add_host g ~name:n in
        Graph.connect g (h, 0) (s, i))
      names;
    g
  in
  let full = build [ "a"; "b"; "c" ] in
  let actual = build [ "a"; "b" ] in
  let table = Routes.compute full in
  let leader = Option.get (Graph.host_by_name actual "a") in
  match
    Distribute.simulate_slices ~retries:5 table ~actual ~leader
      ~slices:(plan_slices table)
  with
  | Ok rep ->
    Alcotest.(check int) "b updated" 1 rep.Distribute.hosts_updated;
    Alcotest.(check int) "c unreachable" 1 rep.Distribute.hosts_missed;
    Alcotest.(check int) "structural misses are not retried" 1
      rep.Distribute.attempts;
    (match rep.Distribute.missed with
    | [ n ] ->
      Alcotest.(check string) "missed owner is c" "c"
        (Graph.name (Routes.graph table) n)
    | l -> Alcotest.failf "expected one missed owner, got %d" (List.length l))
  | Error e -> Alcotest.failf "distribution failed: %s" e

(* Seeded cross-traffic loses delivered slices at 15% per wire
   crossing; two re-send passes win most of them back. Every figure
   below follows from the seed's draws, one per delivered worm. *)
let test_distribution_under_traffic () =
  let g, _ = Generators.now_c () in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let table = Routes.compute g in
  let traffic = (0.15, San_util.Prng.create 11) in
  match
    Distribute.simulate_slices ~traffic table ~actual:g ~leader:mapper
      ~slices:(plan_slices table)
  with
  | Ok rep ->
    Alcotest.(check int) "hosts updated" 31 rep.Distribute.hosts_updated;
    Alcotest.(check int) "attempts" 3 rep.Distribute.attempts;
    Alcotest.(check (list string))
      "missed" [ "C-h10"; "C-h22"; "C-h23"; "C-h33" ]
      (List.map (Graph.name g) rep.Distribute.missed);
    Alcotest.(check (float 0.0)) "duration ns" 7210443.75
      rep.Distribute.duration_ns
  | Error e -> Alcotest.failf "distribution failed: %s" e

(* ---------- the route cell ---------- *)

(* Every radix from 2 to 64 and every length up to four past what a
   cell packs, turns drawn from the whole range a switch of that radix
   can make: the cell decodes to the route, its length is the route's,
   and the cell built turn by turn from the back with [cons] is the one
   [pack] gives (one cell per route, inline or pooled). *)
let test_cell_round_trip () =
  let rng = San_util.Prng.create 37 in
  for radix = 2 to 64 do
    let cells = Cell.create ~radix in
    let inline = Cell.inline_turns cells in
    let buf = Array.make (inline + 4) 0 and out = Array.make (inline + 4) 0 in
    for len = 0 to inline + 4 do
      for _ = 1 to 20 do
        for i = 0 to len - 1 do
          buf.(i) <- San_util.Prng.int rng ((2 * radix) - 1) - (radix - 1)
        done;
        let route = Array.to_list (Array.sub buf 0 len) in
        let c = Cell.pack cells buf len in
        let what = Printf.sprintf "radix %d, %d turns" radix len in
        if Cell.length cells c <> len then
          Alcotest.failf "%s: length %d" what (Cell.length cells c);
        if Cell.to_route cells c <> Some route then Alcotest.failf "%s: to_route" what;
        let n = Cell.write cells c out in
        if n <> len || Array.sub out 0 n <> Array.sub buf 0 len then
          Alcotest.failf "%s: write" what;
        let consed = ref Cell.empty in
        for i = len - 1 downto 0 do
          consed := Cell.cons cells buf.(i) !consed
        done;
        if !consed <> c then Alcotest.failf "%s: cons and pack disagree" what
      done
    done;
    Alcotest.(check int) (Printf.sprintf "radix %d: none has no length" radix) (-1)
      (Cell.length cells Cell.none)
  done

(* Tables compiled without [previous], each with its own pool, on a
   3x20 mesh (routes up to 22 turns, past the 14 a cell packs): the
   mesh, the mesh with its node ids reversed (the same routes, pooled
   in another order) and the mesh without one switch-to-switch wire.
   Across two stores, two cells are equal exactly when their routes
   are. *)
let test_cell_equal_across_pools () =
  let g = Generators.mesh ~rows:3 ~cols:20 () in
  let g' = reversed g in
  let cut = Graph.copy g in
  Graph.disconnect cut
    (fst
       (List.find
          (fun ((u, _), (v, _)) -> not (Graph.is_host g u || Graph.is_host g v))
          (List.rev (Graph.wires g))));
  let a = Routes.compute g and b = Routes.compute g' and c = Routes.compute cut in
  let hosts = Array.of_list (Graph.hosts g) in
  let nh = Array.length hosts in
  let counterpart n = Option.get (Graph.host_by_name g' (Graph.name g n)) in
  let decoded = ref 0 in
  let check (x_table, src, dst) (y_table, src', dst') =
    let x = Routes.cell x_table ~src ~dst
    and y = Routes.cell y_table ~src:src' ~dst:dst' in
    let same =
      Routes.route x_table ~src ~dst = Routes.route y_table ~src:src' ~dst:dst'
    in
    if same && x <> y then incr decoded;
    if Cell.equal (Routes.cells x_table) x (Routes.cells y_table) y <> same then
      Alcotest.failf "%d->%d against %d->%d: cell equality is not route equality" src
        dst src' dst
  in
  Array.iteri
    (fun i src ->
      Array.iter
        (fun dst ->
          check (a, src, dst) (b, counterpart src, counterpart dst);
          check (a, src, dst) (c, src, dst);
          check (a, src, dst) (c, hosts.((i + 1) mod nh), dst))
        hosts)
    hosts;
  Alcotest.(check bool)
    (Printf.sprintf "%d equal routes under unequal pool cells" !decoded)
    true (!decoded > 0)

(* Long routes across epochs: a 3x20 mesh, then the mesh without one
   switch-to-switch wire compiled against it. The new table keeps the
   previous one's store, so its kept pool cells still read their
   routes, and it is the pair-by-pair reference's table. *)
let test_cell_pooled_persist () =
  let g = Generators.mesh ~rows:3 ~cols:20 () in
  let t0 = Routes.compute g in
  let cut = Graph.copy g in
  Graph.disconnect cut
    (fst
       (List.find
          (fun ((u, _), (v, _)) -> not (Graph.is_host g u || Graph.is_host g v))
          (Graph.wires g)));
  let t1 = agrees_with_reference ~previous:t0 "mesh 3x20 after a cut" cut in
  Alcotest.(check bool) "store kept" true (Routes.cells t1 == Routes.cells t0);
  let kept = ref 0 in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          let c = Routes.cell t1 ~src ~dst in
          if c >= 0 && c = Routes.cell t0 ~src ~dst then incr kept)
        (Graph.hosts g))
    (Graph.hosts g);
  Alcotest.(check bool) (Printf.sprintf "%d pooled cells kept" !kept) true (!kept > 0)

(* The serving plane's per-pair build and the daemon's table agree:
   every destination's [Serve] row reads back the routes of its
   [Routes] row, on a small fat tree without [prefer]. *)
let test_cell_serve_rows () =
  let g = fabric "levels=2,radix=8,edge=4,hosts=4" in
  let table = Routes.compute g and serve = Serve.create ~cache_limit:4 g in
  let hosts = Graph.hosts g in
  List.iter
    (fun dst ->
      List.iter
        (fun src ->
          if Serve.lookup serve ~src ~dst <> Routes.route table ~src ~dst then
            Alcotest.failf "%d->%d: serve and routes differ" src dst)
        hosts)
    hosts

(* The daemon's resident routes on converge-ft400's fabric: the table
   (rows of cells, the orientation, the graph and the compile record)
   plus a ledger of every host's slice, in live words. Two int rows of
   401 cells per host, about 321k words, and the rest under 100k: the
   list-based table held 1,263,232 words here. *)
let test_cell_live_words () =
  let table = Routes.compute (fabric "levels=3,radix=16,edge=50,hosts=8") in
  let ledger = San_service.Delta.of_routes table in
  let words = Obj.reachable_words (Obj.repr (table, ledger)) in
  Alcotest.(check bool)
    (Printf.sprintf "%d live words (bound 420,000)" words)
    true (words <= 420_000)

let routes_sound_prop =
  QCheck.Test.make ~name:"routes on random nets: deliver, comply, acyclic"
    ~count:30
    QCheck.(triple small_int (int_range 2 8) (int_range 2 5))
    (fun (seed, switches, hosts) ->
      let rng = San_util.Prng.create ((seed * 13) + switches) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts
          ~extra_links:(seed mod 4) ()
      in
      let table = Routes.compute ~rng g in
      Result.is_ok (Routes.verify_delivery table)
      && Result.is_ok (Routes.verify_updown table)
      && Result.is_ok (Deadlock.check_routes table)
      && Routes.unreachable_pairs table = [])

let () =
  Alcotest.run "san_routing"
    [
      ( "updown",
        [
          Alcotest.test_case "root selection" `Quick test_updown_root_selection;
          Alcotest.test_case "direction" `Quick test_updown_direction;
          Alcotest.test_case "legal turns" `Quick test_legal_turns;
          Alcotest.test_case "dominant relabelling" `Quick test_dominant_relabelling;
        ] );
      ("paths", [ Alcotest.test_case "distances" `Quick test_paths_distances ]);
      ( "cell",
        [
          Alcotest.test_case "round trip" `Quick test_cell_round_trip;
          Alcotest.test_case "equality across pools" `Quick test_cell_equal_across_pools;
          Alcotest.test_case "serve rows are table rows" `Quick test_cell_serve_rows;
          Alcotest.test_case "pooled routes across epochs" `Quick test_cell_pooled_persist;
          Alcotest.test_case "table and ledger live words" `Quick test_cell_live_words;
        ] );
      ( "routes",
        [
          Alcotest.test_case "NOW" `Quick test_routes_now;
          Alcotest.test_case "classics" `Quick test_routes_classics;
          Alcotest.test_case "deterministic" `Quick test_routes_deterministic_without_rng;
          Alcotest.test_case "load balance" `Quick test_load_balance_spreads;
          Alcotest.test_case "root congestion" `Quick test_channel_loads_congestion;
          Alcotest.test_case "channel load tie order" `Quick
            test_channel_loads_tie_order;
          Alcotest.test_case "golden tables" `Quick test_golden_tables;
          Alcotest.test_case "int-only up*/down* order" `Quick
            test_updown_int_order;
          Alcotest.test_case "compile order never matters" `Quick
            test_compile_orders;
          Alcotest.test_case "prefer and rng walks bypass the memo" `Quick
            test_memo_isolation;
          Alcotest.test_case "warm walk allocation-free" `Quick
            test_route_into_zero_alloc;
          Alcotest.test_case "dense table edges" `Quick test_dense_table_edges;
          Alcotest.test_case "suffix compiler: presets" `Quick
            test_reference_presets;
          Alcotest.test_case "suffix compiler: anchors and fallbacks" `Quick
            test_reference_anchors;
          Alcotest.test_case "suffix compiler: converge-ft400 epochs" `Slow
            test_reference_converge;
          Alcotest.test_case "suffix compiler: fuzz campaign" `Quick
            test_reference_fuzz;
          Alcotest.test_case "suffix compiler: allocation and sharing" `Quick
            test_compile_alloc_and_sharing;
          Alcotest.test_case "one distance vector toward many destinations"
            `Quick test_route_into_one_vector;
          Alcotest.test_case "compiles and walks share one distance vector"
            `Quick test_shared_vector;
          Alcotest.test_case "persistent: converge-ft400 seeds 1-10" `Slow
            test_persist_converge;
          Alcotest.test_case "persistent: an unchanged fabric" `Quick
            test_persist_unchanged;
          Alcotest.test_case "persistent: unrelated previous tables" `Quick
            test_persist_unrelated;
          Alcotest.test_case "persistent: fuzz campaign" `Quick test_persist_fuzz;
          Alcotest.test_case "persistent: removals chained across new ids" `Quick
            test_persist_chain;
          Alcotest.test_case "persistent: an unchanged compile allocates O(V + hosts)"
            `Quick test_persist_alloc;
          Alcotest.test_case "length bounds" `Quick test_route_lengths_bounded;
          Alcotest.test_case "map drives actual" `Quick test_map_routes_drive_actual;
          Alcotest.test_case "myricom map acyclic" `Slow
            test_myricom_map_routes_acyclic;
          Alcotest.test_case "dfs labelling" `Quick test_dfs_labeling_sound;
          qcheck dfs_sound_prop;
        ] );
      ( "deadlock",
        [ Alcotest.test_case "cycle detection" `Quick test_deadlock_detects_cycle ] );
      ( "distribution",
        [
          Alcotest.test_case "plan" `Quick test_distribution_plan;
          Alcotest.test_case "delivers" `Quick test_distribution_delivers;
          Alcotest.test_case "leader check" `Quick test_distribution_needs_leader;
          Alcotest.test_case "retry attempts" `Quick test_distribution_retry_attempts;
          Alcotest.test_case "structural skip" `Quick test_distribution_structural_skip;
          Alcotest.test_case "seeded cross-traffic" `Quick
            test_distribution_under_traffic;
        ] );
      ("properties", [ qcheck routes_sound_prop ]);
    ]
