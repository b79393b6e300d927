(* The route-serving plane: served answers must be exactly the routes
   the eager table computes, deadlock-free, and the shared-suffix pool
   must reconstruct every route it interned byte for byte. *)

open San_topology
module Routes = San_routing.Routes
module Serve = San_routing.Serve
module Deadlock = San_routing.Deadlock

let fabric name seed =
  match San_fabric.Fabric.find_preset name with
  | Some p -> p.San_fabric.Fabric.p_build ~seed
  | None -> Alcotest.failf "unknown fabric preset %s" name

(* Served next-hops reproduce the eager table, pair for pair; the
   serving plane that did is returned. *)
let agreeing_serve name g =
  let table = Routes.compute g in
  let serve = Serve.create g in
  let hosts = Graph.hosts g in
  List.iter
    (fun dst ->
      List.iter
        (fun src ->
          if src <> dst then
            let expected = Routes.route table ~src ~dst in
            let got = Serve.lookup serve ~src ~dst in
            if got <> expected then
              Alcotest.failf "%s: serve disagrees with table on %s->%s" name
                (Graph.name g src) (Graph.name g dst))
        hosts)
    hosts;
  serve

let check_agreement name g = ignore (agreeing_serve name g)

let test_agreement_now () =
  check_agreement "c" (fst (Generators.now_c ()));
  check_agreement "ca" (fst (Generators.now_ca ()));
  check_agreement "cab" (fst (Generators.now_cab ()))

(* ft-1k is too big for all pairs in a unit test: agree on a seeded
   sample of destinations (all sources each), and check the served set
   is deadlock-free. *)
let test_agreement_ft1k () =
  let g = fabric "ft-1k" 1 in
  let table = Routes.compute g in
  let serve = Serve.create g in
  let hosts = Array.of_list (Graph.hosts g) in
  let rng = San_util.Prng.create 11 in
  let dsts = Array.init 12 (fun _ -> San_util.Prng.choose rng hosts) in
  let served = ref [] in
  Array.iter
    (fun dst ->
      Array.iter
        (fun src ->
          if src <> dst then begin
            let expected = Routes.route table ~src ~dst in
            let got = Serve.lookup serve ~src ~dst in
            if got <> expected then
              Alcotest.failf "ft-1k: serve disagrees with table on %s->%s"
                (Graph.name g src) (Graph.name g dst);
            match got with
            | Some turns -> served := (src, turns) :: !served
            | None -> Alcotest.failf "ft-1k: no served route"
          end)
        hosts)
    dsts;
  (match Deadlock.check_acyclic g !served with
  | Ok () -> ()
  | Error e -> Alcotest.failf "served routes not deadlock-free: %s" e);
  (* fabric-sized slices genuinely compress: pooled full redistribution
     is strictly cheaper than naive here *)
  let p = San_service.Delta.plan ~installed:San_service.Delta.empty table in
  Alcotest.(check bool)
    "ft-1k packed beats naive full" true
    (San_service.Delta.packed_full_bytes table < p.San_service.Delta.full_bytes)

(* Deadlock freedom of the served plane on every NOW preset. *)
let test_deadlock_now () =
  List.iter
    (fun (name, g) ->
      let serve = Serve.create g in
      let hosts = Graph.hosts g in
      let served =
        List.concat_map
          (fun dst ->
            List.filter_map
              (fun src ->
                if src = dst then None
                else
                  Option.map
                    (fun turns -> (src, turns))
                    (Serve.lookup serve ~src ~dst))
              hosts)
          hosts
      in
      match Deadlock.check_acyclic g served with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    [
      ("c", fst (Generators.now_c ()));
      ("ca", fst (Generators.now_ca ()));
      ("cab", fst (Generators.now_cab ()));
    ]

(* The pool gives back exactly what it interned — compressed-table
   round-trip over a real table's routes, via both the allocating and
   the zero-allocation readers. *)
let test_pool_roundtrip () =
  let g = fst (Generators.now_cab ()) in
  let table = Routes.compute g in
  let pool = Serve.Pool.create () in
  let interned =
    List.map (fun (_, _, turns) -> (Serve.Pool.add pool turns, turns))
    @@ Routes.all table
  in
  let buf = Array.make (Serve.Pool.max_depth pool + 1) 0 in
  List.iter
    (fun (idx, turns) ->
      Alcotest.(check (list int))
        "to_route roundtrip" turns
        (Serve.Pool.to_route pool idx);
      let len = Serve.Pool.write pool idx buf in
      Alcotest.(check (list int))
        "write roundtrip" turns
        (Array.to_list (Array.sub buf 0 len)))
    interned;
  (* sharing actually happened: fewer cells than total turns *)
  Alcotest.(check bool)
    "suffixes shared" true
    (Serve.Pool.cells pool < Serve.Pool.turns_total pool);
  Alcotest.(check bool)
    "packed beats naive" true
    (Serve.Pool.packed_bytes pool
    < 3 * Serve.Pool.entries pool + Serve.Pool.turns_total pool)

(* Warm lookups must not allocate: the whole query loop runs on
   preallocated arrays. *)
let test_lookup_zero_alloc () =
  let g = fst (Generators.now_c ()) in
  let serve = Serve.create g in
  let hosts = Array.of_list (Graph.hosts g) in
  let src = hosts.(0) and dst = hosts.(Array.length hosts - 1) in
  let buf = Array.make (Graph.num_nodes g) 0 in
  ignore (Serve.lookup_into serve ~src ~dst ~buf);
  Alcotest.(check (float 0.0))
    "10k warm lookups allocated" 0.0
    (Alloc.words (fun () ->
         for _ = 1 to 10_000 do
           ignore (Serve.lookup_into serve ~src ~dst ~buf)
         done))

(* Evicting per-destination tables must never change answers. *)
let test_eviction_agrees () =
  let g = fst (Generators.now_ca ()) in
  let table = Routes.compute g in
  let tight = Serve.create ~cache_limit:2 g in
  let hosts = Array.of_list (Graph.hosts g) in
  let rng = San_util.Prng.create 3 in
  for _ = 1 to 2_000 do
    let src = San_util.Prng.choose rng hosts
    and dst = San_util.Prng.choose rng hosts in
    if src <> dst then
      let expected = Routes.route table ~src ~dst in
      if Serve.lookup tight ~src ~dst <> expected then
        Alcotest.failf "eviction changed the answer for %s->%s"
          (Graph.name g src) (Graph.name g dst)
  done;
  let st = Serve.stats tight in
  Alcotest.(check bool)
    "tables were rebuilt after eviction" true
    (st.Serve.destinations > st.Serve.resident);
  Alcotest.(check bool) "resident bounded" true (st.Serve.resident <= 2)

(* Words [f] allocates, [f] run once first so every table it reads is
   warm. *)
let warm_words f =
  f ();
  Alloc.words f

(* A 1x40 mesh's end-to-end routes are far longer than a word packs at
   its radix, so both cell kinds are served: the inline ones and the
   pool fallback. *)
let test_agreement_long_routes () =
  let g = Generators.mesh ~rows:1 ~cols:40 () in
  let serve = agreeing_serve "mesh 1x40" g in
  let inline = Serve.inline_turns serve in
  Alcotest.(check bool)
    (Printf.sprintf "longest route (%d turns) past the inline %d"
       (Serve.max_route_len serve) inline)
    true
    (Serve.max_route_len serve > inline);
  let hosts = Array.of_list (Graph.hosts g) in
  let buf = Array.make (Graph.num_nodes g) 0 in
  let lens = Array.map (fun dst -> Serve.lookup_into serve ~src:hosts.(0) ~dst ~buf) hosts in
  Alcotest.(check bool) "host 0 has inline and pooled routes" true
    (Array.exists (fun l -> l > 0 && l <= inline) lens
    && Array.exists (fun l -> l > inline) lens);
  (* Warm lookups from one end to every host, the long ones included,
     allocate nothing. *)
  let words =
    warm_words (fun () ->
        for _ = 1 to 100 do
          for i = 0 to Array.length hosts - 1 do
            ignore (Serve.lookup_into serve ~src:hosts.(0) ~dst:hosts.(i) ~buf)
          done
        done)
  in
  Alcotest.(check (float 0.0)) "4,000 warm lookups on long routes" 0.0 words

(* A host cabled straight to another host is served the empty route,
   as the table has it, and nothing to the rest of the fabric. *)
let test_host_cable () =
  let g = Graph.create ~radix:4 () in
  let s = Graph.add_switch g ~name:"s" () in
  let a = Graph.add_host g ~name:"a" and b = Graph.add_host g ~name:"b" in
  Graph.connect g (a, 0) (s, 0);
  Graph.connect g (b, 0) (s, 1);
  let x = Graph.add_host g ~name:"x" and y = Graph.add_host g ~name:"y" in
  Graph.connect g (x, 0) (y, 0);
  let serve = agreeing_serve "host cable" g in
  Alcotest.(check (option (list int))) "x to y" (Some []) (Serve.lookup serve ~src:x ~dst:y);
  Alcotest.(check (option (list int))) "x to a" None (Serve.lookup serve ~src:x ~dst:a);
  let buf = Array.make (Graph.num_nodes g) 7 in
  Alcotest.(check int) "y to x, into a buffer" 0 (Serve.lookup_into serve ~src:y ~dst:x ~buf)

(* Evicted tables come back on the next touch, and lookups through the
   re-warmed tables allocate nothing. *)
let test_rewarm_zero_alloc () =
  let g = fst (Generators.now_ca ()) in
  let serve = Serve.create ~cache_limit:2 g in
  let hosts = Array.of_list (Graph.hosts g) in
  let a = hosts.(0) and b = hosts.(1) and c = hosts.(2) and src = hosts.(3) in
  List.iter (fun dst -> Serve.warm serve ~dst) [ a; b; c; a ];
  let st = Serve.stats serve in
  Alcotest.(check int) "a compiled again after eviction" 4 st.Serve.destinations;
  Alcotest.(check int) "two resident" 2 st.Serve.resident;
  let buf = Array.make (Graph.num_nodes g) 0 in
  let words =
    warm_words (fun () ->
        for _ = 1 to 1_000 do
          ignore (Serve.lookup_into serve ~src ~dst:a ~buf);
          ignore (Serve.lookup_into serve ~src ~dst:c ~buf)
        done)
  in
  Alcotest.(check (float 0.0)) "2,000 lookups on re-warmed tables" 0.0 words;
  Alcotest.(check int) "no table compiled by them" 4
    (Serve.stats serve).Serve.destinations

(* [warm] compiles only what a lookup can read: a switch or a node out
   of range is no destination, so it neither compiles a table, evicts a
   live one nor raises. *)
let test_warm_non_host () =
  let g = fst (Generators.now_ca ()) in
  let serve = Serve.create ~cache_limit:2 g in
  let hosts = Array.of_list (Graph.hosts g) in
  let a = hosts.(0) and b = hosts.(1) and src = hosts.(2) in
  Serve.warm serve ~dst:a;
  Serve.warm serve ~dst:b;
  List.iter
    (fun dst -> Serve.warm serve ~dst)
    [ List.hd (Graph.switches g); -1; Graph.num_nodes g; max_int ];
  let buf = Array.make (Graph.num_nodes g) 0 in
  Alcotest.(check bool) "a still served" true (Serve.lookup_into serve ~src ~dst:a ~buf > 0);
  Alcotest.(check int) "only a and b compiled" 2 (Serve.stats serve).Serve.destinations

(* Traffic awareness: penalizing one spine steers every equal-cost
   choice through the other. Two leaves of two hosts each, every leaf
   wired once to each of the two spines (a San_fabric spec this small
   puts every uplink on one spine). *)
let test_prefer_steers () =
  let g = Graph.create () in
  let hot = Graph.add_switch g () and cool = Graph.add_switch g () in
  for l = 0 to 1 do
    let leaf = Graph.add_switch g () in
    for h = 0 to 1 do
      Graph.connect g
        (Graph.add_host g ~name:(Printf.sprintf "h%d-%d" l h), 0)
        (leaf, h)
    done;
    Graph.connect g (leaf, 2) (hot, l);
    Graph.connect g (leaf, 3) (cool, l)
  done;
  (* penalty on entering or leaving the hot spine: routes through it pay *)
  let prefer u v =
    (if u = hot then 1.0 else 0.0) +. if v = hot then 1.0 else 0.0
  in
  let serve = Serve.create ~prefer g in
  let hosts = Graph.hosts g in
  List.iter
    (fun dst ->
      List.iter
        (fun src ->
          if src <> dst then
            match Serve.lookup serve ~src ~dst with
            | None -> Alcotest.failf "no route"
            | Some turns ->
              let trace = San_simnet.Worm.eval g ~src ~turns in
              let nodes = San_simnet.Worm.path_nodes g ~src trace in
              if List.mem hot nodes then
                Alcotest.failf "route %s->%s crossed the penalized spine"
                  (Graph.name g src) (Graph.name g dst))
        hosts)
    hosts

(* The pooled redistribution figure: never worse than naive (the
   header bit falls back per slice), and non-trivial. NOW slices
   are too short for pooling to win; ft-1k's strict win is asserted in
   the slow test above. *)
let test_delta_packed () =
  let g = fst (Generators.now_cab ()) in
  let table = Routes.compute g in
  let p = San_service.Delta.plan ~installed:San_service.Delta.empty table in
  let packed = San_service.Delta.packed_full_bytes table in
  Alcotest.(check bool)
    "packed never beats naive by losing" true
    (packed <= p.San_service.Delta.full_bytes);
  Alcotest.(check bool) "packed is non-trivial" true (packed > 0)

let () =
  Alcotest.run "san_serve"
    [
      ( "serve",
        [
          Alcotest.test_case "NOW presets agree with table" `Quick
            test_agreement_now;
          Alcotest.test_case "ft-1k sample agrees, deadlock-free" `Slow
            test_agreement_ft1k;
          Alcotest.test_case "NOW presets deadlock-free" `Quick
            test_deadlock_now;
          Alcotest.test_case "pool roundtrip and sharing" `Quick
            test_pool_roundtrip;
          Alcotest.test_case "warm lookups allocation-free" `Quick
            test_lookup_zero_alloc;
          Alcotest.test_case "eviction never changes answers" `Quick
            test_eviction_agrees;
          Alcotest.test_case "prefer steers off the hot spine" `Quick
            test_prefer_steers;
          Alcotest.test_case "delta ships packed slices cheaper" `Quick
            test_delta_packed;
          Alcotest.test_case "long routes served from the pool agree" `Quick
            test_agreement_long_routes;
          Alcotest.test_case "host-to-host cable serves the empty route" `Quick
            test_host_cable;
          Alcotest.test_case "re-warmed tables allocation-free" `Quick
            test_rewarm_zero_alloc;
          Alcotest.test_case "warm skips non-destinations" `Quick
            test_warm_non_host;
        ] );
    ]
