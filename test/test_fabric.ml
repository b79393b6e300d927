(* San_fabric and the dense core: generator determinism, preset
   well-formedness, mapping generated fabrics, dense CSR round-trips,
   and equivalence of the linear-time separation machinery with the
   definitional per-edge computation it replaced. *)

open San_topology
module Fabric = San_fabric.Fabric
module Fuzz_gen = San_check.Fuzz_gen

let qcheck t = QCheck_alcotest.to_alcotest t

(* Structural signature: node order, kinds, names and the wire list.
   Two graphs with equal signatures are the same labelled network. *)
let signature g =
  ( Graph.radix g,
    List.map (fun v -> (Graph.kind g v, Graph.name g v)) (Graph.nodes g),
    Graph.wires g )

let is_connected g =
  let n = Graph.num_nodes g in
  n = 0
  ||
  let adj = Array.make n [] in
  List.iter
    (fun (((a, _), (b, _)) : Graph.wire_end * Graph.wire_end) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    (Graph.wires g);
  let seen = Array.make n false in
  let rec go = function
    | [] -> ()
    | v :: rest ->
      let rest =
        List.fold_left
          (fun acc w ->
            if seen.(w) then acc
            else begin
              seen.(w) <- true;
              w :: acc
            end)
          rest adj.(v)
      in
      go rest
  in
  seen.(0) <- true;
  go [ 0 ];
  Array.for_all Fun.id seen

(* ------------------------------------------------------------------ *)
(* Generator. *)

let degraded =
  {
    Fabric.levels = 3;
    radix = 16;
    edge_switches = 40;
    hosts_per_edge = 8;
    oversub = 2.0;
    trim_uplinks = 0.1;
    missing_spines = 0.2;
    hetero_radix = 0.15;
  }

let test_build_deterministic () =
  let a = Fabric.build ~seed:42 degraded in
  let b = Fabric.build ~seed:42 degraded in
  Alcotest.(check bool) "same seed, same fabric" true
    (signature a = signature b);
  let c = Fabric.build ~seed:43 degraded in
  Alcotest.(check bool) "different seed, different irregularity" false
    (signature a = signature c)

let test_presets_well_formed () =
  List.iter
    (fun p ->
      if p.Fabric.p_name <> "ft-100k" (* the stretch ladder rung: slow *)
      then begin
        let g = p.Fabric.p_build ~seed:7 in
        Alcotest.(check bool)
          (p.Fabric.p_name ^ " connected")
          true (is_connected g);
        Alcotest.(check bool)
          (p.Fabric.p_name ^ " has hosts")
          true
          (Graph.num_hosts g > 0)
      end)
    Fabric.presets;
  let exact name hosts =
    match Fabric.find_preset name with
    | None -> Alcotest.failf "preset %s missing" name
    | Some p ->
      Alcotest.(check int) (name ^ " host count") hosts
        (Graph.num_hosts (p.Fabric.p_build ~seed:1))
  in
  exact "ft-100" 100;
  exact "ft-1k" 1000;
  exact "ft-10k" 10000

let test_validate_rejects () =
  let bad s = Alcotest.(check bool) "rejected" true (Result.is_error s) in
  bad (Fabric.validate { degraded with levels = 0 });
  bad (Fabric.validate { degraded with radix = 1 });
  bad (Fabric.validate { degraded with hosts_per_edge = 16 });
  bad (Fabric.validate { degraded with oversub = 0.0 });
  bad (Fabric.validate { degraded with trim_uplinks = 1.0 });
  bad (Fabric.validate { degraded with oversub = Float.infinity });
  bad (Fabric.validate { degraded with trim_uplinks = Float.nan });
  bad (Fabric.validate { degraded with missing_spines = Float.nan });
  bad (Fabric.validate { degraded with hetero_radix = Float.nan })

let test_spec_string_roundtrip () =
  List.iter
    (fun p ->
      match p.Fabric.p_spec with
      | None -> ()
      | Some s -> (
        match Fabric.of_string (Fabric.to_string s) with
        | Ok s' ->
          Alcotest.(check bool)
            (p.Fabric.p_name ^ " spec round-trips")
            true (s = s')
        | Error e -> Alcotest.failf "%s: %s" p.Fabric.p_name e))
    Fabric.presets;
  (match Fabric.of_string (Fabric.to_string degraded) with
  | Ok s' -> Alcotest.(check bool) "degraded round-trips" true (degraded = s')
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "preset name parses" true
    (Result.is_ok (Fabric.parse "ft-1k"));
  Alcotest.(check bool) "key=value parses" true
    (Result.is_ok (Fabric.parse "levels=2,radix=8,edge=3,hosts=2"));
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Fabric.parse "no-such-preset"))

(* A generated fabric must actually map: run the real mapper at the
   preset's suggested depth and check isomorphism against N - F. *)
let test_generated_fabric_maps () =
  let p = Option.get (Fabric.find_preset "ft-100") in
  let g = p.Fabric.p_build ~seed:1 in
  let mapper = List.hd (Graph.hosts g) in
  let net = San_simnet.Network.create g in
  let depth = San_mapper.Berkeley.Fixed (Option.get p.Fabric.p_depth) in
  let r = San_mapper.Berkeley.run ~depth net ~mapper in
  match r.San_mapper.Berkeley.map with
  | Error e -> Alcotest.failf "ft-100 mapping failed: %s" e
  | Ok map -> (
    match
      Iso.check ~map ~actual:g ~exclude:(Core_set.separated_set g) ()
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "ft-100 not isomorphic: %s" e)

(* ------------------------------------------------------------------ *)
(* Dense CSR round-trips. *)

let test_dense_roundtrip () =
  let round name g =
    let g' = Dense.to_graph (Dense.of_graph g) in
    Alcotest.(check bool) (name ^ " round-trips") true
      (signature g = signature g')
  in
  round "now-c" (fst (Generators.now_c ()));
  round "now-cab" (fst (Generators.now_cab ()));
  round "spec-a" (fst (Generators.subcluster Generators.spec_a));
  round "spec-b" (fst (Generators.subcluster Generators.spec_b));
  round "spec-c" (fst (Generators.subcluster Generators.spec_c))

(* The probe-count pins must survive mapping through a round-tripped
   graph: the dense view is the same network, byte for byte. *)
let test_dense_roundtrip_preserves_pins () =
  let g, _ = Generators.now_c () in
  let g = Dense.to_graph (Dense.of_graph g) in
  let util = Option.get (Graph.host_by_name g "C-util") in
  let net = San_simnet.Network.create g in
  let r = San_mapper.Berkeley.run net ~mapper:util in
  Alcotest.(check int) "C probes still 895" 895
    (San_mapper.Berkeley.total_probes r)

let test_dense_channels () =
  let g, _ = Generators.now_cab () in
  let d = Dense.of_graph g in
  let total =
    Graph.fold_nodes g ~init:0 ~f:(fun acc v -> acc + Graph.ports_of g v)
  in
  Alcotest.(check int) "channel count = total wire ends" total
    (Dense.num_channels d);
  (* channel_of and end_of are inverses; peer mirrors the wire list. *)
  List.iter
    (fun ((a, b) : Graph.wire_end * Graph.wire_end) ->
      match (Dense.channel_of d a, Dense.channel_of d b) with
      | Some ca, Some cb ->
        Alcotest.(check bool) "end_of inverts" true (Dense.end_of d ca = a);
        Alcotest.(check int) "peer a->b" cb (Dense.peer d ca);
        Alcotest.(check int) "peer b->a" ca (Dense.peer d cb)
      | _ -> Alcotest.fail "wired end has no channel id")
    (Graph.wires g);
  (* A port added after the snapshot is outside it. *)
  let late = Graph.add_switch g () in
  Alcotest.(check bool) "late node unmapped" true
    (Dense.channel_of d (late, 0) = None)

(* ------------------------------------------------------------------ *)
(* Equivalence with the definitional computations. *)

(* Bridges, by definition: removing the wire disconnects its ends. *)
let brute_bridges g =
  let wires = Array.of_list (Graph.wires g) in
  let n = Graph.num_nodes g in
  let reachable skip src =
    let seen = Array.make n false in
    seen.(src) <- true;
    let rec go = function
      | [] -> seen
      | v :: rest ->
        let rest = ref rest in
        Array.iteri
          (fun i (((a, _), (b, _)) : Graph.wire_end * Graph.wire_end) ->
            if i <> skip then begin
              if a = v && not seen.(b) then begin
                seen.(b) <- true;
                rest := b :: !rest
              end;
              if b = v && not seen.(a) then begin
                seen.(a) <- true;
                rest := a :: !rest
              end
            end)
          wires;
        go !rest
    in
    go [ src ]
  in
  Array.to_list
    (Array.mapi
       (fun i (((a, _), (b, _)) as w) ->
         if a <> b && not (reachable i a).(b) then Some w else None)
       wires)
  |> List.filter_map Fun.id

(* Theorem 1's F, by definition: for every switch-switch bridge, the
   side holding no host falls out of the mappable core. *)
let brute_separated g =
  let wires = Array.of_list (Graph.wires g) in
  let n = Graph.num_nodes g in
  let in_f = Array.make n false in
  Array.iteri
    (fun i (((a, _), (b, _)) : Graph.wire_end * Graph.wire_end) ->
      if a <> b && Graph.kind g a = Graph.Switch && Graph.kind g b = Graph.Switch
      then begin
        let seen = Array.make n false in
        seen.(a) <- true;
        let rec go = function
          | [] -> ()
          | v :: rest ->
            let rest = ref rest in
            Array.iteri
              (fun j (((x, _), (y, _)) : Graph.wire_end * Graph.wire_end) ->
                if j <> i then begin
                  if x = v && not seen.(y) then begin
                    seen.(y) <- true;
                    rest := y :: !rest
                  end;
                  if y = v && not seen.(x) then begin
                    seen.(x) <- true;
                    rest := x :: !rest
                  end
                end)
              wires;
            go !rest
        in
        go [ a ];
        if not seen.(b) then begin
          (* A genuine bridge: condemn whichever side has no host. *)
          let side reached =
            List.exists (fun h -> reached.(h)) (Graph.hosts g)
          in
          let seen_b = Array.make n false in
          seen_b.(b) <- true;
          let rec gob = function
            | [] -> ()
            | v :: rest ->
              let rest = ref rest in
              Array.iteri
                (fun j (((x, _), (y, _)) : Graph.wire_end * Graph.wire_end) ->
                  if j <> i then begin
                    if x = v && not seen_b.(y) then begin
                      seen_b.(y) <- true;
                      rest := y :: !rest
                    end;
                    if y = v && not seen_b.(x) then begin
                      seen_b.(x) <- true;
                      rest := x :: !rest
                    end
                  end)
                wires;
              gob !rest
          in
          gob [ b ];
          if not (side seen) then
            for v = 0 to n - 1 do
              if seen.(v) then in_f.(v) <- true
            done;
          if not (side seen_b) then
            for v = 0 to n - 1 do
              if seen_b.(v) then in_f.(v) <- true
            done
        end
      end)
    wires;
  in_f

let case_arbitrary =
  QCheck.make
    ~print:(fun seed -> Format.asprintf "%a" Fuzz_gen.pp (Fuzz_gen.gen ~seed))
    QCheck.Gen.(0 -- 4000)

let test_bridges_equiv =
  QCheck.Test.make ~name:"Dense bridges = definitional bridges" ~count:300
    case_arbitrary (fun seed ->
      let g = (Fuzz_gen.gen ~seed).Fuzz_gen.graph in
      let dense = List.sort compare (Core_set.bridges g) in
      let brute = List.sort compare (brute_bridges g) in
      dense = brute)

let test_separated_equiv =
  QCheck.Test.make ~name:"Dense separated_set = definitional F" ~count:300
    case_arbitrary (fun seed ->
      let g = (Fuzz_gen.gen ~seed).Fuzz_gen.graph in
      Core_set.separated_set g = brute_separated g)

(* Fabric-mode fuzz cases (seed = 3 mod 4) are deterministic and
   structurally sound, like every other case the fuzzer emits. *)
let test_fuzz_fabric_mode () =
  List.iter
    (fun seed ->
      let a = Fuzz_gen.gen ~seed and b = Fuzz_gen.gen ~seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d deterministic" seed)
        true
        (signature a.Fuzz_gen.graph = signature b.Fuzz_gen.graph);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d connected" seed)
        true
        (is_connected a.Fuzz_gen.graph);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d has a mapper" seed)
        true
        (Fuzz_gen.mapper_node a <> None))
    [ 3; 7; 11; 15; 19; 23 ]

let () =
  Alcotest.run "fabric"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_build_deterministic;
          Alcotest.test_case "presets well-formed" `Quick
            test_presets_well_formed;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "spec strings round-trip" `Quick
            test_spec_string_roundtrip;
          Alcotest.test_case "ft-100 maps and verifies" `Quick
            test_generated_fabric_maps;
        ] );
      ( "dense",
        [
          Alcotest.test_case "graph round-trip" `Quick test_dense_roundtrip;
          Alcotest.test_case "round-trip preserves probe pins" `Quick
            test_dense_roundtrip_preserves_pins;
          Alcotest.test_case "channel ids" `Quick test_dense_channels;
        ] );
      ( "equivalence",
        [
          qcheck test_bridges_equiv;
          qcheck test_separated_equiv;
          Alcotest.test_case "fuzz fabric mode" `Quick test_fuzz_fabric_mode;
        ] );
    ]
