open San_topology
open San_simnet

let qcheck t = QCheck_alcotest.to_alcotest t

(* A small reference network:
     h0 - s0(p0); s0(p3) - s1(p5); s1(p0) - h1; s0(p4) - s2(p2)
   Plus a same-switch cable on s2 between ports 5 and 6. *)
let net () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~name:"s0" () in
  let s1 = Graph.add_switch g ~name:"s1" () in
  let s2 = Graph.add_switch g ~name:"s2" () in
  let h0 = Graph.add_host g ~name:"h0" in
  let h1 = Graph.add_host g ~name:"h1" in
  Graph.connect g (h0, 0) (s0, 0);
  Graph.connect g (s0, 3) (s1, 5);
  Graph.connect g (s1, 0) (h1, 0);
  Graph.connect g (s0, 4) (s2, 2);
  Graph.connect g (s2, 5) (s2, 6);
  (g, s0, s1, s2, h0, h1)

(* ---------- route strings ---------- *)

let test_route_shapes () =
  Alcotest.(check (list int)) "host probe" [ 1; -2 ] (Route.host_probe [ 1; -2 ]);
  Alcotest.(check (list int)) "switch probe" [ 1; -2; 0; 2; -1 ]
    (Route.switch_probe [ 1; -2 ]);
  Alcotest.(check bool) "loopback shape recognised" true
    (Route.is_switch_probe_shape [ 1; -2; 0; 2; -1 ]);
  Alcotest.(check bool) "host probe not loopback" false
    (Route.is_switch_probe_shape [ 1; -2 ]);
  Alcotest.(check bool) "wrong middle not loopback" false
    (Route.is_switch_probe_shape [ 1; 3; 0; 2; -1 ]);
  Alcotest.(check (option (list int))) "forward recovered" (Some [ 1; -2 ])
    (Route.forward_of_switch_probe [ 1; -2; 0; 2; -1 ]);
  Alcotest.(check bool) "validity" true (Route.valid ~radix:8 [ 7; -7 ]);
  Alcotest.(check bool) "turn 8 invalid" false (Route.valid ~radix:8 [ 8 ]);
  Alcotest.(check string) "pretty" "+1.-2" (Route.to_string [ 1; -2 ])

(* ---------- worm path semantics (§2.2) ---------- *)

let test_worm_arrives () =
  let g, _, _, _, h0, h1 = net () in
  (* h0 -> s0 (enter port 0), turn +3 -> s1 (enter port 5), turn -5 ->
     port 0 -> h1. *)
  let t = Worm.eval g ~src:h0 ~turns:[ 3; -5 ] in
  (match t.Worm.outcome with
  | Worm.Arrived n -> Alcotest.(check int) "reaches h1" h1 n
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o);
  Alcotest.(check int) "three wire crossings" 3 (List.length t.Worm.hops)

let test_worm_illegal_turn () =
  let g, _, _, _, h0, _ = net () in
  (* Enter s0 at port 0; turn -1 -> port -1: ILLEGAL TURN. *)
  let t = Worm.eval g ~src:h0 ~turns:[ -1 ] in
  (match t.Worm.outcome with
  | Worm.Illegal_turn i -> Alcotest.(check int) "at index 0" 0 i
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o);
  (* Additive, not modular: +7 from port 3 is port 10 -> illegal. *)
  let t2 = Worm.eval g ~src:h0 ~turns:[ 3; 7 ] in
  match t2.Worm.outcome with
  | Worm.Illegal_turn i -> Alcotest.(check int) "at index 1" 1 i
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o

let test_worm_no_such_wire () =
  let g, _, _, _, h0, _ = net () in
  (* s0 port 0+2=2 is vacant. *)
  let t = Worm.eval g ~src:h0 ~turns:[ 2 ] in
  match t.Worm.outcome with
  | Worm.No_such_wire i -> Alcotest.(check int) "index" 0 i
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o

let test_worm_hit_host_too_soon () =
  let g, _, _, _, h0, h1 = net () in
  (* Reaches h1 with one turn left over. *)
  let t = Worm.eval g ~src:h0 ~turns:[ 3; -5; 1 ] in
  match t.Worm.outcome with
  | Worm.Hit_host_too_soon (i, n) ->
    Alcotest.(check int) "host" h1 n;
    Alcotest.(check int) "index" 2 i
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o

let test_worm_stranded () =
  let g, _, s1, _, h0, _ = net () in
  let t = Worm.eval g ~src:h0 ~turns:[ 3 ] in
  match t.Worm.outcome with
  | Worm.Stranded n -> Alcotest.(check int) "at s1" s1 n
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o

let test_worm_zero_turn_bounce () =
  let g, _, _, _, h0, _ = net () in
  (* Loopback: out to s1 and back: 3 0 -3 retraces to h0. *)
  let t = Worm.eval g ~src:h0 ~turns:(Route.switch_probe [ 3 ]) in
  match t.Worm.outcome with
  | Worm.Arrived n -> Alcotest.(check int) "back home" h0 n
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o

let test_worm_same_switch_cable () =
  let g, _, _, s2, h0, _ = net () in
  (* h0 -> s0 (port 0), +4 -> s2 (enter 2), +3 -> port 5 -> cable ->
     re-enter s2 at port 6. *)
  let t = Worm.eval g ~src:h0 ~turns:[ 4; 3 ] in
  (match t.Worm.outcome with
  | Worm.Stranded n -> Alcotest.(check int) "still s2" s2 n
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o);
  match List.rev t.Worm.hops with
  | last :: _ ->
    Alcotest.(check (pair int int)) "re-entered at port 6" (s2, 6) last.Worm.entry_end
  | [] -> Alcotest.fail "no hops"

let test_worm_unwired () =
  let g = Graph.create () in
  let h = Graph.add_host g ~name:"h" in
  let t = Worm.eval g ~src:h ~turns:[ 1 ] in
  Alcotest.(check bool) "unwired source" true (t.Worm.outcome = Worm.Unwired_source)

let test_worm_rejects_bad_args () =
  let g, s0, _, _, h0, _ = net () in
  Alcotest.(check bool) "switch source rejected" true
    (try
       ignore (Worm.eval g ~src:s0 ~turns:[]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "turn outside alphabet rejected" true
    (try
       ignore (Worm.eval g ~src:h0 ~turns:[ 9 ]);
       false
     with Invalid_argument _ -> true)

(* Property: a successful loopback's hop sequence is the forward hops
   followed by their exact reverses. *)
let loopback_palindrome_prop =
  QCheck.Test.make ~name:"loopback retraces its path" ~count:60
    QCheck.(pair small_int (list_of_size Gen.(1 -- 4) (int_range (-7) 7)))
    (fun (seed, turns) ->
      let turns = List.map (fun t -> if t = 0 then 1 else t) turns in
      let rng = San_util.Prng.create (seed + 1) in
      let g =
        Generators.random_connected ~rng ~switches:5 ~hosts:3 ~extra_links:3 ()
      in
      let h0 = Option.get (Graph.host_by_name g "h0") in
      let t = Worm.eval g ~src:h0 ~turns:(Route.switch_probe turns) in
      match t.Worm.outcome with
      | Worm.Arrived n when n = h0 ->
        let hops = Array.of_list t.Worm.hops in
        let m = Array.length hops in
        m mod 2 = 0
        && (let ok = ref true in
            for i = 0 to (m / 2) - 1 do
              let fwd = hops.(i) and bwd = hops.(m - 1 - i) in
              if
                fwd.Worm.exit_end <> bwd.Worm.entry_end
                || fwd.Worm.entry_end <> bwd.Worm.exit_end
              then ok := false
            done;
            !ok)
      | _ -> true)

(* ---------- collision models (§2.3.1) ---------- *)

(* Ring of three switches lets a probe reuse an edge: h0-s0, triangle
   s0-s1-s2-s0. *)
let triangle () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g () in
  let s1 = Graph.add_switch g () in
  let s2 = Graph.add_switch g () in
  let h0 = Graph.add_host g ~name:"h0" in
  let h1 = Graph.add_host g ~name:"h1" in
  Graph.connect g (h0, 0) (s0, 0);
  Graph.connect g (h1, 0) (s1, 7);
  Graph.connect g (s0, 1) (s1, 1);
  Graph.connect g (s1, 2) (s2, 2);
  Graph.connect g (s2, 3) (s0, 3);
  (g, h0)

(* A walk of the one evaluator, and whether the collision model says
   it blocks. *)
let walk_of ?(mirror = false) g ~src ~turns =
  let w = Worm.walk () in
  Worm.fill w g ~src ~turns ~mirror;
  w

let host_blocks model params w =
  Collision.host_blocking_hop (Collision.stamps ()) model params w >= 0

let switch_blocks model params ~forward_hops w =
  Collision.switch_blocking_hop (Collision.stamps ()) model params ~forward_hops w
  >= 0

let test_circuit_host_probe_same_direction_blocks () =
  let g, h0 = triangle () in
  (* Around the triangle twice in the same direction, then to h1:
     turns around: s0 in0 out1; s1 in1 out2; s2 in2 out3; s0 in3 out1
     (turn -2); s1 in1 out7 -> h1. First lap then reuse edge s0->s1. *)
  let lap_then_host = [ 1; 1; 1; -2; 6 ] in
  let w = walk_of g ~src:h0 ~turns:lap_then_host in
  (match Worm.outcome w with
  | Worm.Arrived _ -> ()
  | o -> Alcotest.failf "should structurally arrive, got %a" Worm.pp_outcome o);
  Alcotest.(check bool) "circuit blocks same-direction reuse" true
    (host_blocks Collision.Circuit Params.default w);
  Alcotest.(check int) "blocking hop is the first reuse" 4
    (Collision.host_blocking_hop (Collision.stamps ()) Collision.Circuit
       Params.default w);
  Alcotest.(check bool) "cut-through with tiny worm survives" false
    (host_blocks Collision.Cut_through Params.default w)

let test_circuit_simple_path_ok () =
  let g, h0 = triangle () in
  let w = walk_of g ~src:h0 ~turns:[ 1; 6 ] in
  Alcotest.(check bool) "simple path never blocks" false
    (host_blocks Collision.Circuit Params.default w)

let test_circuit_switch_probe_either_direction_blocks () =
  let g, h0 = triangle () in
  (* Forward path crosses edge s0-s1 and then comes back over it in the
     opposite direction before bouncing: s0 out1 -> s1 in1, turn 0 is
     the bounce... instead make the forward path itself reuse the edge
     in reverse: s0 ->(1) s1 ->(back, turn 0 not allowed in forward) ...
     Use the triangle: forward = 1,1,1 ends at s0 having used three
     distinct edges; then -2 crosses s0->s1 again: either-direction
     reuse means undirected reuse; test with forward path 1,1,1,-2. *)
  let turns = [ 1; 1; 1; -2 ] in
  let w = walk_of ~mirror:true g ~src:h0 ~turns in
  Alcotest.(check bool) "switch probe blocked on undirected reuse" true
    (switch_blocks Collision.Circuit Params.default
       ~forward_hops:(List.length turns + 1) w)

let test_switch_probe_clean_loop_ok () =
  let g, h0 = triangle () in
  let turns = [ 1; 1 ] in
  let w = walk_of ~mirror:true g ~src:h0 ~turns in
  (match Worm.outcome w with
  | Worm.Arrived n -> Alcotest.(check int) "home" h0 n
  | o -> Alcotest.failf "unexpected %a" Worm.pp_outcome o);
  Alcotest.(check bool) "clean loopback not blocked (circuit)" false
    (switch_blocks Collision.Circuit Params.default ~forward_hops:3 w)

let test_cut_through_blocks_big_worm () =
  let g, h0 = triangle () in
  (* A worm longer than the per-port buffering with a short return gap
     must step on its own tail. *)
  let params = { Params.default with Params.probe_payload_bytes = 10_000 } in
  let w = walk_of g ~src:h0 ~turns:[ 1; 1; 1; -2; 6 ] in
  Alcotest.(check bool) "fat worm blocks in cut-through" true
    (host_blocks Collision.Cut_through params w)

let test_drain_model () =
  Alcotest.(check (float 1e-9)) "small worm fully buffered" 0.0
    (Params.worm_drain_ns Params.default ~route_flits:4);
  let p = { Params.default with Params.probe_payload_bytes = 208 } in
  let drain = Params.worm_drain_ns p ~route_flits:0 in
  Alcotest.(check bool) "100 bytes over the buffer take time" true
    (drain > 0.0 && drain < 1000.0)

(* ---------- the probe service ---------- *)

let test_network_host_probe () =
  let g, _, _, _, h0, _ = net () in
  let n = Network.create g in
  (match Network.host_probe n ~src:h0 ~turns:[ 3; -5 ] with
  | Network.Host name, cost ->
    Alcotest.(check string) "found h1" "h1" name;
    Alcotest.(check bool) "hit cheaper than timeout" true
      (cost < Network.probe_cost_miss n)
  | _ -> Alcotest.fail "expected host response");
  (match Network.host_probe n ~src:h0 ~turns:[ 2 ] with
  | Network.Nothing, cost ->
    Alcotest.(check (float 1.0)) "miss costs timeout" (Network.probe_cost_miss n) cost
  | _ -> Alcotest.fail "expected nothing");
  Alcotest.(check int) "host probes counted" 2 (Network.host_probes n);
  Alcotest.(check int) "host hits counted" 1 (Network.host_hits n)

let test_network_switch_probe () =
  let g, _, _, _, h0, _ = net () in
  let n = Network.create g in
  (match Network.switch_probe n ~src:h0 ~turns:[ 3 ] with
  | Network.Switch, _ -> ()
  | _ -> Alcotest.fail "expected switch response");
  (* A probe towards a host must not report a switch. *)
  (match Network.switch_probe n ~src:h0 ~turns:[ 3; -5 ] with
  | Network.Nothing, _ -> ()
  | _ -> Alcotest.fail "host direction gives nothing");
  Alcotest.(check int) "switch probes" 2 (Network.switch_probes n);
  Alcotest.(check int) "switch hits" 1 (Network.switch_hits n)

let test_network_silent_host () =
  let g, _, _, _, h0, h1 = net () in
  let n = Network.create ~responding:(fun x -> x <> h1) g in
  (match Network.host_probe n ~src:h0 ~turns:[ 3; -5 ] with
  | Network.Nothing, _ -> ()
  | _ -> Alcotest.fail "silent host must not answer");
  (* The mapper's own daemon responds. *)
  match Network.host_probe n ~src:h0 ~turns:(Route.switch_probe [ 3 ]) with
  | Network.Host name, _ -> Alcotest.(check string) "self-reply" "h0" name
  | _ -> Alcotest.fail "mapper answers itself"

let test_network_loop_probe () =
  let g, _, _, _, h0, _ = net () in
  let n = Network.create g in
  (* s2 reached via [4]; its ports 5 and 6 are cabled together: from
     entry port 2, turn +3 exits port 5, re-entering at 6 (d = +1). *)
  (match Network.loop_probe n ~src:h0 ~turns:[ 4 ] ~turn:3 with
  | Some d, _ -> Alcotest.(check int) "relative re-entry" 1 d
  | None, _ -> Alcotest.fail "loopback cable not seen");
  match Network.loop_probe n ~src:h0 ~turns:[ 3 ] ~turn:1 with
  | None, _ -> ()
  | Some _, _ -> Alcotest.fail "no cable on s1"

let test_network_jitter_reproducible () =
  let g, _, _, _, h0, _ = net () in
  let run seed =
    let n = Network.create ~jitter:(0.1, San_util.Prng.create seed) g in
    let _, c1 = Network.host_probe n ~src:h0 ~turns:[ 3; -5 ] in
    let _, c2 = Network.host_probe n ~src:h0 ~turns:[ 2 ] in
    (c1, c2)
  in
  Alcotest.(check bool) "same seed, same costs" true (run 5 = run 5);
  Alcotest.(check bool) "different seed, different costs" true (run 5 <> run 6)

let test_network_embedded_slowdown () =
  let g, _, _, _, h0, _ = net () in
  let fastn = Network.create g in
  let slown = Network.create ~software_slowdown:2.0 g in
  let _, cf = Network.host_probe fastn ~src:h0 ~turns:[ 3; -5 ] in
  let _, cs = Network.host_probe slown ~src:h0 ~turns:[ 3; -5 ] in
  Alcotest.(check bool) "slowdown raises cost" true (cs > cf)

(* Property: host_probe responses are consistent with bare worm
   evaluation — a Host response implies the worm structurally arrives
   at a host of that name. *)
let response_consistency_prop =
  QCheck.Test.make ~name:"probe response consistent with worm semantics"
    ~count:100
    QCheck.(pair small_int (list_of_size Gen.(0 -- 5) (int_range (-7) 7)))
    (fun (seed, turns) ->
      let turns = List.map (fun t -> if t = 0 then 2 else t) turns in
      let rng = San_util.Prng.create (seed + 1) in
      let g =
        Generators.random_connected ~rng ~switches:6 ~hosts:4 ~extra_links:2 ()
      in
      let h0 = Option.get (Graph.host_by_name g "h0") in
      let n = Network.create g in
      match Network.host_probe n ~src:h0 ~turns with
      | Network.Host name, _ -> (
        let t = Worm.eval g ~src:h0 ~turns in
        match t.Worm.outcome with
        | Worm.Arrived h -> Graph.name g h = name
        | _ -> false)
      | Network.Nothing, _ -> true
      | Network.Switch, _ -> false)

(* ---------- the one evaluator against the list reference ---------- *)

module Fabric_stats = San_telemetry.Fabric_stats

(* A turn string that mostly follows real wires (so worms arrive,
   strand, loop back over their own channels and collide), with the
   occasional turn drawn from the whole alphabet. *)
let random_turns rng g ~src ~len =
  let radix = Graph.radix g in
  let any () = San_util.Prng.int_in rng (-(radix - 1)) (radix - 1) in
  let rec go pos k acc =
    if k = 0 then List.rev acc
    else
      let follow =
        match pos with
        | Some (node, in_port) when San_util.Prng.int rng 8 > 0 -> (
          match Graph.wired_ports g node with
          | [] -> None
          | ports ->
            let p, peer =
              List.nth ports (San_util.Prng.int rng (List.length ports))
            in
            Some (p - in_port, peer))
        | Some _ | None -> None
      in
      match follow with
      | Some (turn, peer) -> go (Some peer) (k - 1) (turn :: acc)
      | None -> go None (k - 1) (any () :: acc)
  in
  go (Graph.neighbor g (src, 0)) len []

let hop_option (w : Worm.walk) j = if j < 0 then None else Some (Worm.hop w j)

(* Worm level: the walk's read-out, and the hop each collision model
   blocks at, equal the reference for plain and mirrored routes. *)
let check_walks ~what g stamps model params ~src ~turns =
  let w = Worm.walk () in
  Worm.fill w g ~src ~turns ~mirror:false;
  let ref_trace = Worm_reference.eval g ~src ~turns in
  if Worm.trace_of w <> ref_trace || Worm.eval g ~src ~turns <> ref_trace then
    Alcotest.failf "%s: walk of %s differs" what (Route.to_string turns);
  if
    hop_option w (Collision.host_blocking_hop stamps model params w)
    <> Worm_reference.host_blocking_hop model params ref_trace
  then
    Alcotest.failf "%s: host blocking hop of %s differs" what
      (Route.to_string turns);
  Worm.fill w g ~src ~turns ~mirror:true;
  let loop = Route.switch_probe turns in
  let ref_loop = Worm_reference.eval g ~src ~turns:loop in
  if Worm.trace_of w <> ref_loop then
    Alcotest.failf "%s: mirrored walk of %s differs" what (Route.to_string turns);
  let forward_hops = List.length turns + 1 in
  if
    hop_option w
      (Collision.switch_blocking_hop stamps model params ~forward_hops w)
    <> Worm_reference.switch_blocking_hop model params ~forward_hops ref_loop
  then
    Alcotest.failf "%s: switch blocking hop of %s differs" what
      (Route.to_string turns)

(* Every channel either table has touched, in both tables. *)
let check_tables ~what g a b =
  for n = 0 to Graph.num_nodes g - 1 do
    for p = 0 to Graph.ports_of g n - 1 do
      if Fabric_stats.port_stat a (n, p) <> Fabric_stats.port_stat b (n, p) then
        Alcotest.failf "%s: fabric counters of channel (%d,%d) differ" what n p
    done
  done

let fat_worms = { Params.default with Params.probe_payload_bytes = 400 }

let test_reference_agreement () =
  let probes = ref 0 and collisions = ref 0 in
  for seed = 0 to 149 do
    let case = San_check.Fuzz_gen.gen ~seed:(seed * 7919) in
    let g = case.San_check.Fuzz_gen.graph in
    let hosts = Array.of_list (Graph.hosts g) in
    let silent = case.San_check.Fuzz_gen.silent in
    let responding h = not (List.mem (Graph.name g h) silent) in
    let rng = San_util.Prng.create (seed + 1) in
    if Array.length hosts > 0 then
      List.iter
        (fun (model, params) ->
          let what =
            Printf.sprintf "case %d, %s, %d-byte payload" seed
              (Collision.model_to_string model) params.Params.probe_payload_bytes
          in
          (* The network resolves the installed table at creation. *)
          let table = Fabric_stats.create () in
          let ref_table = Fabric_stats.create () in
          Fabric_stats.install table;
          let net =
            Fun.protect ~finally:Fabric_stats.uninstall (fun () ->
                Network.create ~model ~params ~responding g)
          in
          let rnet =
            Worm_reference.net ~model ~params ~responding ~fabric:ref_table g
          in
          (* Host probes, host hits, switch probes, switch hits. *)
          let expect = Array.make 4 0 in
          let tally ~host ~hit =
            let i = if host then 0 else 2 in
            expect.(i) <- expect.(i) + 1;
            if hit then expect.(i + 1) <- expect.(i + 1) + 1
          in
          let stamps = Collision.stamps () in
          for _ = 1 to 40 do
            let src = San_util.Prng.choose rng hosts in
            let turns = random_turns rng g ~src ~len:(San_util.Prng.int rng 12) in
            check_walks ~what g stamps model params ~src ~turns;
            let same pp a b =
              if a <> b then
                Alcotest.failf "%s: %s of %s: %s, reference %s" what "probe"
                  (Route.to_string turns) (pp a) (pp b)
            in
            let show_resp = function
              | Network.Host n, c -> Printf.sprintf "host %s %.1f" n c
              | Network.Switch, c -> Printf.sprintf "switch %.1f" c
              | Network.Nothing, c -> Printf.sprintf "nothing %.1f" c
            in
            incr probes;
            (match San_util.Prng.int rng 4 with
            | 0 ->
              let r = Network.host_probe net ~src ~turns in
              same show_resp r (Worm_reference.host_probe rnet ~src ~turns);
              tally ~host:true ~hit:(fst r <> Network.Nothing)
            | 1 ->
              let r = Network.switch_probe net ~src ~turns in
              same show_resp r (Worm_reference.switch_probe rnet ~src ~turns);
              tally ~host:false ~hit:(fst r <> Network.Nothing)
            | 2 ->
              let ((a, _) as r) = Network.walk_probe net ~src ~turns in
              same
                (fun (a, c) ->
                  match a with
                  | Some (n, k) -> Printf.sprintf "%s after %d, %.1f" n k c
                  | None -> Printf.sprintf "none %.1f" c)
                r
                (Worm_reference.walk_probe rnet ~src ~turns);
              tally ~host:true ~hit:(a <> None)
            | _ ->
              let r = Graph.radix g - 1 in
              let turn = San_util.Prng.int_in rng (-r) r in
              let ((a, _) as r) = Network.loop_probe net ~src ~turns ~turn in
              same
                (fun (a, c) ->
                  match a with
                  | Some d -> Printf.sprintf "re-entry %+d, %.1f" d c
                  | None -> Printf.sprintf "none %.1f" c)
                r
                (Worm_reference.loop_probe rnet ~src ~turns ~turn);
              tally ~host:false ~hit:(a <> None))
          done;
          let counters =
            Network.
              [| host_probes net; host_hits net; switch_probes net;
                 switch_hits net |]
          in
          if counters <> expect then
            Alcotest.failf "%s: probe counters differ" what;
          check_tables ~what g table ref_table;
          List.iter
            (fun l -> collisions := !collisions + l.Fabric_stats.l_collisions)
            (Fabric_stats.links table g))
        [
          (Collision.Circuit, Params.default);
          (Collision.Cut_through, Params.default);
          (Collision.Cut_through, fat_worms);
        ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d probes, %d collisions compared" !probes !collisions)
    true
    (!probes > 10_000 && !collisions > 100)

(* A probe network and the list reference side by side, plus a walk and
   stamps of the caller's own fed the same fills, so that every probe of
   a sequence is checked with whatever the previous probes left behind:
   responses and costs against the reference response function, walks
   and blocking hops against the reference evaluator. *)
type probe = Host_p | Switch_p | Walk_p | Loop_p of int

type rig = {
  d_g : Graph.t;
  d_model : Collision.model;
  d_params : Params.t;
  d_net : Network.t;
  d_ref : Worm_reference.net;
  d_walk : Worm.walk;
  d_stamps : Collision.stamps;
  d_what : string;
  mutable d_kept : int;  (* hops the walk's fills kept, over the sequence *)
  mutable d_sent : int;
}

let rig ~what ~responding model params g =
  {
    d_g = g;
    d_model = model;
    d_params = params;
    d_net = Network.create ~model ~params ~responding g;
    d_ref =
      Worm_reference.net ~model ~params ~responding
        ~fabric:(Fabric_stats.create ()) g;
    d_walk = Worm.walk ();
    d_stamps = Collision.stamps ();
    d_what = what;
    d_kept = 0;
    d_sent = 0;
  }

let show_probe = function
  | Host_p -> "host probe"
  | Switch_p -> "switch probe"
  | Walk_p -> "walk probe"
  | Loop_p t -> Printf.sprintf "loop probe (turn %+d)" t

(* The walk and the blocking hop of the probe's own fill. *)
(* Fill [w] and check its walk, and the blocking hop of its own probe
   kind, against the reference. *)
let fill_and_check ~what w stamps model params g ~src ~turns ~mirror =
  Worm.fill w g ~src ~turns ~mirror;
  let sent = if mirror then Route.switch_probe turns else turns in
  let expect = Worm_reference.eval g ~src ~turns:sent in
  let forward_hops = List.length turns + 1 in
  let got, want =
    if mirror then
      ( Collision.switch_blocking_hop stamps model params ~forward_hops w,
        Worm_reference.switch_blocking_hop model params ~forward_hops expect )
    else
      ( Collision.host_blocking_hop stamps model params w,
        Worm_reference.host_blocking_hop model params expect )
  in
  if Worm.trace_of w <> expect || hop_option w got <> want then
    Alcotest.failf "%s: walk or blocking hop of %s%s from %d differs" what
      (Route.to_string turns)
      (if mirror then " (loopback)" else "")
      src

let check_fill d kind ~src ~turns =
  fill_and_check ~what:d.d_what d.d_walk d.d_stamps d.d_model d.d_params
    d.d_g ~src ~turns ~mirror:(kind = Switch_p);
  (* Hops written by an earlier fill were kept by this one. *)
  for j = 0 to d.d_walk.nhops - 1 do
    if d.d_walk.hop_fill.(j) < d.d_walk.fills then d.d_kept <- d.d_kept + 1
  done

let send d kind ~src ~turns =
  check_fill d kind ~src ~turns;
  d.d_sent <- d.d_sent + 1;
  let same show a b =
    if a <> b then
      Alcotest.failf "%s: %s of %s from %d: %s, reference %s" d.d_what
        (show_probe kind) (Route.to_string turns) src (show a) (show b)
  in
  let show_resp = function
    | Network.Host n, c -> Printf.sprintf "host %s %.1f" n c
    | Network.Switch, c -> Printf.sprintf "switch %.1f" c
    | Network.Nothing, c -> Printf.sprintf "nothing %.1f" c
  in
  let show_opt f (a, c) =
    match a with
    | Some a -> Printf.sprintf "%s, %.1f" (f a) c
    | None -> Printf.sprintf "none %.1f" c
  in
  match kind with
  | Host_p ->
    same show_resp
      (Network.host_probe d.d_net ~src ~turns)
      (Worm_reference.host_probe d.d_ref ~src ~turns)
  | Switch_p ->
    same show_resp
      (Network.switch_probe d.d_net ~src ~turns)
      (Worm_reference.switch_probe d.d_ref ~src ~turns)
  | Walk_p ->
    same
      (show_opt (fun (n, k) -> Printf.sprintf "%s after %d" n k))
      (Network.walk_probe d.d_net ~src ~turns)
      (Worm_reference.walk_probe d.d_ref ~src ~turns)
  | Loop_p turn ->
    same
      (show_opt (Printf.sprintf "re-entry %+d"))
      (Network.loop_probe d.d_net ~src ~turns ~turn)
      (Worm_reference.loop_probe d.d_ref ~src ~turns ~turn)

(* A probe whose turn string leaves the alphabet half-way must raise in
   the network, the caller's walk and the reference alike. *)
let send_invalid d ~src ~turns =
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  if
    not
      (raises (fun () -> Network.host_probe d.d_net ~src ~turns)
      && raises (fun () ->
             Worm.fill d.d_walk d.d_g ~src ~turns ~mirror:false)
      && raises (fun () -> Worm_reference.host_probe d.d_ref ~src ~turns))
  then
    Alcotest.failf "%s: %s from %d should raise" d.d_what (Route.to_string turns)
      src

(* The turns out of one vertex, as the mapper sends them: for each turn
   a host probe, then a switch probe, on the vertex's turns plus one. *)
let children d ~src prefix =
  let r = Graph.radix d.d_g - 1 in
  for t = -r to r do
    if t <> 0 then begin
      let turns = prefix @ [ t ] in
      send d Host_p ~src ~turns;
      send d Switch_p ~src ~turns
    end
  done

(* The wire the walk crossed at hop [j], if it made that many. *)
let wire_at (w : Worm.walk) j =
  if j < w.nhops then Some ((w.exit_node.(j), w.exit_port.(j)),
                            (w.entry_node.(j), w.entry_port.(j)))
  else None

let shared_prefix_sequences ~what ~rng ~responding model params g hosts =
  let d = rig ~what ~responding model params g in
  let radix = Graph.radix g in
  for _ = 1 to 6 do
    let src = San_util.Prng.choose rng hosts in
    let prefix = random_turns rng g ~src ~len:(San_util.Prng.int rng 8) in
    (* The children of one vertex, then of one of its children. *)
    children d ~src prefix;
    let child = prefix @ [ San_util.Prng.int_in rng (-(radix - 1)) (radix - 1) ] in
    children d ~src child;
    (* A host probe after a switch probe on the same turns, and back. *)
    send d Switch_p ~src ~turns:prefix;
    send d Host_p ~src ~turns:prefix;
    send d Switch_p ~src ~turns:child;
    (* Loop and walk probes interleaved with the others. *)
    for _ = 1 to 4 do
      let tail = random_turns rng g ~src ~len:(San_util.Prng.int rng 6) in
      send d Walk_p ~src ~turns:(prefix @ tail);
      send d
        (Loop_p (San_util.Prng.int_in rng (-(radix - 1)) (radix - 1)))
        ~src ~turns:prefix;
      send d Switch_p ~src ~turns:(prefix @ tail);
      send d (Loop_p 1) ~src ~turns:(prefix @ tail)
    done;
    (* The same turns from another host. *)
    let other = San_util.Prng.choose rng hosts in
    send d Host_p ~src:other ~turns:prefix;
    send d Switch_p ~src:other ~turns:child;
    send d Host_p ~src ~turns:child;
    (* A wire of the walk cut between two probes, then put back. *)
    send d Host_p ~src ~turns:child;
    (match wire_at d.d_walk (San_util.Prng.int rng (max 1 d.d_walk.nhops)) with
    | Some (a, b) ->
      Graph.disconnect g a;
      send d Host_p ~src ~turns:child;
      send d Switch_p ~src ~turns:child;
      Graph.connect g a b;
      send d Switch_p ~src ~turns:child;
      send d Host_p ~src ~turns:child
    | None -> ());
    (* A probe that raises after loading some turns over a route it
       does not share, then one that shares them. *)
    let head = match prefix with a :: _ -> a | [] -> 0 in
    send d Host_p ~src ~turns:[ (if head = 1 then -1 else 1) ];
    send_invalid d ~src ~turns:(prefix @ [ radix ]);
    send d Host_p ~src ~turns:prefix;
    send d Switch_p ~src ~turns:prefix
  done;
  d

(* The same turns through one walk on the original and on a copy whose
   wiring differs on the walk's path while its edit count matches the
   original's: only the graphs' physical identity tells the walk not to
   resume. *)
let same_turns_on_a_copy ~what ~rng model params g hosts =
  let src = San_util.Prng.choose rng hosts in
  let turns = random_turns rng g ~src ~len:(4 + San_util.Prng.int rng 6) in
  let w = Worm.walk () and stamps = Collision.stamps () in
  let fill g' mirror =
    fill_and_check
      ~what:(what ^ if g' == g then ", original" else ", copy")
      w stamps model params g' ~src ~turns ~mirror
  in
  fill g false;
  match wire_at w (w.nhops / 2) with
  | None -> ()
  | Some (a, b) -> (
    let copy = Graph.copy g in
    Graph.disconnect copy a;
    match Graph.wires copy with
    | [] -> ()
    | (x, _) :: _ ->
      Graph.disconnect copy x;
      (* Two edits that leave the original's wiring as it was. *)
      Graph.disconnect g a;
      Graph.connect g a b;
      Alcotest.(check int) (what ^ ": edit counts") (Graph.edits g)
        (Graph.edits copy);
      fill g false;
      fill copy false;
      fill copy true;
      fill g true;
      fill g false)

let test_shared_prefix_sequences () =
  let probes = ref 0 and kept = ref 0 in
  for seed = 0 to 59 do
    let case = San_check.Fuzz_gen.gen ~seed:((seed * 104_729) + 13) in
    let g = case.San_check.Fuzz_gen.graph in
    let hosts = Array.of_list (Graph.hosts g) in
    let silent = case.San_check.Fuzz_gen.silent in
    let responding h = not (List.mem (Graph.name g h) silent) in
    let rng = San_util.Prng.create (seed + 31) in
    if Array.length hosts > 0 then
      List.iter
        (fun (model, params) ->
          let what =
            Printf.sprintf "case %d, %s, %d-byte payload" seed
              (Collision.model_to_string model) params.Params.probe_payload_bytes
          in
          let d =
            shared_prefix_sequences ~what ~rng ~responding model params g hosts
          in
          probes := !probes + d.d_sent;
          kept := !kept + d.d_kept;
          same_turns_on_a_copy ~what ~rng model params g hosts)
        [
          (Collision.Circuit, Params.default);
          (Collision.Cut_through, Params.default);
          (Collision.Cut_through, fat_worms);
        ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d probes compared, %d hops kept" !probes !kept)
    true
    (!probes > 20_000 && !kept > !probes)

(* With obs, why and per-channel accounting off, a warm probe allocates
   only its returned pair — the same few words for a one-hop probe as
   for one that crosses a dozen wires. *)
let test_probe_allocation_pin () =
  Alcotest.(check bool) "telemetry off" true
    (not (San_obs.Obs.on ()) && (not (San_why.Why.on ()))
    && Fabric_stats.current () = None);
  let p = Option.get (San_fabric.Fabric.find_preset "ft-100") in
  let g = p.San_fabric.Fabric.p_build ~seed:1 in
  let net = Network.create g in
  let src = List.hd (Graph.hosts g) in
  let routes =
    List.filter_map
      (fun (s, _, turns) -> if s = src then Some turns else None)
      (San_routing.Routes.all (San_routing.Routes.compute g))
  in
  let len_of turns = List.length turns in
  let shortest = List.fold_left (fun m r -> min m (len_of r)) max_int routes in
  let longest = List.fold_left (fun m r -> max m (len_of r)) 0 routes in
  let of_len n = List.filter (fun r -> len_of r = n) routes in
  (* Misses that ping-pong between two switches (turn 0 bounces back
     out of the entry port) for a dozen crossings before colliding. *)
  let ping_pong r = List.hd r :: List.init 12 (fun _ -> 0) in
  let words_per send probes =
    let probes = Array.of_list probes in
    let n = Array.length probes and reps = 50 in
    for i = 0 to n - 1 do
      ignore (send probes.(i))
    done;
    Alloc.words (fun () ->
        for _ = 1 to reps do
          for i = 0 to n - 1 do
            ignore (send probes.(i))
          done
        done)
    /. float_of_int (reps * n)
  in
  let host turns = Network.host_probe net ~src ~turns in
  let switch turns = Network.switch_probe net ~src ~turns in
  let check_pin what send ~short ~long ~bound =
    let ws = words_per send short and wl = words_per send long in
    Alcotest.(check (float 0.0)) (what ^ ": independent of route length") ws wl;
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f words per probe, at most %.0f" what ws bound)
      true (ws <= bound)
  in
  (* [(Host name, cost)] is the pair (3 words), the [Host] block (2)
     and the boxed cost (2). *)
  check_pin "host hits" host ~short:(of_len shortest) ~long:(of_len longest)
    ~bound:7.0;
  (* [(Nothing, cost)] / [(Switch, cost)]: the pair and the boxed cost. *)
  check_pin "host misses" host
    ~short:(List.map (fun r -> r @ [ 1 ]) (of_len shortest))
    ~long:(List.map ping_pong (of_len longest)) ~bound:5.0;
  check_pin "switch hits" switch
    ~short:(List.map (fun r -> [ List.hd r ]) (of_len longest))
    ~long:
      (List.map
         (fun r -> List.filteri (fun i _ -> i < len_of r - 1) r)
         (of_len longest))
    ~bound:5.0;
  check_pin "switch misses" switch ~short:(of_len shortest)
    ~long:(List.map ping_pong (of_len longest)) ~bound:5.0

let () =
  Alcotest.run "san_simnet"
    [
      ("route", [ Alcotest.test_case "shapes" `Quick test_route_shapes ]);
      ( "worm",
        [
          Alcotest.test_case "arrives" `Quick test_worm_arrives;
          Alcotest.test_case "illegal turn" `Quick test_worm_illegal_turn;
          Alcotest.test_case "no such wire" `Quick test_worm_no_such_wire;
          Alcotest.test_case "hit host too soon" `Quick test_worm_hit_host_too_soon;
          Alcotest.test_case "stranded" `Quick test_worm_stranded;
          Alcotest.test_case "zero-turn bounce" `Quick test_worm_zero_turn_bounce;
          Alcotest.test_case "same-switch cable" `Quick test_worm_same_switch_cable;
          Alcotest.test_case "unwired source" `Quick test_worm_unwired;
          Alcotest.test_case "bad arguments" `Quick test_worm_rejects_bad_args;
          qcheck loopback_palindrome_prop;
        ] );
      ( "collision",
        [
          Alcotest.test_case "circuit host same-direction" `Quick
            test_circuit_host_probe_same_direction_blocks;
          Alcotest.test_case "circuit simple ok" `Quick test_circuit_simple_path_ok;
          Alcotest.test_case "circuit switch either-direction" `Quick
            test_circuit_switch_probe_either_direction_blocks;
          Alcotest.test_case "clean loopback ok" `Quick test_switch_probe_clean_loop_ok;
          Alcotest.test_case "cut-through fat worm" `Quick
            test_cut_through_blocks_big_worm;
          Alcotest.test_case "drain model" `Quick test_drain_model;
        ] );
      ( "network",
        [
          Alcotest.test_case "host probe" `Quick test_network_host_probe;
          Alcotest.test_case "switch probe" `Quick test_network_switch_probe;
          Alcotest.test_case "silent host" `Quick test_network_silent_host;
          Alcotest.test_case "loop probe" `Quick test_network_loop_probe;
          Alcotest.test_case "jitter reproducible" `Quick
            test_network_jitter_reproducible;
          Alcotest.test_case "embedded slowdown" `Quick
            test_network_embedded_slowdown;
          qcheck response_consistency_prop;
        ] );
      ( "reference",
        [
          Alcotest.test_case "walks, collisions and probes agree" `Quick
            test_reference_agreement;
          Alcotest.test_case "shared-prefix sequences" `Quick
            test_shared_prefix_sequences;
          Alcotest.test_case "probe allocation pin" `Quick
            test_probe_allocation_pin;
        ] );
    ]
