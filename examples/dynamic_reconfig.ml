(* Dynamic reconfiguration: the paper's motivating scenario. System
   area networks "should be dynamically reconfigurable, automatically
   adapting to the addition or removal of hosts, switches and links"
   (§1). This example runs the periodic map-and-route cycle across a
   sequence of physical changes: a link failure, a switch removal, and
   a link addition.

   Run with: dune exec examples/dynamic_reconfig.exe *)

open San_topology
open San_simnet
open San_mapper

let previous_map : Graph.t option ref = ref None

let report_changes map =
  match !previous_map with
  | None -> ()
  | Some old_map -> (
    match Diff.diff ~old_map ~new_map:map with
    | [] -> Format.printf "         no change since last epoch@."
    | changes ->
      List.iter
        (fun c ->
          Format.printf "         change: %a@."
            (Diff.pp_change ~old_map ~new_map:map)
            c)
        changes)

let cycle epoch g =
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let net = Network.create g in
  let r = Berkeley.run net ~mapper in
  match r.Berkeley.map with
  | Error e -> Format.printf "epoch %d: mapping failed: %s@." epoch e
  | Ok map -> (
    report_changes map;
    previous_map := Some map;
    let table = San_routing.Routes.compute map in
    let st = San_routing.Routes.length_stats table in
    let reachable_hosts = Graph.num_hosts map in
    let delivery =
      match San_routing.Routes.verify_delivery ~against:g table with
      | Ok () -> "all routes deliver"
      | Error e -> "DELIVERY PROBLEM: " ^ e
    in
    Format.printf
      "epoch %d: %a | map %.0f ms, %d probes | %d reachable hosts, avg route %.2f turns | %s@."
      epoch Graph.pp_stats g
      (r.Berkeley.elapsed_ns /. 1e6)
      (Berkeley.total_probes r) reachable_hosts st.San_routing.Routes.avg_len
      delivery;
    match San_routing.Deadlock.check_routes table with
    | Ok () -> ()
    | Error e -> Format.printf "         DEADLOCK HAZARD: %s@." e)

let () =
  let rng = San_util.Prng.create 77 in
  let g, _ = Generators.now_c () in
  Format.printf "--- epoch 0: the pristine C subcluster ---@.";
  cycle 0 g;

  Format.printf "--- epoch 1: a switch-to-switch cable fails ---@.";
  let g1 = Faults.remove_random_links ~rng g ~count:1 in
  cycle 1 g1;

  Format.printf "--- epoch 2: a whole switch is pulled from the fabric ---@.";
  (* Remove a mid switch; the fat tree has enough redundancy that the
     network stays connected and the next cycle routes around it. *)
  let mid = Option.get (Graph.host_by_name g1 "C-h0") in
  let mid_switch = fst (Option.get (Graph.neighbor g1 (mid, 0))) in
  (* Taking out a leaf switch would strand its five hosts; take the
     leaf's first upstream switch instead. *)
  let upstream =
    Graph.wired_ports g1 mid_switch
    |> List.filter_map (fun (_, (n, _)) ->
           if Graph.is_host g1 n then None else Some n)
    |> List.hd
  in
  let g2 = Faults.isolate_switch g1 upstream in
  let mapper_side = Analysis.component_of g2 (Option.get (Graph.host_by_name g2 "C-util")) in
  let stranded =
    List.filter (fun h -> not (List.mem h mapper_side)) (Graph.hosts g2)
  in
  if stranded <> [] then
    Format.printf "(%d hosts stranded by the failure; mapping the rest)@."
      (List.length stranded)
  else
    Format.printf "(fat-tree redundancy: every host still reachable)@.";
  cycle 2 g2;

  Format.printf "--- epoch 3: an operator adds a fresh cable ---@.";
  (* The pulled switch's eight free ports dominate the random choice,
     so the new cable usually reattaches it by a single link — which
     makes that link a switch-bridge to a hostless island: Theorem 1
     maps N - F, so the map (correctly!) does not change. *)
  match Faults.add_random_link ~rng g2 with
  | Some g3 -> cycle 3 g3
  | None -> Format.printf "no free ports left@."
