(* The complete deployed system, one epoch at a time.

   This is what actually runs on the paper's utility host: a daemon
   that periodically (1) checks whether the saved map still matches
   the fabric with a cheap one-probe-per-port verification sweep,
   (2) when something changed, patches the map (cables lost) or
   remaps in full (anything else), (3) reports the
   change to the operator, (4) recomputes mutually deadlock-free
   routes, (5) distributes each host's route slice in-band, and
   (6) persists the map for the next epoch.

   Run with: dune exec examples/epoch_daemon.exe
   (keeps its state in san_epoch_state.json in the current directory) *)

open San_topology
open San_mapper

let state_file = "san_epoch_state.json"

let epoch n g =
  Format.printf "=== epoch %d ===@." n;
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let net = San_simnet.Network.create g in
  (* 1-2: verify-or-remap. *)
  let map, how =
    match Serial.load state_file with
    | Error _ ->
      let r = Berkeley.run net ~mapper in
      ( Result.get_ok r.Berkeley.map,
        Printf.sprintf "cold start: full remap, %d probes, %.0f ms"
          (Berkeley.total_probes r)
          (r.Berkeley.elapsed_ns /. 1e6) )
    | Ok previous -> (
      let r = Incremental.run net ~mapper ~previous in
      match (r.Incremental.verdict, r.Incremental.map) with
      | Incremental.Unchanged, Ok m ->
        ( m,
          Printf.sprintf "verified unchanged with %d probes in %.0f ms"
            r.Incremental.verify_probes
            (r.Incremental.total_elapsed_ns /. 1e6) )
      | Incremental.Changed d, Ok m ->
        (* 3: tell the operator what moved. *)
        List.iter
          (fun c ->
            Format.printf "  change: %a@."
              (Diff.pp_change ~old_map:previous ~new_map:m)
              c)
          (Diff.diff ~old_map:previous ~new_map:m);
        ( m,
          Printf.sprintf "%d discrepancies; %s, total %.0f ms" d
            (match r.Incremental.repair with
            | Incremental.Patched lost ->
              Printf.sprintf "patched (%d wires lost)" lost
            | Incremental.No_repair | Incremental.Remapped -> "full remap")
            (r.Incremental.total_elapsed_ns /. 1e6) )
      | _, Error e -> failwith ("remap failed: " ^ e))
  in
  Format.printf "  map: %a (%s)@." Graph.pp_stats map how;
  (* 4: routes. *)
  let table = San_routing.Routes.compute map in
  let ok check = match check with Ok _ -> "ok" | Error e -> e in
  Format.printf "  routes: %d pairs, deadlock %s, delivery-on-fabric %s@."
    (San_routing.Routes.length_stats table).San_routing.Routes.pairs
    (ok (San_routing.Deadlock.check_routes table))
    (ok (San_routing.Routes.verify_delivery ~against:g table));
  (* 5: distribute. *)
  (match San_routing.Distribute.simulate table ~actual:g ~leader:mapper with
  | Ok rep ->
    Format.printf "  distributed %d slices in %.1f ms (%d missed)@."
      rep.San_routing.Distribute.hosts_updated
      (rep.San_routing.Distribute.duration_ns /. 1e6)
      rep.San_routing.Distribute.hosts_missed
  | Error e -> Format.printf "  distribution failed: %s@." e);
  (* 6: persist. *)
  Serial.save map state_file

let () =
  if Sys.file_exists state_file then Sys.remove state_file;
  let g, _ = Generators.now_cab () in
  epoch 0 g;
  epoch 1 g;
  (* something breaks between epochs 1 and 2 *)
  let rng = San_util.Prng.create 41 in
  let g2 = Faults.remove_random_links ~rng g ~count:2 in
  epoch 2 g2;
  epoch 3 g2;
  Sys.remove state_file
