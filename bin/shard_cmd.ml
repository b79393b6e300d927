(* shard: N concurrent mappers and a conflict-resolved merge. *)

open Cmdliner
open San_topology
module Runner = San_shard.Runner
module Merge = San_shard.Merge

let shards =
  let doc = "Number of concurrent mapper shards." in
  Arg.(value & opt (Cli.count ~min:1) 4 & info [ "shards" ] ~docv:"N" ~doc)

let stale =
  let doc =
    "Give shard $(docv) a stale-epoch view (a seeded recabling of two \
     overlap wires), forcing real merge conflicts. Enables the why \
     ledger so every resolution is justified by probe evidence."
  in
  Arg.(value & opt (some int) None & info [ "stale" ] ~docv:"IDX" ~doc)

let pp_resolution fmt (r : Merge.resolution) =
  Format.fprintf fmt "resolved [%s] shard %d over shard %d: %s (%s)%s"
    r.Merge.r_class r.Merge.r_winner r.Merge.r_loser r.Merge.r_action
    r.Merge.r_detail
    (if r.Merge.r_did >= 0 then Printf.sprintf " [why #%d]" r.Merge.r_did
     else "")

(* The runner's root: the --mapper host when one was named, else the
   planner picks. *)
let root (t : Cli.topology) mapper_name =
  Option.map (fun _ -> Cli.host t.g mapper_name) mapper_name

(* The single-mapper baseline the merged map must be isomorphic to. *)
let compare_solo (t : Cli.topology) mapper_name (r : Runner.result) merged =
  let module B = San_mapper.Berkeley in
  let net = San_simnet.Network.create t.g in
  let s = B.run ~depth:(Cli.depth t None) net ~mapper:(Cli.host t.g mapper_name) in
  let solo_probes = B.total_probes s in
  Format.printf "solo baseline: %d probes, %.1f ms simulated, depth %d@."
    solo_probes (s.B.elapsed_ns /. 1e6) s.B.depth_used;
  let ok =
    match s.B.map with
    | Error e ->
      Format.printf "solo baseline export failed: %s@." e;
      false
    | Ok solo -> (
      match Iso.check ~map:merged ~actual:solo () with
      | Ok () ->
        Format.printf "verified: merged map isomorphic to solo map@.";
        true
      | Error e ->
        Format.printf "solo comparison FAILED: %s@." e;
        false)
  in
  if s.B.elapsed_ns > 0.0 then
    Format.printf "ratios vs solo: %.2fx probes, %.2fx simulated wall@."
      (float_of_int r.Runner.total_probes /. float_of_int solo_probes)
      (r.Runner.wall_ns /. s.B.elapsed_ns);
  ok

let run (t : Cli.topology) mapper_name shards stale compare json out_dir obs =
  Cli.with_obs obs @@ fun () ->
  Cli.with_why (stale <> None) @@ fun () ->
  match
    Runner.run ~seed:t.seed ?root:(root t mapper_name) ?stale t.g ~shards
  with
  | Error e ->
    Format.printf "shard planning failed: %s@." e;
    1
  | Ok r -> (
    Format.printf "plan: %a@." San_shard.Region.pp r.Runner.plan;
    List.iter
      (fun s ->
        Format.printf
          "shard %d: mapper %-8s radius %d depth %2d probes %7d/%d%s %8.1f \
           ms simulated, %d map nodes%s@."
          s.Runner.s_idx s.Runner.s_mapper s.Runner.s_radius s.Runner.s_depth
          s.Runner.s_probes s.Runner.s_budget
          (if s.Runner.s_over_budget then " (OVER BUDGET)" else "")
          (s.Runner.s_elapsed_ns /. 1e6)
          s.Runner.s_map_nodes
          (if s.Runner.s_stale then " [stale view]" else ""))
      r.Runner.reports;
    List.iter
      (fun res -> Format.printf "%a@." pp_resolution res)
      r.Runner.resolutions;
    if r.Runner.dropped_views <> [] then
      Format.printf "dropped views: %s@."
        (String.concat ", " (List.map string_of_int r.Runner.dropped_views));
    Format.printf
      "sharded: %d probes total, %.1f ms simulated wall (slowest shard; \
       %.2f ms host merge), %.2fx parallel speedup, coordinator %s@."
      r.Runner.total_probes
      (r.Runner.wall_ns /. 1e6)
      (r.Runner.merge_ns /. 1e6)
      (if r.Runner.wall_ns > 0.0 then r.Runner.sum_ns /. r.Runner.wall_ns
       else 1.0)
      r.Runner.coordinator;
    match r.Runner.map with
    | Error e ->
      Format.printf "merge FAILED: %s@." e;
      1
    | Ok merged ->
      Format.printf "merged map: %a@." Graph.pp_stats merged;
      let ok =
        Cli.verify_n_minus_f t merged ~ok:"verified: merged map"
          ~failed:"verification FAILED"
      in
      let ok = (not compare || compare_solo t mapper_name r merged) && ok in
      Cli.map_artifacts ~out_dir ~prefix:"shard-map-" t merged;
      Option.iter (fun f -> Cli.save f (Cli.map_text merged)) json;
      Cli.status ok)

let cmd =
  let compare_solo =
    let doc =
      "Also run the single-mapper baseline and check the merged map is \
       isomorphic to it (and report the probe and wall-clock ratios)."
    in
    Arg.(value & flag & info [ "compare-solo" ] ~doc)
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Map a fabric with N concurrent mapper shards and a \
          conflict-resolved merge")
    Term.(
      const run $ Cli.topology $ Cli.mapper $ shards $ stale $ compare_solo
      $ Cli.json $ Cli.out_dir $ Cli.obs_all)
