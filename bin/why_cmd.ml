(* explain, blame, postmortem: the provenance ledger surfaced. *)

open Cmdliner
open San_topology
module Explain = San_why.Explain

let save_dot snap roots =
  Option.iter (fun f -> Cli.save f (Explain.dot_of_roots snap roots))

(* Sharded explain: re-run the sharded mapping with the ledger on and
   print the justification tree of every merge-conflict resolution.
   Only the [conflicts] query makes sense here — {!San_why.Replay}
   rebuilds a model from vid-keyed notes, and with N shard models
   appending to one ledger those ids collide, so switch/link/route
   queries stay solo-only. *)
let explain_conflicts (t : Cli.topology) root shards stale =
  match San_shard.Runner.run ~seed:t.seed ?root ?stale t.g ~shards with
  | Error e ->
    Format.printf "shard planning failed: %s@." e;
    1
  | Ok r -> (
    match r.San_shard.Runner.resolutions with
    | [] ->
      Format.printf "no merge conflicts: %d shard views agreed%s@." shards
        (if stale = None then
           " (quiescent shards never contradict; try --stale IDX)"
         else "");
      0
    | resolutions ->
      let snap = San_why.Why.capture () in
      let n = List.length resolutions in
      Format.printf "%d merge conflict%s resolved:@." n (if n = 1 then "" else "s");
      List.iter
        (fun res ->
          Format.printf "%a@." Shard_cmd.pp_resolution res;
          if res.San_shard.Merge.r_did >= 0 then
            Explain.pp_roots snap Format.std_formatter
              [ res.San_shard.Merge.r_did ])
        resolutions;
      0)

let explain_route map table snap replay dot src dst =
  match (Graph.host_by_name map src, Graph.host_by_name map dst) with
  | None, _ ->
    Format.printf "%s: no such host in the map@." src;
    1
  | _, None ->
    Format.printf "%s: no such host in the map@." dst;
    1
  | Some s, Some d -> (
    match San_routing.Routes.route table ~src:s ~dst:d with
    | None ->
      Format.printf "no route %s -> %s@." src dst;
      1
    | Some turns ->
      let hops = (San_simnet.Worm.eval map ~src:s ~turns).San_simnet.Worm.hops in
      Format.printf "route %s -> %s: turns [%s], %d hops@." src dst
        (String.concat ";" (List.map string_of_int turns))
        (List.length hops);
      let per_hop = Explain.route_roots ~map ~snap ~replay ~hops in
      List.iter
        (fun (desc, roots) ->
          Format.printf "%s@." desc;
          Explain.pp_roots snap Format.std_formatter roots)
        per_hop;
      save_dot snap (List.concat_map snd per_hop) dot;
      0)

let run_explain (t : Cli.topology) mapper_name query shards stale dot =
  Cli.with_why true @@ fun () ->
  let mapper = Cli.host t.g mapper_name in
  if query = "conflicts" then
    explain_conflicts t (Shard_cmd.root t mapper_name) (max shards 2) stale
  else
    let net = San_simnet.Network.create t.g in
    match (San_mapper.Berkeley.run net ~mapper).San_mapper.Berkeley.map with
    | Error e ->
      Format.printf "mapping failed: %s@." e;
      1
    | Ok map -> (
      (* Computing routes up front records the UP*/DOWN* orientation
         entries, so link and route explanations can cite them. *)
      let table = San_routing.Routes.compute map in
      let snap = San_why.Why.capture () in
      let replay = San_why.Replay.build snap in
      match Explain.parse_query query with
      | Error e ->
        Format.eprintf "%s@." e;
        2
      | Ok (Explain.Route (src, dst)) ->
        explain_route map table snap replay dot src dst
      | Ok q -> (
        match Explain.roots_of ~actual:t.g ~map ~snap ~replay q with
        | Error e ->
          Format.printf "%s@." e;
          1
        | Ok (header, roots) ->
          Format.printf "%s@." header;
          Explain.pp_roots snap Format.std_formatter roots;
          save_dot snap roots dot;
          0))

let run_blame old_spec new_spec seed mapper_name =
  Cli.with_why true @@ fun () ->
  let run spec =
    let g, _ = Cli.build spec seed in
    let mapper = Cli.host g mapper_name in
    let net = San_simnet.Network.create g in
    match (San_mapper.Berkeley.run net ~mapper).San_mapper.Berkeley.map with
    | Error e -> Error (Printf.sprintf "%s: mapping failed: %s" spec e)
    | Ok map -> Ok { San_why.Blame.b_map = map; b_snap = San_why.Why.capture () }
  in
  match
    Result.bind (run old_spec) (fun o ->
        Result.map (fun n -> (o, n)) (run new_spec))
  with
  | Error e ->
    Format.printf "%s@." e;
    1
  | Ok (old_, new_) -> (
    match San_why.Blame.run ~old_ ~new_ with
    | [] ->
      Format.printf "maps agree: nothing to blame@.";
      0
    | attrs ->
      let n = List.length attrs in
      Format.printf "%d change%s from %s to %s:@." n
        (if n = 1 then "" else "s")
        old_spec new_spec;
      List.iter
        (fun a -> Format.printf "%a@." San_why.Blame.pp_attribution a)
        attrs;
      0)

let run_postmortem file =
  let recording = Cli.loaded file (San_why.Postmortem.read file) in
  Format.printf "%a" San_why.Postmortem.pp recording;
  0

let explain =
  let why =
    let doc =
      "The map fact to explain: $(b,switch:NAME) (map name m<vid> or the \
       actual switch's name), $(b,link:A.P-B.Q) with each end written \
       NAME.PORT (e.g. $(b,link:h0.0-m1.0)), $(b,route:H1->H2), or \
       $(b,conflicts) (sharded runs: justify every merge-conflict \
       resolution; combine with $(b,--shards)/$(b,--stale))."
    in
    Arg.(required & opt (some string) None & info [ "why" ] ~docv:"QUERY" ~doc)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Map with the provenance ledger on, then print the minimal \
          justification tree for a switch, link, route, or sharded \
          merge conflicts")
    Term.(
      const run_explain $ Cli.topology $ Cli.mapper $ why $ Shard_cmd.shards
      $ Shard_cmd.stale $ Cli.dot)

let blame =
  let spec which =
    let doc =
      Printf.sprintf "Topology spec of the $(i,%s) run (same grammar as -t)."
        which
    in
    Arg.(required & opt (some string) None & info [ which ] ~docv:"SPEC" ~doc)
  in
  Cmd.v
    (Cmd.info "blame"
       ~doc:
         "Map two fabrics and attribute each map difference to the first \
          probe whose answer explains it")
    Term.(const run_blame $ spec "old" $ spec "new" $ Cli.seed $ Cli.mapper)

let postmortem =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FLIGHT.jsonl")
  in
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:
         "Reconstruct the epoch story from a daemon flight recording \
          (flight-*.jsonl)")
    Term.(const run_postmortem $ file)
