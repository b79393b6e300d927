(* topo: a topology's statistics; gen: a generated fabric as
   replayable artifacts. *)

open Cmdliner
open San_topology

let run_topo (t : Cli.topology) dot =
  let g = t.g in
  Format.printf "%s: %a@." t.spec Graph.pp_stats g;
  Format.printf "connected %b, switch bridges %d, |F| %d@."
    (Analysis.is_connected g)
    (List.length (Core_set.switch_bridges g))
    (Array.fold_left
       (fun a b -> if b then a + 1 else a)
       0
       (Core_set.separated_set g));
  if Cli.oracle_feasible g then begin
    Format.printf "diameter %d@." (Analysis.diameter g);
    match Graph.hosts g with
    | root :: _ ->
      Format.printf "Q = %d, oracle search depth Q+D+1 = %d@."
        (Core_set.q_bound g ~root)
        (Core_set.search_depth g ~root)
    | [] -> ()
  end
  else
    Format.printf
      "large fabric: diameter/oracle bounds skipped%s@."
      (match t.hint with
      | Some d -> Printf.sprintf " (suggested exploration depth %d)" d
      | None -> "");
  Option.iter (fun f -> Cli.save f (Dot.to_string ~graph_name:t.spec g)) dot;
  0

let run_gen spec seed out_dir dot json =
  match Cli.fabric_spec spec with
  | Some (Error e) ->
    Format.eprintf "%s@." e;
    2
  | Some (Ok p) ->
    let g = p.San_fabric.Fabric.p_build ~seed in
    let header = San_fabric.Fabric.header_lines p ~seed g in
    List.iter (fun l -> Format.printf "# %s@." l) header;
    let commented prefix =
      String.concat "" (List.map (fun l -> prefix ^ l ^ "\n") header)
    in
    let dot_text =
      commented "// " ^ Dot.to_string ~graph_name:p.San_fabric.Fabric.p_name g
    in
    if out_dir <> "" then begin
      let stem =
        Cli.artifact out_dir
          (Printf.sprintf "fabric-%s-seed%d"
             (Cli.spec_stem p.San_fabric.Fabric.p_name)
             seed)
      in
      Cli.save (stem ^ ".spec") (commented "# ");
      Cli.save (stem ^ ".dot") dot_text
    end;
    Option.iter (fun f -> Cli.save f dot_text) dot;
    Option.iter (fun f -> Cli.save f (Cli.map_text g)) json;
    0
  | None ->
    Format.eprintf
      "gen needs a generated-fabric spec: -t fabric:PRESET or -t \
       fabric:key=value,... (presets: %s)@."
      (String.concat ", "
         (List.map
            (fun p -> p.San_fabric.Fabric.p_name)
            San_fabric.Fabric.presets));
    2

let topo =
  Cmd.v
    (Cmd.info "topo" ~doc:"Generate a topology and print its statistics")
    Term.(const run_topo $ Cli.topology $ Cli.dot)

let gen =
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a parametric fabric and emit it as replayable artifacts \
          (spec header + DOT, optional JSON)")
    Term.(const run_gen $ Cli.spec $ Cli.seed $ Cli.out_dir $ Cli.dot $ Cli.json)
