(* san_map: command-line front end for the SAN mapping system.

   Subcommands:
     topo     — generate a topology, print statistics, optionally DOT
     gen      — emit a generated fabric as replayable artifacts (spec
                header + DOT, optional JSON)
     map      — discover a topology with the Berkeley (or Myricom)
                mapper, verify the result, optionally save JSON/DOT;
                --budget stops at a probe budget and emits a
                confidence-annotated partial map instead
     coverage — budgeted map plus the coverage observatory dashboard
                (frontier sparkline, confidence deciles, explain hooks)
     shard    — map with N concurrent mapper shards and a
                conflict-resolved merge
     routes   — map, then compute and check UP*/DOWN* routes
     serve    — answer route queries from compiled per-destination
                tables, optionally steered by measured load
     diff     — compare two saved maps, anchored at host names
     verify   — incrementally check a saved map against the live
                fabric (one probe per known port), remapping on change
     fuzz     — randomized property fuzzing with counterexample
                shrinking (seeded, replayable)
     daemon   — epoch-driven control-plane loop over a fault schedule
     health   — daemon run with fabric telemetry: sparkline dashboard,
                alerts, hottest links
     explain  — map with the provenance ledger on, then print the
                minimal justification tree of a switch, link or route
     blame    — map two fabrics, diff the maps, attribute each change
                to the first probe whose answer (or loss) explains it
     postmortem — replay a daemon flight recording (timeline, open
                alerts, last deductions) from the file alone
     version  — print the package version

   Exit codes, for every subcommand:
     0  success;
     1  a checked property failed: a map that is not isomorphic to
        N - F, a fuzz counterexample, a failed `serve --check`, a merge
        or remap that failed;
     2  bad input: a bad flag or flag value, or a file named on the
        command line that is unreadable, malformed or unwritable. The
        error is one line on stderr, never a backtrace. *)

open Cmdliner

let version =
  Cmd.v
    (Cmd.info "version" ~doc:"Print the package version")
    Term.(const (fun () -> print_endline Version.version; 0) $ const ())

let () =
  let info =
    Cmd.info "san_map" ~version:Version.version
      ~doc:"System area network mapping (SPAA'97 reproduction)"
  in
  let cmd =
    Cmd.group info
      [
        Topo_cmd.topo; Topo_cmd.gen; Map_cmd.map; Map_cmd.coverage;
        Shard_cmd.cmd; Map_cmd.routes; Serve_cmd.cmd; Map_cmd.diff;
        Map_cmd.verify; Fuzz_cmd.cmd; Daemon_cmd.daemon; Daemon_cmd.health;
        Why_cmd.explain; Why_cmd.blame; Why_cmd.postmortem; version;
      ]
  in
  exit
    (match Cmd.eval_value ~catch:false cmd with
    | Ok (`Ok status) -> status
    | Ok (`Help | `Version) -> 0
    | Error _ -> 2
    | exception (Invalid_argument msg | Failure msg) ->
      Format.eprintf "san_map: %s@." msg;
      2)
