(* fuzz: randomized property checking with shrinking. *)

open Cmdliner
module Runner = San_check.Runner

let write_artifacts dir (failures : Runner.failure list) =
  List.iteri
    (fun i (f : Runner.failure) ->
      let stem =
        Cli.artifact dir (Printf.sprintf "counterexample-%02d-%s" i f.Runner.f_prop)
      in
      Cli.write (stem ^ ".dot") (Runner.dot_of_failure f);
      Cli.write (stem ^ ".seed")
        (Printf.sprintf
           "prop: %s\ncase_seed: %d\nreplay: san_map fuzz --replay %d --prop \
            %s\nerror: %s\n"
           f.Runner.f_prop f.Runner.f_case_seed f.Runner.f_case_seed
           f.Runner.f_prop f.Runner.f_shrunk_error);
      Format.printf "wrote %s.dot and %s.seed@." stem stem)
    failures

let run cases seed props replay artifacts shrink_budget progress obs =
  Cli.with_obs obs @@ fun () ->
  let props = List.concat props in
  let unknown =
    List.filter (fun p -> not (List.mem p San_check.Props.names)) props
  in
  if unknown <> [] then begin
    Format.eprintf "unknown propert%s %s (try: %s)@."
      (if List.length unknown = 1 then "y" else "ies")
      (String.concat ", " unknown)
      (String.concat ", " San_check.Props.names);
    2
  end
  else
    let props = if props = [] then None else Some props in
    let report = function
      | [] -> 0
      | failures ->
        Option.iter (fun dir -> write_artifacts dir failures) artifacts;
        1
    in
    match replay with
    | Some case_seed ->
      let failures = Runner.run_case ?props ~shrink_budget ~case_seed () in
      Format.printf "replay of case %d (%a):@." case_seed San_check.Fuzz_gen.pp
        (San_check.Fuzz_gen.gen ~seed:case_seed);
      if failures = [] then Format.printf "all properties hold@."
      else List.iter (fun f -> Format.printf "%a@." Runner.pp_failure f) failures;
      report failures
    | None ->
      let on_progress =
        if progress = 0 then None
        else
          Some
            (fun i ->
              if i mod progress = 0 then Format.printf "... %d/%d cases@." i cases)
      in
      let r = Runner.run ?props ~shrink_budget ?on_progress ~cases ~seed () in
      Format.printf "%a@." Runner.pp_report r;
      report r.Runner.r_failures

let cmd =
  let cases =
    let doc = "Number of random fabrics to generate and check." in
    Arg.(value & opt (Cli.count ~min:0) 200 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let prop =
    let doc =
      "Check only these properties (comma-separated, repeatable). One of: "
      ^ String.concat ", " San_check.Props.names ^ "."
    in
    Arg.(value & opt_all (list string) [] & info [ "prop" ] ~docv:"NAME" ~doc)
  in
  let replay =
    let doc =
      "Replay a single case by its case seed (printed in a counterexample \
       report) instead of generating fresh cases."
    in
    Arg.(value & opt (some int) None & info [ "replay" ] ~docv:"CASE_SEED" ~doc)
  in
  let artifacts =
    let doc =
      "Write each counterexample as DOT plus a replay command under $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "artifacts" ] ~docv:"DIR" ~doc)
  in
  let shrink_budget =
    let doc = "Maximum shrink attempts per counterexample." in
    Arg.(
      value
      & opt (Cli.count ~min:0) Runner.default_shrink_budget
      & info [ "shrink-budget" ] ~docv:"N" ~doc)
  in
  let progress =
    let doc = "Print a progress line every N cases (0: silent)." in
    Arg.(value & opt (Cli.count ~min:0) 100 & info [ "progress" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the mapper: random fabrics, six invariants, shrunk \
          counterexamples")
    Term.(
      const run $ cases $ Cli.seed $ prop $ replay $ artifacts $ shrink_budget
      $ progress $ Cli.obs)
