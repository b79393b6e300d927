open San_topology

type side = { b_map : Graph.t; b_snap : Why.snapshot }

type attribution = {
  a_change : string;
  a_probe_did : int option;
  a_note : string;
}

let turns_to_string turns =
  Printf.sprintf "[%s]" (String.concat ";" (List.map string_of_int turns))

let probe_entries snap roots =
  List.sort_uniq compare
    (List.filter
       (fun (_, e) -> match e with Why.Probe _ -> true | _ -> false)
       (List.concat_map (Explain.leaves snap) roots))

(* The first probe among [roots]'s leaves whose counterpart in the
   [other] run is missing or answered differently; falling back to the
   first probe leaf when every probe agrees. *)
let attribute ~snap ~other roots =
  let probes = probe_entries snap roots in
  let differing =
    List.filter_map
      (fun (did, e) ->
        match e with
        | Why.Probe { kind; turns; resp } -> (
          let kind_s =
            match kind with
            | Why.Host_probe -> "host-probe"
            | Why.Switch_probe -> "switch-probe"
          in
          match Why.probe_by_turns other ~kind ~turns with
          | None ->
            Some
              ( did,
                Printf.sprintf
                  "%s %s answered %s (d%d); never sent in the other run"
                  kind_s (turns_to_string turns) resp did )
          | Some odid -> (
            match Why.entry other odid with
            | Some (Why.Probe { resp = oresp; _ }) when oresp <> resp ->
              Some
                ( did,
                  Printf.sprintf
                    "%s %s answered %s (d%d) vs %s in the other run (d%d)"
                    kind_s (turns_to_string turns) resp did oresp odid )
            | _ -> None))
        | _ -> None)
      probes
  in
  match (differing, probes) with
  | (did, note) :: _, _ -> (Some did, note)
  | [], (did, Why.Probe { kind; turns; resp }) :: _ ->
    ( Some did,
      Printf.sprintf
        "%s %s answered %s (d%d) in both runs; the change came from \
         surrounding evidence"
        (match kind with
        | Why.Host_probe -> "host-probe"
        | Why.Switch_probe -> "switch-probe")
        (turns_to_string turns) resp did )
  | [], _ -> (None, "no probe evidence recorded")

let end_name g (n, p) =
  if Graph.is_host g n then (Graph.name g n, 0)
  else (Graph.name g n, p)

let switch_roots side replay node =
  match Replay.vid_of_map_switch (Graph.name side.b_map node) with
  | None -> []
  | Some vid ->
    let vid = fst (Replay.find replay vid) in
    Explain.roots_for_switch side.b_snap replay ~vid

let host_roots side replay name =
  match Explain.host_vid side.b_snap replay ~name with
  | None -> []
  | Some vid ->
    List.filter_map
      (fun v -> Why.vertex_birth side.b_snap ~vid:v)
      (Replay.members replay vid)

let link_roots side replay a b =
  let name = end_name side.b_map in
  match
    Explain.roots_of ~map:side.b_map ~snap:side.b_snap ~replay
      (Explain.Link (name a, name b))
  with
  | Ok (_, roots) -> roots
  | Error _ -> []

let describe_end g (n, p) =
  if Graph.is_host g n then Graph.name g n
  else Printf.sprintf "%s.%d" (Graph.name g n) p

let run ~old_ ~new_ =
  let old_replay = Replay.build old_.b_snap in
  let new_replay = Replay.build new_.b_snap in
  (* A fact the new map lost is explained by the old run's ledger, one
     it gained by the new run's. *)
  let attribution c =
    let side, other, replay, verb =
      match c with
      | Diff.Host_removed _ | Switch_removed _ ->
        (old_, new_, old_replay, "vanished")
      | Link_removed _ -> (old_, new_, old_replay, "lost")
      | Host_added _ | Switch_added _ | Link_added _ ->
        (new_, old_, new_replay, "appeared")
    in
    let g = side.b_map in
    let fact, roots =
      match c with
      | Diff.Host_removed n | Host_added n ->
        ("host " ^ n, host_roots side replay n)
      | Switch_removed s | Switch_added s ->
        ("switch " ^ Graph.name g s, switch_roots side replay s)
      | Link_removed (a, b) | Link_added (a, b) ->
        ( Printf.sprintf "link %s -- %s" (describe_end g a) (describe_end g b),
          link_roots side replay a b )
    in
    let did, note = attribute ~snap:side.b_snap ~other:other.b_snap roots in
    { a_change = fact ^ " " ^ verb; a_probe_did = did; a_note = note }
  in
  List.stable_sort
    (fun x y ->
      match (x.a_probe_did, y.a_probe_did) with
      | Some a, Some b -> compare a b
      | Some _, None -> -1
      | None, Some _ -> 1
      | None, None -> 0)
    (List.map attribution (Diff.diff ~old_map:old_.b_map ~new_map:new_.b_map))

let pp_attribution ppf a =
  Format.fprintf ppf "%s@.    %s" a.a_change a.a_note
