open San_topology
open San_simnet
module Berkeley = San_mapper.Berkeley
module Model = San_mapper.Model
module Why = San_why.Why
module Replay = San_why.Replay
module Explain = San_why.Explain
module J = San_util.Json
module Obs = San_obs.Obs

type budget = Frac of float | Probes of int

let parse_budget s =
  match String.split_on_char ':' s with
  | [ "probes"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Ok (Probes n)
    | _ -> Error (Printf.sprintf "bad probe budget %S (want probes:N, N > 0)" s))
  | [ f ] -> (
    match float_of_string_opt f with
    | Some f when f > 0.0 && f <= 1.0 -> Ok (Frac f)
    | Some _ -> Error "budget fraction must be in (0, 1]"
    | None ->
      Error (Printf.sprintf "bad budget %S (want a fraction or probes:N)" s))
  | _ -> Error (Printf.sprintf "bad budget %S (want a fraction or probes:N)" s)

let budget_to_string = function
  | Frac f -> Printf.sprintf "%g" f
  | Probes n -> Printf.sprintf "probes:%d" n

type element = {
  el_label : string;
  el_kind : [ `Host | `Switch | `Link ];
  el_path : Route.t;
  el_conf : float;
  el_probes : int;
  el_merges : int;
  el_corrob : int;
  el_explored : bool;
  el_ports : int;
}

type report = {
  r_budget : budget;
  r_probe_limit : int;
  r_probes_used : int;
  r_full_probes : int;
  r_explorations : int;
  r_depth_used : int;
  r_hosts : element list;
  r_switches : element list;
  r_links : element list;
  r_frontier : int;
  r_trace : Berkeley.trace_point list;
  r_full_map : Graph.t;
  r_recovered_hosts : int;
  r_recovered_switches : int;
  r_recovered_links : int;
  r_full_hosts : int;
  r_full_switches : int;
  r_full_links : int;
  r_mean_conf : float;
  r_density : float;
  r_est_links : float;
  r_subgraph : (unit, string) result;
  r_blocked : int;
}

let elements r = r.r_hosts @ r.r_switches @ r.r_links

let path_str path = String.concat "," (List.map string_of_int path)

(* ------------------------------------------------------------------ *)
(* Ground-truth walks: re-drive discovery probes on the true network. *)

let true_node_of_path g ~mapper path =
  if path = [] then
    match Graph.neighbor g (mapper, 0) with
    | Some (n, _) -> Ok n
    | None -> Error "the mapper host has no cable"
  else
    let t = Worm.eval g ~src:mapper ~turns:path in
    match t.Worm.outcome with
    | Worm.Stranded n | Worm.Arrived n -> Ok n
    | o ->
      Error
        (Format.asprintf "probe [%s] fails on the true network: %a"
           (path_str path) Worm.pp_outcome o)

let true_wire_of_path g ~mapper path =
  if path = [] then
    match Graph.neighbor g (mapper, 0) with
    | Some far -> Ok ((mapper, 0), far)
    | None -> Error "the mapper host has no cable"
  else
    let t = Worm.eval g ~src:mapper ~turns:path in
    match (t.Worm.outcome, List.rev t.Worm.hops) with
    | (Worm.Stranded _ | Worm.Arrived _), last :: _ ->
      Ok (last.Worm.exit_end, last.Worm.entry_end)
    | o, _ ->
      Error
        (Format.asprintf "probe [%s] fails on the true network: %a"
           (path_str path) Worm.pp_outcome o)

let canon_wire (e1, e2) = if e1 <= e2 then (e1, e2) else (e2, e1)

(* ------------------------------------------------------------------ *)

let frac num den = if den <= 0 then 0.0 else float_of_int num /. float_of_int den

let run ?(policy = Berkeley.faithful) ?(depth = Berkeley.Oracle)
    ?(record_trace = true) ?directed ?reference ?effective ~budget net ~mapper
    =
  let g_true = Network.graph net in
  if not (Graph.is_host g_true mapper) then
    invalid_arg "Cover.run: mapper must be a host";
  (* The full reference run: denominator for fractions and budgets. *)
  let reference =
    match reference with
    | Some r -> r
    | None -> Berkeley.run ~policy ~depth net ~mapper
  in
  match reference.Berkeley.map with
  | Error m -> Error ("full reference map failed to export: " ^ m)
  | Ok full_map ->
    let full_probes = Berkeley.total_probes reference in
    let probe_limit =
      match budget with
      | Probes n -> n
      | Frac f ->
        max 1 (int_of_float (Float.round (f *. float_of_int full_probes)))
    in
    let blocked_before =
      match directed with Some d -> Directed.blocked d | None -> 0
    in
    (* The budgeted run needs the ledger: the partial model cannot be
       exported (unresolved replicates), so its shape — and all the
       evidence the confidence scores weigh — is read back from the
       why snapshot. Force it on, restore the caller's setting. *)
    let was_why = Why.on () in
    Why.set_enabled true;
    Fun.protect ~finally:(fun () -> Why.set_enabled was_why) @@ fun () ->
    Network.reset_stats net;
    let depth_used = Berkeley.resolve_depth net ~mapper depth in
    let model =
      Model.create
        ~mapper_name:(Graph.name g_true mapper)
        ~radix:(Graph.radix g_true)
    in
    let sv0 =
      match directed with
      | Some d -> Directed.wrap d net ~mapper
      | None -> Berkeley.service_of_network net ~mapper
    in
    let probes_sent = ref 0 in
    let sv =
      {
        sv0 with
        Berkeley.sv_host_probe =
          (fun ~turns ->
            incr probes_sent;
            sv0.Berkeley.sv_host_probe ~turns);
        sv_switch_probe =
          (fun ~turns ->
            incr probes_sent;
            sv0.Berkeley.sv_switch_probe ~turns);
      }
    in
    let tick ~probes ~frontier =
      if Obs.on () then begin
        Obs.set_gauge "cover.probes_used" (float_of_int probes);
        Obs.set_gauge "cover.frontier_size" (float_of_int frontier)
      end
    in
    let explorations, _elapsed, trace =
      Berkeley.explore_service ~probe_budget:probe_limit ~tick ~policy
        ~depth_used ~record_trace sv model
        [ Model.root_switch model ]
    in
    (* The frontier at stop: discovered-but-unexplored switch classes,
       counted BEFORE pruning — prune deletes degree-1 unexplored stubs
       (hostless pendants are exactly what the separation criterion
       removes), which is the honest partial map but would hide how
       much known-unexplored edge the budget left behind. *)
    let frontier =
      let seen = Hashtbl.create 32 in
      for v = 0 to Model.created_vertices model - 1 do
        let c = Model.canonical model v in
        if
          Model.is_live model c
          && (not (Model.is_explored model c))
          && match Model.kind model c with Model.Vswitch -> true | _ -> false
        then Hashtbl.replace seen c ()
      done;
      Hashtbl.length seen
    in
    Model.prune model;
    let snap = Why.capture () in
    let replay = Replay.build snap in
    let canon v = fst (Replay.find replay v) in
    (* Live classes and their members, from the ledger. *)
    let classes : (int, int list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun v ->
        let c = canon v in
        if Replay.live replay c then
          Hashtbl.replace classes c
            (v :: Option.value ~default:[] (Hashtbl.find_opt classes c)))
      (Why.vertices snap);
    let live_edges = Replay.live_edges replay in
    (* Known wired map-ports per class. *)
    let ports : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
    let add_port c p =
      let h =
        match Hashtbl.find_opt ports c with
        | Some h -> h
        | None ->
          let h = Hashtbl.create 4 in
          Hashtbl.replace ports c h;
          h
      in
      Hashtbl.replace h p ()
    in
    List.iter
      (fun (e : Replay.edge_view) ->
        add_port e.Replay.ev_a e.Replay.ev_pa;
        add_port e.Replay.ev_b e.Replay.ev_pb)
      live_edges;
    let known_ports c =
      match Hashtbl.find_opt ports c with
      | Some h -> Hashtbl.length h
      | None -> 0
    in
    (* Merge evidence per class. *)
    let merge_count : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let merge_rules : (int, (string, unit) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 16
    in
    List.iter
      (fun (m : Why.merge_rec) ->
        let c = canon m.Why.kept in
        Hashtbl.replace merge_count c
          (1 + Option.value ~default:0 (Hashtbl.find_opt merge_count c));
        let rule =
          match Why.entry snap m.Why.m_did with
          | Some (Why.Deduced { rule; _ }) -> rule
          | _ -> "merge"
        in
        let rs =
          match Hashtbl.find_opt merge_rules c with
          | Some r -> r
          | None ->
            let r = Hashtbl.create 2 in
            Hashtbl.replace merge_rules c r;
            r
        in
        Hashtbl.replace rs rule ())
      (Why.merges snap);
    let merges_of c = Option.value ~default:0 (Hashtbl.find_opt merge_count c) in
    let corrob_of c =
      match Hashtbl.find_opt merge_rules c with
      | None -> 0
      | Some rs ->
        Hashtbl.fold
          (fun r () n ->
            if r = "d1_slot_conflict" || r = "d2_same_host" then n + 1 else n)
          rs 0
    in
    (* Distinct probe entries in a class's justification trees. *)
    let probes_of c =
      let ids = Hashtbl.create 8 in
      List.iter
        (fun root ->
          List.iter
            (fun (id, e) ->
              match e with
              | Why.Probe _ -> Hashtbl.replace ids id ()
              | _ -> ())
            (Explain.leaves snap root))
        (Explain.roots_for_switch snap replay ~vid:c);
      Hashtbl.length ids
    in
    let kind_of c members =
      match Why.vertex_kind snap ~vid:c with
      | Some k -> Some k
      | None ->
        List.find_map (fun v -> Why.vertex_kind snap ~vid:v) members
    in
    let shortest_path members =
      List.fold_left
        (fun best v ->
          match best with
          | Some b when Model.probe_length model b <= Model.probe_length model v ->
            best
          | _ -> Some v)
        None members
      |> Option.fold ~none:[] ~some:(Model.probe_string model)
    in
    let class_list =
      Hashtbl.fold (fun c members acc -> (c, List.sort compare members) :: acc)
        classes []
      |> List.sort compare
    in
    let radix = Graph.radix g_true in
    (* rho: wired-port density measured on fully enumerated switches. *)
    let explored_ports, explored_switches =
      List.fold_left
        (fun (ep, es) (c, members) ->
          match kind_of c members with
          | Some `Switch when Model.is_explored model c ->
            (ep + known_ports c, es + 1)
          | _ -> (ep, es))
        (0, 0) class_list
    in
    let density =
      Confidence.wired_density ~explored_ports ~explored_switches ~radix
    in
    let struct_of c ~explored =
      Confidence.structure_factor ~known_ports:(known_ports c) ~radix ~density
        ~explored
    in
    let hosts = ref [] and switches = ref [] in
    let class_struct : (int, float) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (c, members) ->
        let merges = merges_of c and corrob = corrob_of c in
        let probes = probes_of c in
        let evidence =
          Confidence.evidence_factor ~probes ~merges ~corroborations:corrob
        in
        let path = shortest_path members in
        match kind_of c members with
        | Some (`Host name) ->
          Hashtbl.replace class_struct c 1.0;
          (* The mapper's own host (empty probe path) is axiomatic, not
             probe-derived: full confidence by fiat. *)
          let evidence = if path = [] then 1.0 else evidence in
          hosts :=
            {
              el_label = name;
              el_kind = `Host;
              el_path = path;
              el_conf = Confidence.score ~evidence ~structure:1.0;
              el_probes = probes;
              el_merges = merges;
              el_corrob = corrob;
              el_explored = true;
              el_ports = 1;
            }
            :: !hosts
        | Some `Switch ->
          let explored = Model.is_explored model c in
          let structure = struct_of c ~explored in
          Hashtbl.replace class_struct c structure;
          (* The root switch (vid 1) is assumed by Model.create and
             retracted unless the exploration or the turn-0 probe
             confirms it — alive here means confirmed, so its
             existence is axiomatic like the mapper host's. *)
          let evidence = if List.mem 1 members then 1.0 else evidence in
          switches :=
            {
              el_label = Printf.sprintf "m%d" c;
              el_kind = `Switch;
              el_path = path;
              el_conf = Confidence.score ~evidence ~structure;
              el_probes = probes;
              el_merges = merges;
              el_corrob = corrob;
              el_explored = explored;
              el_ports = known_ports c;
            }
            :: !switches
        | None -> ())
      class_list;
    let end_label c p =
      match Why.vertex_kind snap ~vid:c with
      | Some (`Host name) -> name
      | _ -> Printf.sprintf "m%d.%d" c p
    in
    (* One element per live edge; its path is the discovering probe's. *)
    let link_path (e : Replay.edge_view) =
      let probe_ids =
        List.filter_map
          (fun (id, en) ->
            match en with Why.Probe { turns; _ } -> Some (id, turns) | _ -> None)
          (Explain.leaves snap e.Replay.ev_did)
      in
      match List.rev probe_ids with
      | (_, turns) :: _ -> (List.length probe_ids, turns)
      | [] -> (0, [])  (* the mapper-cable axiom edge *)
    in
    let links =
      List.map
        (fun (e : Replay.edge_view) ->
          let nprobes, path = link_path e in
          let evidence =
            Confidence.evidence_factor
              ~probes:(max 1 nprobes)
              ~merges:0 ~corroborations:0
          in
          let s_end c =
            Option.value ~default:1.0 (Hashtbl.find_opt class_struct c)
          in
          let structure =
            Float.min (s_end e.Replay.ev_a) (s_end e.Replay.ev_b)
          in
          {
            el_label =
              Printf.sprintf "%s-%s"
                (end_label e.Replay.ev_a e.Replay.ev_pa)
                (end_label e.Replay.ev_b e.Replay.ev_pb);
            el_kind = `Link;
            el_path = path;
            el_conf = Confidence.score ~evidence ~structure;
            el_probes = nprobes;
            el_merges = 0;
            el_corrob = 0;
            el_explored = false;
            el_ports = 2;
          })
        live_edges
    in
    let hosts = List.rev !hosts and switches = List.rev !switches in
    (* Ground truth: walk every discovery probe on the true network and
       check the embedding into N - F (the graph the full map is
       isomorphic to, Theorem 1). Separation is judged on [effective]
       — the fuzzer's silent-hosts-detached view — because a silent
       host hides its region from the full map exactly as no host
       would. *)
    let eff = Option.value ~default:g_true effective in
    let separated = Core_set.separated_set eff in
    let check_not_separated what n =
      if n >= 0 && n < Array.length separated && separated.(n) then
        Error
          (Printf.sprintf "%s resolves to true node %d inside the separated \
                           set F" what n)
      else Ok ()
    in
    let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
    let true_switches = Hashtbl.create 64 in
    let true_hosts = Hashtbl.create 64 in
    let true_wires = Hashtbl.create 64 in
    let check_class (c, members) =
      match kind_of c members with
      | None -> Ok ()
      | Some k ->
        List.fold_left
          (fun acc v ->
            acc >>= fun () ->
            let path = Model.probe_string model v in
            let landed =
              (* The mapper's own host vertex has the empty probe path:
                 it IS the mapper, not whatever hangs off its cable. *)
              match (k, path) with
              | `Host _, [] -> Ok mapper
              | _ -> true_node_of_path g_true ~mapper path
            in
            match landed with
            | Error e -> Error (Printf.sprintf "class m%d: %s" c e)
            | Ok n -> (
              match k with
              | `Switch ->
                if Graph.is_host g_true n then
                  Error
                    (Printf.sprintf
                       "switch class m%d member v%d lands on host %s" c v
                       (Graph.name g_true n))
                else begin
                  (match Hashtbl.find_opt true_switches c with
                  | Some n0 when n0 <> n ->
                    Error
                      (Printf.sprintf
                         "switch class m%d members land on two true switches \
                          (%d and %d)"
                         c n0 n)
                  | _ ->
                    Hashtbl.replace true_switches c n;
                    Ok ())
                  >>= fun () ->
                  check_not_separated (Printf.sprintf "switch class m%d" c) n
                end
              | `Host name ->
                if not (Graph.is_host g_true n) then
                  Error
                    (Printf.sprintf "host class %s lands on a switch" name)
                else if Graph.name g_true n <> name then
                  Error
                    (Printf.sprintf "host class %s lands on host %s" name
                       (Graph.name g_true n))
                else begin
                  Hashtbl.replace true_hosts name ();
                  Ok ()
                end))
          (Ok ()) members
    in
    let check_link (e : Replay.edge_view) =
      let _, path = link_path e in
      match true_wire_of_path g_true ~mapper path with
      | Error err -> Error (Printf.sprintf "link eid %d: %s" e.Replay.ev_eid err)
      | Ok wire ->
        let (n1, _), (n2, _) = wire in
        Hashtbl.replace true_wires (canon_wire wire) ();
        check_not_separated (Printf.sprintf "link eid %d end" e.Replay.ev_eid) n1
        >>= fun () ->
        check_not_separated (Printf.sprintf "link eid %d end" e.Replay.ev_eid) n2
    in
    let check_conf e =
      if e.el_conf < 0.0 || e.el_conf > 1.0 then
        Error
          (Printf.sprintf "%s has confidence %g outside [0, 1]" e.el_label
             e.el_conf)
      else Ok ()
    in
    let subgraph =
      List.fold_left (fun acc cl -> acc >>= fun () -> check_class cl)
        (Ok ()) class_list
      >>= fun () ->
      List.fold_left (fun acc e -> acc >>= fun () -> check_link e)
        (Ok ()) live_edges
      >>= fun () ->
      List.fold_left (fun acc e -> acc >>= fun () -> check_conf e)
        (Ok ())
        (hosts @ switches @ links)
    in
    let all = hosts @ switches @ links in
    let mean_conf =
      match all with
      | [] -> 0.0
      | _ ->
        List.fold_left (fun s e -> s +. e.el_conf) 0.0 all
        /. float_of_int (List.length all)
    in
    let est_link_ends =
      List.fold_left
        (fun s e ->
          match e.el_kind with
          | `Host -> s +. 1.0
          | `Switch ->
            s
            +. Confidence.estimated_link_ends ~known_ports:e.el_ports ~radix
                 ~density ~explored:e.el_explored
          | `Link -> s)
        0.0 all
    in
    let report =
      {
        r_budget = budget;
        r_probe_limit = probe_limit;
        r_probes_used = !probes_sent;
        r_full_probes = full_probes;
        r_explorations = explorations;
        r_depth_used = depth_used;
        r_hosts = hosts;
        r_switches = switches;
        r_links = links;
        r_frontier = frontier;
        r_trace = trace;
        r_full_map = full_map;
        r_recovered_hosts = Hashtbl.length true_hosts;
        r_recovered_switches =
          (let distinct = Hashtbl.create 64 in
           Hashtbl.iter (fun _ n -> Hashtbl.replace distinct n ()) true_switches;
           Hashtbl.length distinct);
        r_recovered_links = Hashtbl.length true_wires;
        r_full_hosts = Graph.num_hosts full_map;
        r_full_switches = Graph.num_switches full_map;
        r_full_links = Graph.num_wires full_map;
        r_mean_conf = mean_conf;
        r_density = density;
        r_est_links = est_link_ends /. 2.0;
        r_subgraph = subgraph;
        r_blocked =
          (match directed with
          | Some d -> Directed.blocked d - blocked_before
          | None -> 0);
      }
    in
    if Obs.on () then begin
      Obs.count ~by:(List.length hosts) "cover.hosts_confirmed";
      Obs.count ~by:(List.length switches) "cover.switches_confirmed";
      Obs.count ~by:(List.length links) "cover.links_confirmed";
      Obs.set_gauge "cover.frontier_size" (float_of_int frontier);
      Obs.set_gauge "cover.budget_frac_used"
        (frac report.r_probes_used full_probes);
      Obs.set_gauge "cover.recovered_switch_frac"
        (frac report.r_recovered_switches report.r_full_switches);
      List.iter (fun e -> Obs.observe "cover.confidence" e.el_conf) all
    end;
    Ok report

(* ------------------------------------------------------------------ *)

let element_to_json e =
  J.Obj
    [
      ("label", J.Str e.el_label);
      ( "kind",
        J.Str
          (match e.el_kind with
          | `Host -> "host"
          | `Switch -> "switch"
          | `Link -> "link") );
      ("path", J.Arr (List.map J.int e.el_path));
      ("confidence", J.Num e.el_conf);
      ("probes", J.int e.el_probes);
      ("merges", J.int e.el_merges);
      ("corroborations", J.int e.el_corrob);
      ("explored", J.Bool e.el_explored);
      ("known_ports", J.int e.el_ports);
    ]

let report_to_json ?spec ?seed r =
  let meta =
    List.filter_map Fun.id
      [
        Option.map (fun s -> ("spec", J.Str s)) spec;
        Option.map (fun s -> ("seed", J.int s)) seed;
      ]
  in
  J.Obj
    (meta
    @ [
        ("budget", J.Str (budget_to_string r.r_budget));
        ("probe_limit", J.int r.r_probe_limit);
        ("probes_used", J.int r.r_probes_used);
        ("full_probes", J.int r.r_full_probes);
        ("explorations", J.int r.r_explorations);
        ("depth_used", J.int r.r_depth_used);
        ("frontier", J.int r.r_frontier);
        ("density", J.Num r.r_density);
        ("mean_confidence", J.Num r.r_mean_conf);
        ("estimated_links", J.Num r.r_est_links);
        ( "recovered",
          J.Obj
            [
              ("hosts", J.int r.r_recovered_hosts);
              ("switches", J.int r.r_recovered_switches);
              ("links", J.int r.r_recovered_links);
              ("full_hosts", J.int r.r_full_hosts);
              ("full_switches", J.int r.r_full_switches);
              ("full_links", J.int r.r_full_links);
            ] );
        ( "subgraph",
          match r.r_subgraph with
          | Ok () -> J.Bool true
          | Error e -> J.Str e );
        ("blocked_probes", J.int r.r_blocked);
        ("hosts", J.Arr (List.map element_to_json r.r_hosts));
        ("switches", J.Arr (List.map element_to_json r.r_switches));
        ("links", J.Arr (List.map element_to_json r.r_links));
      ])

let pp_summary ppf r =
  Format.fprintf ppf
    "budget %s: %d/%d probes (full run %d); recovered %d/%d switches, %d/%d \
     links, %d/%d hosts; mean confidence %.3f; frontier %d; est. links %.1f \
     (rho %.2f); subgraph %s%s"
    (budget_to_string r.r_budget)
    r.r_probes_used r.r_probe_limit r.r_full_probes r.r_recovered_switches
    r.r_full_switches r.r_recovered_links r.r_full_links r.r_recovered_hosts
    r.r_full_hosts r.r_mean_conf r.r_frontier r.r_est_links r.r_density
    (match r.r_subgraph with Ok () -> "ok" | Error e -> "VIOLATED: " ^ e)
    (if r.r_blocked > 0 then
       Printf.sprintf "; %d probes blocked by link orientation" r.r_blocked
     else "")
