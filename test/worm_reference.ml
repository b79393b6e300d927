(* The reference the flat worm evaluator is tested against: the
   list-based §2.2 path semantics, the §2.3.1 collision models over
   hop lists with hashtable channel sets, and the four probe kinds of
   the response function built on them — kept literally as they were
   before the evaluator moved to one reusable walk. Deterministic only:
   no jitter, no cross-traffic. *)

open San_topology
open San_simnet

let eval g ~src ~turns : Worm.trace =
  if not (Graph.is_host g src) then
    invalid_arg "Worm.eval: source must be a host";
  if not (Route.valid ~radix:(Graph.radix g) turns) then
    invalid_arg "Worm.eval: turn outside the radix alphabet";
  match Graph.neighbor g (src, 0) with
  | None -> { hops = []; outcome = Unwired_source }
  | Some first ->
    let hops = ref [ { Worm.exit_end = (src, 0); entry_end = first } ] in
    let finish outcome = { Worm.hops = List.rev !hops; outcome } in
    let rec step pos idx remaining =
      let node, in_port = pos in
      match remaining with
      | [] ->
        if Graph.is_host g node then finish (Arrived node)
        else finish (Stranded node)
      | turn :: rest ->
        if Graph.is_host g node then finish (Hit_host_too_soon (idx, node))
        else
          let out_port = in_port + turn in
          if out_port < 0 || out_port >= Graph.radix g then
            finish (Illegal_turn idx)
          else (
            match Graph.neighbor g (node, out_port) with
            | None -> finish (No_such_wire idx)
            | Some next ->
              hops :=
                { Worm.exit_end = (node, out_port); entry_end = next } :: !hops;
              step next (idx + 1) rest)
    in
    step first 0 turns

(* ---------- collision ---------- *)

let directed_id (h : Worm.hop) = h.exit_end

let undirected_id (h : Worm.hop) =
  if h.exit_end <= h.entry_end then (h.exit_end, h.entry_end)
  else (h.entry_end, h.exit_end)

let find_duplicate key hops =
  let tbl = Hashtbl.create 16 in
  List.find_opt
    (fun h ->
      let id = key h in
      if Hashtbl.mem tbl id then true
      else begin
        Hashtbl.add tbl id ();
        false
      end)
    hops

let cut_through_blocking_hop params (trace : Worm.trace) =
  let hops = Array.of_list trace.hops in
  let drain = Params.worm_drain_ns params ~route_flits:(Array.length hops) in
  if drain <= 0.0 then None
  else begin
    let last_use = Hashtbl.create 16 in
    let blocked = ref None in
    Array.iteri
      (fun j h ->
        let id = directed_id h in
        (match Hashtbl.find_opt last_use id with
        | Some i ->
          let gap = float_of_int (j - i) *. Params.hop_latency_ns params in
          if gap < drain && !blocked = None then blocked := Some h
        | None -> ());
        Hashtbl.replace last_use id j)
      hops;
    !blocked
  end

let host_blocking_hop model params (trace : Worm.trace) =
  match model with
  | Collision.Circuit -> find_duplicate directed_id trace.hops
  | Collision.Cut_through -> cut_through_blocking_hop params trace

let switch_blocking_hop model params ~forward_hops (trace : Worm.trace) =
  match model with
  | Collision.Circuit ->
    let forward = List.filteri (fun i _ -> i < forward_hops) trace.hops in
    find_duplicate undirected_id forward
  | Collision.Cut_through -> cut_through_blocking_hop params trace

(* ---------- the response function ---------- *)

type net = {
  g : Graph.t;
  model : Collision.model;
  params : Params.t;
  responding : Graph.node -> bool;
  fabric : San_telemetry.Fabric_stats.t;
  cost_of : Network.t; (* only its cost model is read *)
}

let net ?(model = Collision.Circuit) ?(params = Params.default)
    ?(responding = fun _ -> true) ~fabric g =
  { g; model; params; responding; fabric;
    cost_of = Network.create ~model ~params ~responding g }

let blocks n hop =
  match hop with
  | None -> false
  | Some (h : Worm.hop) ->
    San_telemetry.Fabric_stats.collision n.fabric h.exit_end;
    true

let transits n ?(reply = false) (trace : Worm.trace) =
  List.iter
    (fun (h : Worm.hop) ->
      San_telemetry.Fabric_stats.transit n.fabric h.Worm.exit_end;
      if reply then San_telemetry.Fabric_stats.transit n.fabric h.Worm.entry_end)
    trace.hops

let hit n ~hops trace =
  transits n ~reply:true trace;
  Network.probe_cost_hit n.cost_of ~hops

let miss n trace =
  transits n trace;
  Network.probe_cost_miss n.cost_of

let host_probe n ~src ~turns =
  let trace = eval n.g ~src ~turns in
  let hops = 2 * List.length trace.hops in
  match trace.outcome with
  | Arrived h
    when (not (blocks n (host_blocking_hop n.model n.params trace)))
         && n.responding h ->
    (Network.Host (Graph.name n.g h), hit n ~hops trace)
  | _ -> (Network.Nothing, miss n trace)

let switch_probe n ~src ~turns =
  let trace = eval n.g ~src ~turns:(Route.switch_probe turns) in
  let forward_hops = List.length turns + 1 in
  match trace.outcome with
  | Arrived h
    when h = src
         && not
              (blocks n
                 (switch_blocking_hop n.model n.params ~forward_hops trace)) ->
    transits n trace;
    ( Network.Switch,
      Network.probe_cost_hit n.cost_of ~hops:(List.length trace.hops) )
  | _ -> (Network.Nothing, miss n trace)

let walk_probe n ~src ~turns =
  let trace = eval n.g ~src ~turns in
  let answer =
    match trace.outcome with
    | Arrived h when n.responding h -> Some (Graph.name n.g h, List.length turns)
    | Hit_host_too_soon (idx, h) when n.responding h ->
      Some (Graph.name n.g h, idx)
    | _ -> None
  in
  match answer with
  | Some a when not (blocks n (host_blocking_hop n.model n.params trace)) ->
    (Some a, hit n ~hops:(2 * List.length trace.hops) trace)
  | Some _ | None -> (None, miss n trace)

let loop_probe n ~src ~turns ~turn =
  let trace = eval n.g ~src ~turns in
  let answer =
    match (trace.outcome, List.rev trace.hops) with
    | Stranded sw, last :: _ ->
      let _, in_port = last.Worm.entry_end in
      let out_port = in_port + turn in
      if out_port < 0 || out_port >= Graph.radix n.g then None
      else (
        match Graph.neighbor n.g (sw, out_port) with
        | Some (peer, q) when peer = sw -> Some (q - out_port)
        | Some _ | None -> None)
    | _ -> None
  in
  match answer with
  | Some d -> (Some d, hit n ~hops:(2 * (List.length trace.hops + 1)) trace)
  | None -> (None, miss n trace)
