open San_topology
open San_simnet

type counts = {
  loop_probes : int;
  host_probes : int;
  switch_probes : int;
  compare_probes : int;
}

let total c = c.loop_probes + c.host_probes + c.switch_probes + c.compare_probes

type result = {
  map : (Graph.t, string) Stdlib.result;
  counts : counts;
  elapsed_ns : float;
  switches_found : int;
  false_matches : int;
}

type peer = Phost of string | Pswitch of int * int

type known = {
  k_idx : int;
  k_route : Route.t;
  k_actual : Graph.node; (* ground truth, used only to count false matches *)
  k_slots : (int, peer) Hashtbl.t;
  mutable k_wlo : int;
  mutable k_whi : int;
}

exception Bad_map of string

let run ?(params = Params.default) ?(model = Collision.Circuit) ?responding
    ?(compare_depth_window = 3) g ~mapper =
  if not (Graph.is_host g mapper) then
    invalid_arg "Myricom.run: mapper must be a host";
  San_obs.Obs.with_span "myricom.run" @@ fun () ->
  let radix = Graph.radix g in
  let net =
    Network.create ~model ~params ?responding
      ~software_slowdown:params.Params.embedded_slowdown g
  in
  (* The firmware's hop limit. *)
  let max_depth = Analysis.diameter g + 2 in
  let mapper_name = Graph.name g mapper in
  let elapsed = ref 0.0 in
  let loops = ref 0 and hostp = ref 0 and swp = ref 0 and compp = ref 0 in
  let false_matches = ref 0 in
  let known : known list ref = ref [] in
  let nknown = ref 0 in
  let hosts : (string, int * int) Hashtbl.t = Hashtbl.create 64 in
  let narrow k slot =
    k.k_wlo <- max k.k_wlo (-slot);
    k.k_whi <- min k.k_whi (radix - 1 - slot);
    if k.k_wlo > k.k_whi then raise (Bad_map "empty port window")
  in
  let slot_feasible k slot = k.k_wlo + slot <= radix - 1 && k.k_whi + slot >= 0 in
  let record k slot p =
    if not (Hashtbl.mem k.k_slots slot) then begin
      Hashtbl.replace k.k_slots slot p;
      narrow k slot
    end
  in
  let new_switch route actual =
    let k =
      {
        k_idx = !nknown;
        k_route = route;
        k_actual = actual;
        k_slots = Hashtbl.create 8;
        k_wlo = 0;
        k_whi = radix - 1;
      }
    in
    incr nknown;
    known := k :: !known;
    k
  in
  (* Ground truth destination of a route, used only for accounting. *)
  let actual_end route =
    let trace = Worm.eval g ~src:mapper ~turns:route in
    match trace.Worm.outcome with
    | Worm.Stranded n | Worm.Arrived n -> Some n
    | _ -> None
  in
  let root =
    match Graph.neighbor g (mapper, 0) with
    | Some (sw, _) -> new_switch [] sw
    | None -> raise (Bad_map "mapper host is not wired")
  in
  record root 0 (Phost mapper_name);
  Hashtbl.replace hosts mapper_name (root.k_idx, 0);
  let frontier = Queue.create () in
  Queue.add root frontier;
  let turn_order =
    List.concat (List.init (radix - 1) (fun i -> [ i + 1; -(i + 1) ]))
  in
  let compare_candidate s x =
    (* Is the switch behind (s, turn x) one we already know?  Try the
       known switches nearest in depth first (a firmware heuristic),
       scanning the spanning turn Y over feasible entries of B. *)
    let cand_depth = List.length s.k_route + 1 in
    let ordered =
      List.filter
        (fun b -> abs (List.length b.k_route - cand_depth) <= compare_depth_window)
        !known
      |> List.sort (fun a b ->
             compare
               (abs (List.length a.k_route - cand_depth))
               (abs (List.length b.k_route - cand_depth)))
    in
    let return_route b = List.rev_map (fun t -> -t) b.k_route in
    let try_b b =
      let rec try_turns = function
        | [] -> None
        | y :: rest ->
          (* Success means the candidate is B entered at slot -y. *)
          if (not (slot_feasible b (-y))) || Hashtbl.mem b.k_slots (-y) then
            try_turns rest
          else begin
            let probe = s.k_route @ [ x; y ] @ return_route b in
            incr compp;
            San_obs.Obs.count "myricom.compare_probes";
            let resp, cost = Network.host_probe net ~src:mapper ~turns:probe in
            elapsed := !elapsed +. cost;
            match resp with
            | Network.Host n when n = mapper_name -> Some (b, -y)
            | Network.Host _ | Network.Switch | Network.Nothing -> try_turns rest
          end
      in
      try_turns turn_order
    in
    let rec scan = function
      | [] -> None
      | b :: rest -> (
        match try_b b with Some m -> Some m | None -> scan rest)
    in
    scan ordered
  in
  let explore s =
    List.iter
      (fun x ->
        if slot_feasible s x && not (Hashtbl.mem s.k_slots x) then begin
          (* 1. loopback-cable test *)
          incr loops;
          San_obs.Obs.count "myricom.loop_probes";
          let d, cost = Network.loop_probe net ~src:mapper ~turns:s.k_route ~turn:x in
          elapsed := !elapsed +. cost;
          match d with
          | Some d ->
            record s x (Pswitch (s.k_idx, x + d));
            record s (x + d) (Pswitch (s.k_idx, x))
          | None -> (
            (* 2. host test *)
            incr hostp;
            San_obs.Obs.count "myricom.host_probes";
            let resp, cost =
              Network.host_probe net ~src:mapper ~turns:(s.k_route @ [ x ])
            in
            elapsed := !elapsed +. cost;
            match resp with
            | Network.Host name ->
              (match Hashtbl.find_opt hosts name with
              | None ->
                Hashtbl.replace hosts name (s.k_idx, x);
                record s x (Phost name)
              | Some _ ->
                (* The same host reached twice would mean a replicate
                   switch slipped through; record anyway. *)
                record s x (Phost name))
            | Network.Switch | Network.Nothing -> (
              (* 3. switch test *)
              incr swp;
              San_obs.Obs.count "myricom.switch_probes";
              let resp, cost =
                Network.switch_probe net ~src:mapper ~turns:(s.k_route @ [ x ])
              in
              elapsed := !elapsed +. cost;
              match resp with
              | Network.Host _ | Network.Nothing -> ()
              | Network.Switch -> (
                (* 4. disambiguate via comparison probes *)
                let cand_actual = actual_end (s.k_route @ [ x ]) in
                match compare_candidate s x with
                | Some (b, slot) ->
                  (match cand_actual with
                  | Some a when a <> b.k_actual -> incr false_matches
                  | _ -> ());
                  record s x (Pswitch (b.k_idx, slot));
                  record b slot (Pswitch (s.k_idx, x))
                | None ->
                  let nk =
                    new_switch
                      (s.k_route @ [ x ])
                      (Option.value cand_actual ~default:(-1))
                  in
                  record s x (Pswitch (nk.k_idx, 0));
                  record nk 0 (Pswitch (s.k_idx, x));
                  if List.length nk.k_route < max_depth then
                    Queue.add nk frontier)))
        end)
      turn_order
  in
  let rec drain () =
    match Queue.take_opt frontier with
    | None -> ()
    | Some s ->
      explore s;
      drain ()
  in
  let map =
    match
      drain ();
      (* Export: normalise each switch's used slots to start at 0. *)
      let out = Graph.create ~radix () in
      let by_idx = Hashtbl.create 64 in
      List.iter (fun k -> Hashtbl.replace by_idx k.k_idx k) !known;
      let node_of = Hashtbl.create 64 in
      let base_of = Hashtbl.create 64 in
      List.iter
        (fun k ->
          let slots = Hashtbl.fold (fun i _ acc -> i :: acc) k.k_slots [] in
          let lo = List.fold_left min 0 slots in
          let hi = List.fold_left max 0 slots in
          if hi - lo > radix - 1 then
            raise (Bad_map (Printf.sprintf "switch %d: slot span too wide" k.k_idx));
          Hashtbl.replace base_of k.k_idx lo;
          Hashtbl.replace node_of k.k_idx
            (Graph.add_switch out ~name:(Printf.sprintf "y%d" k.k_idx) ()))
        !known;
      Hashtbl.iter
        (fun name (_, _) -> ignore (Graph.add_host out ~name))
        hosts;
      let base i = Hashtbl.find base_of i in
      (* Wires: connect each switch-switch record once (from the
         lexicographically smaller end) and each host record from the
         switch side. *)
      List.iter
        (fun k ->
          let kn = Hashtbl.find node_of k.k_idx in
          Hashtbl.iter
            (fun slot p ->
              let this_end = (kn, slot - base k.k_idx) in
              match p with
              | Phost name ->
                let h = Option.get (Graph.host_by_name out name) in
                if Graph.neighbor out this_end = None && Graph.neighbor out (h, 0) = None
                then Graph.connect out this_end (h, 0)
              | Pswitch (j, jslot) ->
                if (k.k_idx, slot) <= (j, jslot) then begin
                  let other = (Hashtbl.find node_of j, jslot - base j) in
                  if Graph.neighbor out this_end = None && Graph.neighbor out other = None
                  then Graph.connect out this_end other
                end)
            k.k_slots)
        !known;
      out
    with
    | out -> Ok out
    | exception Bad_map m -> Error m
  in
  {
    map;
    counts =
      {
        loop_probes = !loops;
        host_probes = !hostp;
        switch_probes = !swp;
        compare_probes = !compp;
      };
    elapsed_ns = !elapsed;
    switches_found = !nknown;
    false_matches = !false_matches;
  }
