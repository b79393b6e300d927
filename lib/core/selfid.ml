open San_topology
open San_simnet

type result = {
  map : (Graph.t, string) Stdlib.result;
  probes : int;
  explorations : int;
  elapsed_ns : float;
}

exception Bad of string

let run g ~mapper =
  if not (Graph.is_host g mapper) then
    invalid_arg "Selfid.run: mapper must be a host";
  let net = Network.create g in
  let elapsed = ref 0.0 in
  let probes = ref 0 in
  let explorations = ref 0 in
  let out = Graph.create ~radix:(Graph.radix g) () in
  (* The id oracle: where a route's worm ends up, with its absolute
     entry port — exactly what the imagined hardware would stamp into
     the returning loopback. *)
  let identify route =
    let trace = Worm.eval g ~src:mapper ~turns:route in
    match (trace.Worm.outcome, List.rev trace.Worm.hops) with
    | Worm.Stranded sw, last :: _ -> Some (sw, snd last.Worm.entry_end)
    | _ -> None
  in
  let node_of : (Graph.node, Graph.node) Hashtbl.t = Hashtbl.create 64 in
  let host_node name =
    match Graph.host_by_name out name with
    | Some h -> h
    | None -> Graph.add_host out ~name
  in
  let switch_node actual =
    match Hashtbl.find_opt node_of actual with
    | Some n -> (n, false)
    | None ->
      let n = Graph.add_switch out () in
      Hashtbl.replace node_of actual n;
      (n, true)
  in
  match Graph.neighbor g (mapper, 0) with
  | None -> { map = Ok out; probes = 0; explorations = 0; elapsed_ns = 0.0 }
  | Some (first_sw, entry0) -> (
    let mh = host_node (Graph.name g mapper) in
    let root, _ = switch_node first_sw in
    Graph.connect out (mh, 0) (root, entry0);
    let frontier = Queue.create () in
    Queue.add (first_sw, root, [], entry0) frontier;
    let map =
      try
        while not (Queue.is_empty frontier) do
          let _, node, route, entry = Queue.take frontier in
          incr explorations;
          for port = 0 to Graph.radix g - 1 do
            if port <> entry && Graph.neighbor out (node, port) = None then begin
              let turn = port - entry in
              let probe = route @ [ turn ] in
              incr probes;
              let resp, cost = Network.switch_probe net ~src:mapper ~turns:probe in
              elapsed := !elapsed +. cost;
              match resp with
              | Network.Switch -> (
                match identify probe with
                | None -> raise (Bad "loopback succeeded but oracle disagrees")
                | Some (peer, peer_entry) ->
                  let pnode, fresh = switch_node peer in
                  if Graph.neighbor out (pnode, peer_entry) = None then
                    Graph.connect out (node, port) (pnode, peer_entry);
                  if fresh then Queue.add (peer, pnode, probe, peer_entry) frontier)
              | Network.Host _ | Network.Nothing -> (
                incr probes;
                let resp, cost = Network.host_probe net ~src:mapper ~turns:probe in
                elapsed := !elapsed +. cost;
                match resp with
                | Network.Host name ->
                  let h = host_node name in
                  if Graph.neighbor out (h, 0) = None then
                    Graph.connect out (node, port) (h, 0)
                | Network.Switch | Network.Nothing -> ())
            end
          done
        done;
        Ok out
      with
      | Bad m -> Error m
      | Invalid_argument m -> Error m
    in
    { map; probes = !probes; explorations = !explorations; elapsed_ns = !elapsed })
