open San_topology
open San_simnet

type result = {
  map : (Graph.t, string) Stdlib.result;
  coupon_probes : int;
  coupon_hits : int;
  bfs_explorations : int;
  host_probes : int;
  switch_probes : int;
  elapsed_ns : float;
  created_vertices : int;
  live_vertices : int;
}

let total_probes r = r.host_probes + r.switch_probes

(* Splice a certified path (turn prefix ending at host [name]) into the
   model, reusing vertices the model already has along the way. The
   worm's turns are relative to each hop's entry port, so the walk
   threads (vertex, entry slot) pairs — entry slots are kept relative
   to each vertex's own frame, which is stable across merges. Returns
   the switch vertices that were freshly created. *)
let splice model turns consumed name =
  let arr = Array.of_list turns in
  let fresh = ref [] in
  (* The root switch's frame 0 is its port towards the mapper host. *)
  let v = ref (Model.root_switch model) in
  let entry = ref 0 in
  (* The coupon prefix walked so far, last turn first. *)
  let rev_prefix = ref [] in
  let class_slot turn = Model.turn_slot model !v (!entry + turn) in
  for i = 0 to consumed - 2 do
    let turn = arr.(i) in
    rev_prefix := turn :: !rev_prefix;
    match Model.neighbor_end_via model !v ~slot:(class_slot turn) with
    | Some (w, wslot) ->
      v := w;
      entry := wslot
    | None ->
      let w =
        Model.add_switch_vertex model ~parent:!v ~turn:(!entry + turn)
          ~rev_probe:!rev_prefix
      in
      fresh := w :: !fresh;
      v := w;
      entry := 0
  done;
  if consumed >= 1 then begin
    let final = arr.(consumed - 1) in
    match Model.neighbor_end_via model !v ~slot:(class_slot final) with
    | Some _ -> ()
    | None ->
      ignore
        (Model.add_host_vertex model ~parent:!v ~turn:(!entry + final)
           ~rev_probe:(final :: !rev_prefix) ~name)
  end;
  List.rev !fresh

let run ?(policy = Berkeley.faithful) ?(depth = Berkeley.Oracle)
    ?(samples = 150) ~rng net ~mapper =
  let g = Network.graph net in
  if not (Graph.is_host g mapper) then
    invalid_arg "Randomized.run: mapper must be a host";
  Network.reset_stats net;
  let depth_used = Berkeley.resolve_depth net ~mapper depth in
  let model =
    Model.create ~mapper_name:(Graph.name g mapper) ~radix:(Graph.radix g)
  in
  let elapsed = ref 0.0 in
  let coupon_hits = ref 0 in
  let seeds = ref [ Model.root_switch model ] in
  let radix = Graph.radix g in
  (* §3.3.3: small turns are the most likely to be legal from a random
     entry port, so bias the walk towards them (weight 1/magnitude). *)
  let magnitudes =
    List.concat
      (List.init (radix - 1) (fun i ->
           let m = i + 1 in
           List.init (max 1 ((radix - 1) / m)) (fun _ -> m)))
  in
  let mag_arr = Array.of_list magnitudes in
  let random_turn () =
    let m = mag_arr.(San_util.Prng.int rng (Array.length mag_arr)) in
    if San_util.Prng.bool rng then m else -m
  in
  for _ = 1 to samples do
    let turns = List.init depth_used (fun _ -> random_turn ()) in
    let resp, cost = Network.walk_probe net ~src:mapper ~turns in
    elapsed := !elapsed +. cost;
    match resp with
    | Some (name, consumed) ->
      incr coupon_hits;
      seeds := splice model turns consumed name @ !seeds
    | None -> ()
  done;
  let bfs_explorations, bfs_elapsed, _ =
    Berkeley.explore_from ~policy ~depth_used ~record_trace:false net ~mapper
      model (List.rev !seeds)
  in
  elapsed := !elapsed +. bfs_elapsed;
  let map = Model.export model in
  {
    map;
    coupon_probes = samples;
    coupon_hits = !coupon_hits;
    bfs_explorations;
    host_probes = Network.host_probes net;
    switch_probes = Network.switch_probes net;
    elapsed_ns = !elapsed;
    created_vertices = Model.created_vertices model;
    live_vertices = Model.live_vertices model;
  }
