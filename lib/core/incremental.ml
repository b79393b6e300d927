open San_topology
open San_simnet

type verdict = Unchanged | Changed of int
type repair = No_repair | Patched of int | Remapped

type result = {
  verdict : verdict;
  repair : repair;
  verify_probes : int;
  remap_probes : int;
  verify_elapsed_ns : float;
  total_elapsed_ns : float;
  map : (Graph.t, string) Stdlib.result;
}

(* For every switch of the map, a route (turn string) from the mapper
   and the port by which that route enters it — BFS over the map — and
   the BFS tree in discovery order: each other switch with its parent
   and the parent's port towards it. *)
let switch_routes map ~mapper_m =
  let routes = Hashtbl.create 64 in
  let tree = ref [] in
  (* mapper's switch: empty route, entered at its port towards the
     mapper host *)
  (match Graph.neighbor map (mapper_m, 0) with
  | None -> ()
  | Some (sw0, entry0) ->
    Hashtbl.replace routes sw0 ([], entry0);
    let q = Queue.create () in
    Queue.add sw0 q;
    while not (Queue.is_empty q) do
      let sw = Queue.take q in
      let turns, entry = Hashtbl.find routes sw in
      List.iter
        (fun (p, (peer, peer_port)) ->
          if
            (not (Graph.is_host map peer))
            && (not (Hashtbl.mem routes peer))
            && peer <> sw
          then begin
            Hashtbl.replace routes peer (turns @ [ p - entry ], peer_port);
            tree := (peer, sw, p) :: !tree;
            Queue.add peer q
          end)
        (Graph.wired_ports map sw)
    done);
  (routes, List.rev !tree)

type sweep = {
  checks : int;
  elapsed : float;
  discrepancies : int;
  unrouted : bool; (* some switch of the map has no route *)
  silenced : Graph.wire_end list;
      (* mapped wires that went silent at confirmed switches *)
  contradicted : bool;
      (* a confirmed switch answered something other than silence *)
}

(* One verification sweep of [map]: one check per port a real port of
   each mapped switch can sit at, plus the turn-0 self-probe. A switch
   is confirmed when the self-probe bounced back off the mapper's
   switch and every cable of its BFS path answered as mapped. *)
let sweep net ~mapper map ~mapper_m =
  let radix = Graph.radix map in
  let routes, tree = switch_routes map ~mapper_m in
  let elapsed = ref 0.0 in
  let checks = ref 0 in
  let discrepancies = ref 0 in
  (* Ports whose check disagreed, with whether a mapped wire went
     silent there. *)
  let failed = Hashtbl.create 16 in
  let fail sw p ~silent =
    incr discrepancies;
    Hashtbl.replace failed (sw, p) silent
  in
  let probe send turns =
    let resp, cost = send net ~src:mapper ~turns in
    elapsed := !elapsed +. cost;
    resp
  in
  (* The mapper's switch is assumed from its cable, not probed: a
     turn-0 self-probe bounces back to the mapper exactly when it is
     plugged into a switch. *)
  let root = Graph.neighbor map (mapper_m, 0) in
  incr checks;
  let bounced =
    match probe Network.host_probe [ 0 ] with
    | Network.Host name -> name = Graph.name map mapper_m
    | Network.Switch | Network.Nothing -> false
  in
  if bounced <> (root <> None) then incr discrepancies;
  let check_port sw (turns, entry) p =
    let turn = p - entry in
    if turn <> 0 then begin
      incr checks;
      let turns = turns @ [ turn ] in
      let expected =
        if p >= 0 && p < radix then Graph.neighbor map (sw, p) else None
      in
      match expected with
      | Some (peer, _) when Graph.is_host map peer -> (
        match probe Network.host_probe turns with
        | Network.Host name when name = Graph.name map peer -> ()
        | Network.Nothing -> fail sw p ~silent:true
        | Network.Host _ | Network.Switch -> fail sw p ~silent:false)
      | Some _ -> (
        match probe Network.switch_probe turns with
        | Network.Switch -> ()
        | Network.Nothing -> fail sw p ~silent:true
        | Network.Host _ -> fail sw p ~silent:false)
      | None -> (
        (* A vacancy: neither probe of the pair may answer. *)
        match probe Network.switch_probe turns with
        | Network.Switch -> fail sw p ~silent:false
        | Network.Host _ | Network.Nothing -> (
          match probe Network.host_probe turns with
          | Network.Host _ -> fail sw p ~silent:false
          | Network.Switch | Network.Nothing -> ()))
    end
  in
  (* The map numbers a switch's ports from its lowest used slot, so a
     switch with spare ports sits at an unknown offset: check every map
     port a real port can be at, -(radix-1-hi) .. radix-1+lo for used
     ports lo..hi. Outside 0..radix-1 the map has no wire, so those
     must be silent. Switches are visited in the hashtable's order,
     which fixes the order the check times are summed in. *)
  Hashtbl.iter
    (fun sw route ->
      let lo = ref radix and hi = ref (-1) in
      for p = 0 to radix - 1 do
        if Graph.peer map sw p <> None then begin
          if p < !lo then lo := p;
          hi := p
        end
      done;
      for p = !hi - (radix - 1) to radix - 1 + !lo do
        check_port sw route p
      done)
    routes;
  (* Switches unreachable in the map would already make it suspect. *)
  let unrouted = Hashtbl.length routes <> Graph.num_switches map in
  if unrouted then incr discrepancies;
  let confirmed = Hashtbl.create 64 in
  (match root with
  | Some (sw0, _) when bounced -> Hashtbl.replace confirmed sw0 ()
  | _ -> ());
  List.iter
    (fun (sw, parent, p) ->
      if Hashtbl.mem confirmed parent && not (Hashtbl.mem failed (parent, p))
      then Hashtbl.replace confirmed sw ())
    tree;
  let silenced = ref [] and contradicted = ref false in
  Hashtbl.iter
    (fun (sw, p) silent ->
      if Hashtbl.mem confirmed sw then
        if silent then silenced := (sw, p) :: !silenced
        else contradicted := true)
    failed;
  {
    checks = !checks;
    elapsed = !elapsed;
    discrepancies = !discrepancies;
    unrouted;
    silenced = !silenced;
    contradicted = !contradicted;
  }

(* The previous map with the silenced wires removed and cut down to
   what the mapper still reaches, with the number of wires removed.
   Removing cables never redirects a worm, so where the sweep's
   evidence is only silence at confirmed switches this is the new
   N - F, unless the cut left a hostless region hanging off one
   switch-to-switch cable (Theorem 1's F), which a fresh map drops.
   [None] when a patch cannot hold. *)
let patch previous ~mapper_m s =
  if s.unrouted || s.contradicted || s.silenced = [] then None
  else begin
    let cut = Graph.copy previous in
    let lost =
      List.fold_left
        (fun n e ->
          match Graph.neighbor cut e with
          | None -> n
          | Some _ ->
            Graph.disconnect cut e;
            n + 1)
        0 s.silenced
    in
    let dist = Analysis.bfs_distances cut mapper_m in
    (* When the mapper still reaches every node, the cut map is the
       patch: the same ids, names and ports as its induced copy. *)
    let patched =
      if Array.for_all (fun d -> d <> max_int) dist then cut
      else Graph.induced cut ~keep:(fun v -> dist.(v) <> max_int)
    in
    if Array.exists Fun.id (Core_set.separated_set patched) then None
    else Some (patched, lost)
  end

let run ?policy ?remap net ~mapper ~previous =
  let g = Network.graph net in
  Network.reset_stats net;
  let full ~verify_probes ~verify_elapsed ~discrepancies =
    let map, remap_probes, remap_elapsed =
      match remap with
      | Some f -> f ~discrepancies
      | None ->
        let r = Berkeley.run ?policy net ~mapper in
        (r.Berkeley.map, Berkeley.total_probes r, r.Berkeley.elapsed_ns)
    in
    {
      verdict = Changed discrepancies;
      repair = Remapped;
      verify_probes;
      remap_probes;
      verify_elapsed_ns = verify_elapsed;
      total_elapsed_ns = verify_elapsed +. remap_elapsed;
      map;
    }
  in
  let started name s =
    San_obs.Obs.emit
      (San_obs.Trace.Epoch_started { name; discrepancies = s.discrepancies })
  in
  let mapper_name = Graph.name g mapper in
  match Graph.host_by_name previous mapper_name with
  | None -> full ~verify_probes:0 ~verify_elapsed:0.0 ~discrepancies:1
  | Some mapper_m -> (
    let s = sweep net ~mapper previous ~mapper_m in
    let patched =
      if s.discrepancies = 0 then None else patch previous ~mapper_m s
    in
    started
      (if s.discrepancies = 0 then "verified"
       else if Option.is_none patched then "remap"
       else "patch")
      s;
    San_obs.Obs.count "epoch.verifications";
    if s.discrepancies = 0 then
      {
        verdict = Unchanged;
        repair = No_repair;
        verify_probes = s.checks;
        remap_probes = 0;
        verify_elapsed_ns = s.elapsed;
        total_elapsed_ns = s.elapsed;
        map = Ok previous;
      }
    else
      match patched with
      | None ->
        full ~verify_probes:s.checks ~verify_elapsed:s.elapsed
          ~discrepancies:s.discrepancies
      | Some (map, lost) ->
        (* The same sweep over the patched map: clean, it confirms every
           wire and vacancy of every switch left; anything else and the
           patch is off, its sweep counted as verification. *)
        let mapper_m = Option.get (Graph.host_by_name map mapper_name) in
        let s2 = sweep net ~mapper map ~mapper_m in
        started (if s2.discrepancies = 0 then "patched" else "remap") s2;
        if s2.discrepancies = 0 then
          {
            verdict = Changed s.discrepancies;
            repair = Patched lost;
            verify_probes = s.checks;
            remap_probes = s2.checks;
            verify_elapsed_ns = s.elapsed;
            total_elapsed_ns = s.elapsed +. s2.elapsed;
            map = Ok map;
          }
        else
          full ~verify_probes:(s.checks + s2.checks)
            ~verify_elapsed:(s.elapsed +. s2.elapsed)
            ~discrepancies:s.discrepancies)
