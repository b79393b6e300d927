open San_topology
open San_simnet
module Why = San_why.Why

let resp_string = function
  | Network.Host name -> "host " ^ name
  | Network.Switch -> "switch"
  | Network.Nothing -> "silence"

type policy = {
  skip_explored : bool;
  skip_known : bool;
  window_pruning : bool;
  host_probe_first : bool;
  retries : int;
}

let faithful =
  {
    skip_explored = true;
    skip_known = true;
    window_pruning = true;
    host_probe_first = false;
    retries = 0;
  }

let exhaustive =
  {
    skip_explored = false;
    skip_known = false;
    window_pruning = false;
    host_probe_first = false;
    retries = 0;
  }

type depth = Oracle | Fixed of int

(* Simulated time spent probing, in a flat float field so adding to it
   allocates nothing. *)
type clock = { mutable ns : float }

type trace_point = {
  step : int;
  created_nodes : int;
  live_nodes : int;
  live_edges : int;
  frontier_length : int;
  hosts_found : int;
  elapsed_ns : float;
}

type result = {
  map : (Graph.t, string) Stdlib.result;
  explorations : int;
  host_probes : int;
  host_hits : int;
  switch_probes : int;
  switch_hits : int;
  elapsed_ns : float;
  depth_used : int;
  created_vertices : int;
  live_vertices : int;
  trace : trace_point list;
}

let total_probes r = r.host_probes + r.switch_probes

type service = {
  sv_radix : int;
  sv_host_probe : turns:Route.t -> Network.response * float;
  sv_switch_probe : turns:Route.t -> Network.response * float;
}

let service_of_network net ~mapper =
  {
    sv_radix = Graph.radix (Network.graph net);
    sv_host_probe = (fun ~turns -> Network.host_probe net ~src:mapper ~turns);
    sv_switch_probe =
      (fun ~turns -> Network.switch_probe net ~src:mapper ~turns);
  }

(* The breadth-first exploration engine, shared between the standard
   driver, the §6 randomized extension (which seeds the model with
   coupon-collected paths before completing breadth-first), and the
   on-line mapper over the event-driven simulator. Returns
   (explorations, elapsed_ns, trace) and leaves the model stabilised
   but unpruned. *)
let explore_service ?expand ?probe_budget ?tick ~policy
    ~depth_used ~record_trace sv model seeds =
  let frontier = San_util.Int_ring.create () in
  List.iter (San_util.Int_ring.add frontier) seeds;
  let elapsed = { ns = 0.0 } in
  let explorations = ref 0 in
  let probes_sent = ref 0 in
  let trace = ref [] in
  (* §3.3.3: a probe enters a switch at an effectively random port, so
     small turns are the likeliest to hit a legal one. Probing +1, -1,
     +2, -2, ... (never 0) shrinks the model's offset window fastest,
     which lets the loop below skip turns that are provably illegal:
     the paper eliminates probes "only when we are sure they will
     fail". *)
  let turn_order =
    Array.init (2 * (sv.sv_radix - 1)) (fun i ->
        let m = (i / 2) + 1 in
        if i land 1 = 0 then m else -m)
  in
  let budget_left () =
    match probe_budget with None -> true | Some b -> !probes_sent < b
  in
  (* One initial attempt plus up to [retries] re-sends on silence. *)
  let rec send ~host probe attempt =
    let (resp : Network.response), cost =
      if host then sv.sv_host_probe ~turns:probe
      else sv.sv_switch_probe ~turns:probe
    in
    incr probes_sent;
    elapsed.ns <- elapsed.ns +. cost;
    match resp with
    | Network.Nothing when attempt < policy.retries ->
      send ~host probe (attempt + 1)
    | r -> r
  in
  let record ~host probe resp =
    if Why.on () then
      ignore
        (Why.record_probe
           ~kind:(if host then Why.Host_probe else Why.Switch_probe)
           ~turns:probe ~resp:(resp_string resp))
  in
  (* One probe of one kind for [turn] out of [v]; true when it answered,
     which is exactly when the model changed. The child keeps
     [rev_probe], one cell on top of [v]'s route; the forward copy is
     only for sending. *)
  let try_probe ~host v turn rev_probe probe =
    let resp = send ~host probe 0 in
    record ~host probe resp;
    match resp with
    | Network.Host name when host ->
      ignore (Model.add_host_vertex model ~parent:v ~turn ~rev_probe ~name);
      true
    | Network.Switch when not host ->
      let child = Model.add_switch_vertex model ~parent:v ~turn ~rev_probe in
      San_util.Int_ring.add frontier child;
      true
    | Network.Host _ | Network.Switch | Network.Nothing -> false
  in
  (* Sends the probes for one turn out of [v]: the policy's first kind,
     then the other if the first found nothing. *)
  let probe_pair v turn =
    let rev_probe = turn :: Model.rev_probe model v in
    let probe = List.rev rev_probe in
    let host = policy.host_probe_first in
    try_probe ~host v turn rev_probe probe
    || try_probe ~host:(not host) v turn rev_probe probe
  in
  let explore ~fill_only v =
    if San_obs.Obs.on () then begin
      San_obs.Obs.count "mapper.explorations";
      San_obs.Obs.observe "mapper.frontier"
        (float_of_int (San_util.Int_ring.length frontier))
    end;
    Model.set_explored model v;
    (* Turn planning reads [v]'s class through its canonical vertex and
       frame shift, resolved here and again only after a probe that
       changed the model: a new vertex can merge and re-frame [v]. *)
    let check_known = fill_only || policy.skip_known in
    let c = ref (Model.canonical model v) in
    let shift = ref (Model.frame_shift model v) in
    (* When both skips apply, one mask test tells whether any turn
       survives them; if none does, the loop would send no probe. *)
    if
      (not (check_known && policy.window_pruning))
      || Model.has_open_turn model !c ~shift:!shift
    then
      for i = 0 to Array.length turn_order - 1 do
        let turn = turn_order.(i) in
        let slot = turn + !shift in
        (* Skip a slot already wired in the model (the probe would
           teach nothing) or one no feasible entry-port offset leaves
           on a real port (the probe is certain to die). *)
        let skip =
          (check_known && Model.slot_occupied model !c slot)
          || policy.window_pruning
             && not (Model.window_admits model !c ~slot)
        in
        if (not skip) && probe_pair v turn then begin
          c := Model.canonical model v;
          shift := Model.frame_shift model v
        end
      done;
    incr explorations;
    if record_trace then
      trace :=
        {
          step = !explorations;
          created_nodes = Model.created_vertices model;
          live_nodes = Model.live_vertices model;
          live_edges = Model.live_edges model;
          frontier_length = San_util.Int_ring.length frontier;
          hosts_found = Model.known_hosts model;
          elapsed_ns = elapsed.ns;
        }
        :: !trace;
    match tick with
    | Some f ->
      f ~probes:!probes_sent ~frontier:(San_util.Int_ring.length frontier)
    | None -> ()
  in
  (* The budget gates whole explorations, never individual probes
     inside one: a half-enumerated switch would leave the model with
     false absence evidence (slots that were merely unprobed look like
     slots that answered nothing). So the overshoot past [probe_budget]
     is bounded by one exploration — 2 * (radix - 1) turns, at most a
     switch and a host probe per turn, each retried: 4 * (radix - 1) *
     (1 + retries) probes — plus the turn-0 root confirmation below,
     which is always exempt. *)
  let rec drain () =
    if not (budget_left ()) then ()
    else if not (San_util.Int_ring.is_empty frontier) then begin
      let v = San_util.Int_ring.pop frontier in
      let within_depth = Model.probe_length model v < depth_used in
      (if within_depth && Model.is_live model v then begin
        (* A replicate of an explored class is not skipped outright:
           each worm holds the wires of its own path, so a member
           reached by a different route can probe into slots the first
           member physically could not (its worm would have collided
           with itself). Probing only the still-unknown slots keeps
           the heuristic's savings while recovering that evidence. *)
        let expanded =
          match expand with
          | None -> true
          | Some f -> f (Model.probe_string model v)
        in
        if expanded then begin
          if not (policy.skip_explored && Model.is_explored model v) then
            explore ~fill_only:false v
          else explore ~fill_only:true v
        end
        else if Model.is_explored model v then
          (* Beyond the exploration scope, replicates of explored
             classes still fill in the slots self-collision blocked on
             the short path: without this, a scope-edge switch whose
             only in-scope route retraces the worm's own wires is never
             discovered. Unexplored classes stay unexpanded stubs. *)
          explore ~fill_only:true v
      end);
      drain ()
    end
  in
  drain ();
  (* The root switch is the one vertex the model assumes rather than
     discovers. When the exploration confirmed nothing behind it, a
     turn-0 probe tells the two degenerate fabrics apart: off a real
     switch it bounces straight back to the mapper (keep the pendant
     switch), on an unwired cable it dies (retract the assumption). *)
  let root = Model.root_switch model in
  if Model.is_live model root && Model.degree model root <= 1 then begin
    let resp = send ~host:true [ 0 ] 0 in
    record ~host:true [ 0 ] resp;
    match resp with
    | Network.Host _ ->
      if Why.on () then begin
        let did =
          Why.deduce ~rule:"root_confirmed"
            ~fact:
              (lazy
                (Printf.sprintf
                   "assumed root switch v%d confirmed: the turn-0 \
                    self-probe bounced back off it"
                   root))
            ~probes:(Option.to_list (Why.last_probe ()))
            ()
        in
        Why.note_root_confirmation ~vid:root ~did
      end
    | Network.Switch | Network.Nothing -> Model.kill_root_switch model
  end;
  (!explorations, elapsed.ns, List.rev !trace)

let finish ~model ~explorations ~elapsed ~depth_used ~trace net =
  let map = Model.export model in
  {
    map;
    explorations;
    host_probes = Network.host_probes net;
    host_hits = Network.host_hits net;
    switch_probes = Network.switch_probes net;
    switch_hits = Network.switch_hits net;
    elapsed_ns = elapsed;
    depth_used;
    created_vertices = Model.created_vertices model;
    live_vertices = Model.live_vertices model;
    trace;
  }

let resolve_depth net ~mapper = function
  | Oracle -> Core_set.search_depth (Network.graph net) ~root:mapper
  | Fixed d -> d

let run ?(policy = faithful) ?(depth = Oracle) ?(record_trace = false) ?expand
    ?probe_budget ?tick net ~mapper =
  let g = Network.graph net in
  if not (Graph.is_host g mapper) then
    invalid_arg "Berkeley.run: mapper must be a host";
  Network.reset_stats net;
  San_obs.Obs.with_span "berkeley.run" (fun () ->
      let depth_used = resolve_depth net ~mapper depth in
      let model =
        Model.create ~mapper_name:(Graph.name g mapper) ~radix:(Graph.radix g)
      in
      let explorations, elapsed, trace =
        explore_service ?expand ?probe_budget ?tick ~policy ~depth_used
          ~record_trace
          (service_of_network net ~mapper)
          model
          [ Model.root_switch model ]
      in
      finish ~model ~explorations ~elapsed ~depth_used ~trace net)
