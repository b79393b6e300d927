open San_topology

type worm_id = int

type drop_reason = Bad_route of Worm.outcome | Forward_reset

type outcome =
  | Pending
  | Delivered of { dst : Graph.node; at_ns : float; latency_ns : float }
  | Dropped of { reason : drop_reason; at_ns : float }

type final = Deliver of Graph.node | Die of Worm.outcome

type worm = {
  wid : worm_id;
  inject_at : float;
  path : Graph.wire_end array; (* directed channels, in order *)
  final : final;
  len_ns : float; (* transmission time of the whole worm *)
  span : int; (* channels a stalled worm keeps occupied *)
  mutable held_from : int; (* lowest channel index still held *)
  mutable head : int; (* next channel index to acquire *)
  mutable waiting_on : int; (* -1 when not waiting *)
  mutable waiting_since : float;
  mutable done_ : bool;
  mutable w_outcome : outcome;
}

type channel = {
  mutable owner : worm_id option;
  mutable gen : int; (* acquisition counter, guards stale releases *)
  mutable acquired_at : float; (* when the current owner took it *)
  waiters : (worm_id * int) Queue.t;
}

type event =
  | Start of worm_id
  | Advance of worm_id * int
  | Release of Graph.wire_end * worm_id * int (* expected owner and gen *)
  | Reset_check of worm_id * int * float
  | Complete of worm_id

type t = {
  graph : Graph.t;
  params : Params.t;
  fabric : San_telemetry.Fabric_stats.t option;
      (* resolved once at create: explicit arg, else the process-wide
         slot; None means per-channel accounting is off *)
  events : event San_util.Heap.t;
  dense : Dense.t;
      (* CSR snapshot taken at create: wire ends resolve to dense
         channel ids in O(1) on the hot path *)
  channels : channel option array; (* indexed by dense channel id *)
  late_channels : (Graph.wire_end, channel) Hashtbl.t;
      (* ports added to the graph after create (daemon world) *)
  walk : Worm.walk; (* every injected route is evaluated into this *)
  mutable worms : worm array;
  mutable nworms : int;
  mutable clock : float;
  mutable n_delivered : int;
  mutable n_bad_route : int;
  mutable n_reset : int;
  mutable lat_sum : float;
  mutable lat_max : float;
  mutable lats : float list;
}

let create ?(params = Params.default) ?fabric graph =
  let fabric =
    match fabric with
    | Some _ as f -> f
    | None -> San_telemetry.Fabric_stats.current ()
  in
  let dense = Dense.of_graph graph in
  {
    graph;
    params;
    fabric;
    events = San_util.Heap.create ();
    dense;
    channels = Array.make (Dense.num_channels dense) None;
    late_channels = Hashtbl.create 16;
    walk = Worm.walk ();
    worms = [||];
    nworms = 0;
    clock = 0.0;
    n_delivered = 0;
    n_bad_route = 0;
    n_reset = 0;
    lat_sum = 0.0;
    lat_max = 0.0;
    lats = [];
  }

let fresh_channel () =
  { owner = None; gen = 0; acquired_at = 0.0; waiters = Queue.create () }

let channel t key =
  match Dense.channel_of t.dense key with
  | Some id -> (
    match t.channels.(id) with
    | Some c -> c
    | None ->
      let c = fresh_channel () in
      t.channels.(id) <- Some c;
      c)
  | None -> (
    (* Port appeared after the snapshot (live repair / growth). *)
    match Hashtbl.find_opt t.late_channels key with
    | Some c -> c
    | None ->
      let c = fresh_channel () in
      Hashtbl.add t.late_channels key c;
      c)

let worm t wid = t.worms.(wid)

let schedule t ~at ev = San_util.Heap.add t.events ~priority:at ev

let inject t ~at_ns ~src ~turns ?payload_bytes () =
  if not (Graph.is_host t.graph src) then
    invalid_arg "Event_sim.inject: source must be a host";
  let wk = t.walk in
  Worm.fill wk t.graph ~src ~turns ~mirror:false;
  let path =
    Array.init wk.nhops (fun j -> (wk.exit_node.(j), wk.exit_port.(j)))
  in
  let final =
    match Worm.outcome wk with Worm.Arrived dst -> Deliver dst | o -> Die o
  in
  let payload =
    Option.value payload_bytes ~default:t.params.Params.probe_payload_bytes
  in
  let len_bytes = payload + wk.route_len in
  let len_ns = float_of_int len_bytes /. Params.bytes_per_ns t.params in
  let span =
    max 1
      (int_of_float
         (ceil
            (float_of_int len_bytes
            /. float_of_int (max 1 t.params.Params.per_port_buffer_bytes))))
  in
  let w =
    {
      wid = t.nworms;
      inject_at = at_ns;
      path;
      final;
      len_ns;
      span;
      held_from = 0;
      head = 0;
      waiting_on = -1;
      waiting_since = -1.0;
      done_ = false;
      w_outcome = Pending;
    }
  in
  if t.nworms >= Array.length t.worms then begin
    let arr = Array.make (max 64 (2 * Array.length t.worms)) w in
    Array.blit t.worms 0 arr 0 t.nworms;
    t.worms <- arr
  end;
  t.worms.(t.nworms) <- w;
  t.nworms <- t.nworms + 1;
  schedule t ~at:at_ns (Start w.wid);
  if San_obs.Obs.on () then begin
    San_obs.Obs.count "sim.injected";
    San_obs.Obs.emit
      (San_obs.Trace.Worm_injected
         { wid = w.wid; at_ns; hops = Array.length path })
  end;
  w.wid

let release_held t w ~upto ~at =
  (* Schedule releases for channels [held_from, upto). *)
  for j = w.held_from to upto - 1 do
    let c = channel t w.path.(j) in
    schedule t ~at (Release (w.path.(j), w.wid, c.gen))
  done;
  if upto > w.held_from then w.held_from <- upto

let finish_drop t w reason ~at =
  w.done_ <- true;
  w.w_outcome <- Dropped { reason; at_ns = at };
  (match reason with
  | Bad_route _ -> t.n_bad_route <- t.n_bad_route + 1
  | Forward_reset -> t.n_reset <- t.n_reset + 1);
  (match t.fabric with
  | None -> ()
  | Some f ->
    (* Attribute the death to the channel where the worm actually
       died: the one it was queued on for a reset, the last one it
       crossed for a bad route. *)
    let key =
      match reason with
      | Forward_reset when w.waiting_on >= 0 ->
        if w.waiting_since >= 0.0 then
          San_telemetry.Fabric_stats.blocked f w.path.(w.waiting_on)
            (at -. w.waiting_since);
        Some w.path.(w.waiting_on)
      | _ when Array.length w.path > 0 ->
        Some w.path.(Array.length w.path - 1)
      | _ -> None
    in
    Option.iter (San_telemetry.Fabric_stats.drop f) key);
  if San_obs.Obs.on () then begin
    let tag =
      match reason with
      | Bad_route _ -> "bad_route"
      | Forward_reset -> "forward_reset"
    in
    San_obs.Obs.count ("sim.dropped_" ^ tag);
    San_obs.Obs.emit
      (San_obs.Trace.Worm_dropped { wid = w.wid; at_ns = at; reason = tag })
  end;
  release_held t w ~upto:w.head ~at

let rec try_acquire t w i ~at =
  if not w.done_ then begin
    if i >= Array.length w.path then begin
      match w.final with
      | Deliver _ -> schedule t ~at:(at +. w.len_ns) (Complete w.wid)
      | Die o -> finish_drop t w (Bad_route o) ~at
    end
    else begin
      let c = channel t w.path.(i) in
      match c.owner with
      | None ->
        c.owner <- Some w.wid;
        c.gen <- c.gen + 1;
        c.acquired_at <- at;
        w.head <- i + 1;
        (match t.fabric with
        | None -> ()
        | Some f ->
          San_telemetry.Fabric_stats.transit f w.path.(i);
          if w.waiting_on = i && w.waiting_since >= 0.0 then
            San_telemetry.Fabric_stats.blocked f w.path.(i)
              (at -. w.waiting_since));
        w.waiting_on <- -1;
        w.waiting_since <- -1.0;
        (* The body compresses into downstream buffers: everything more
           than [span] channels behind the head can be let go. *)
        release_held t w ~upto:(max 0 (i + 1 - w.span)) ~at;
        if w.span = 1 then begin
          (* The whole worm fits in the downstream port buffer: once
             fully streamed across, this channel frees even if the head
             is blocked further on — Myrinet's "modest per-port
             buffering" that lets short probes melt out of the way. *)
          schedule t ~at:(at +. w.len_ns) (Release (w.path.(i), w.wid, c.gen));
          if i >= w.held_from then w.held_from <- i + 1
        end;
        schedule t
          ~at:(at +. Params.hop_latency_ns t.params)
          (Advance (w.wid, i + 1))
      | Some _ ->
        San_obs.Obs.count "sim.channel_waits";
        Queue.add (w.wid, i) c.waiters;
        w.waiting_on <- i;
        w.waiting_since <- at;
        schedule t
          ~at:(at +. (t.params.Params.blocked_port_reset_ms *. 1e6))
          (Reset_check (w.wid, i, at))
    end
  end

and serve_waiters t key c ~at =
  if c.owner = None then begin
    let rec next () =
      match Queue.take_opt c.waiters with
      | None -> ()
      | Some (wid, i) ->
        let w = worm t wid in
        if (not w.done_) && w.waiting_on = i then try_acquire t w i ~at
        else next ()
    in
    next ()
  end;
  ignore key

let handle t ev ~at =
  match ev with
  | Start wid ->
    let w = worm t wid in
    if Array.length w.path = 0 then
      (* unwired source: dies on the spot *)
      finish_drop t w
        (Bad_route
           (match w.final with Die o -> o | Deliver _ -> Worm.Unwired_source))
        ~at
    else try_acquire t w 0 ~at
  | Advance (wid, i) ->
    let w = worm t wid in
    try_acquire t w i ~at
  | Release (key, expected, gen) ->
    let c = channel t key in
    if c.owner = Some expected && c.gen = gen then begin
      c.owner <- None;
      (match t.fabric with
      | None -> ()
      | Some f -> San_telemetry.Fabric_stats.occupied f key (at -. c.acquired_at));
      serve_waiters t key c ~at
    end
  | Reset_check (wid, i, since) ->
    let w = worm t wid in
    if (not w.done_) && w.waiting_on = i && w.waiting_since = since then
      finish_drop t w Forward_reset ~at
  | Complete wid ->
    let w = worm t wid in
    if not w.done_ then begin
      w.done_ <- true;
      let dst = match w.final with Deliver d -> d | Die _ -> assert false in
      let latency = at -. w.inject_at in
      w.w_outcome <- Delivered { dst; at_ns = at; latency_ns = latency };
      t.n_delivered <- t.n_delivered + 1;
      t.lat_sum <- t.lat_sum +. latency;
      t.lat_max <- Float.max t.lat_max latency;
      t.lats <- latency :: t.lats;
      if San_obs.Obs.on () then begin
        San_obs.Obs.count "sim.delivered";
        San_obs.Obs.observe "sim.latency_ns" latency;
        San_obs.Obs.emit
          (San_obs.Trace.Worm_delivered
             { wid = w.wid; at_ns = at; latency_ns = latency })
      end;
      release_held t w ~upto:(Array.length w.path) ~at
    end

let run ?until_ns t =
  let horizon = Option.value until_ns ~default:infinity in
  let continue = ref true in
  while !continue do
    match San_util.Heap.peek t.events with
    | None -> continue := false
    | Some (at, _) when at > horizon -> continue := false
    | Some _ ->
      let at, ev = Option.get (San_util.Heap.pop t.events) in
      t.clock <- at;
      handle t ev ~at
  done

let step t =
  match San_util.Heap.pop t.events with
  | None -> None
  | Some (at, ev) ->
    t.clock <- at;
    handle t ev ~at;
    Some at

let peek_time t = Option.map fst (San_util.Heap.peek t.events)

let now_ns t = t.clock

let outcome t wid =
  if wid < 0 || wid >= t.nworms then invalid_arg "Event_sim.outcome";
  (worm t wid).w_outcome

type stats = {
  injected : int;
  delivered : int;
  dropped_bad_route : int;
  dropped_reset : int;
  in_flight : int;
  hops_acquired : int;
  avg_latency_ns : float;
  max_latency_ns : float;
  finished_at_ns : float;
}

let stats t =
  (* Channels acquired, counted from the worm side: each worm's [head]
     is exactly how many channels it won arbitration for. The fabric
     table counts the same thing from the channel side, which is what
     makes this a conservation cross-check rather than one number read
     twice. *)
  let hops = ref 0 in
  for i = 0 to t.nworms - 1 do
    hops := !hops + t.worms.(i).head
  done;
  {
    injected = t.nworms;
    delivered = t.n_delivered;
    dropped_bad_route = t.n_bad_route;
    dropped_reset = t.n_reset;
    in_flight = t.nworms - t.n_delivered - t.n_bad_route - t.n_reset;
    hops_acquired = !hops;
    avg_latency_ns =
      (if t.n_delivered = 0 then 0.0
       else t.lat_sum /. float_of_int t.n_delivered);
    max_latency_ns = t.lat_max;
    finished_at_ns = t.clock;
  }

let latencies t = t.lats
