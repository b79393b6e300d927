open San_topology
open San_simnet
open Effect
open Effect.Deep

type defer = { loser : Graph.node; at_ns : float; silenced_by : Graph.node }
type outcome = Completed | Stuck of { at_ns : float; pending : int }

type result = {
  winner : Graph.node;
  map : (Graph.t, string) Stdlib.result;
  finished_at_ns : float;
  winner_probes : int;
  total_probes : int;
  defers : defer list;
  contenders : int;
  outcome : outcome;
}

type probe_kind = PHost | PSwitch

type _ Effect.t +=
  | Probe : probe_kind * Route.t -> (Network.response * float) Effect.t

exception Silenced

type stage =
  | Outbound
  | Await_deadline  (* failure known; the mapper still waits out the timeout *)
  | Reply of Graph.node * Event_sim.worm_id

type pending = {
  pd_mapper : int;
  pd_kind : probe_kind;
  pd_turns : Route.t;
  pd_sent : float; (* mapper clock when the probe was initiated *)
  pd_deadline : float;
  pd_worm : Event_sim.worm_id;
  mutable pd_stage : stage;
  pd_cont : (Network.response * float, unit) continuation;
}

type mstate =
  | Waiting_start of float
  | Blocked of pending
  | Passive
  | Finished of (Graph.t, string) Stdlib.result

type mapper = {
  m_host : Graph.node;
  m_idx : int;
  mutable m_clock : float;
  mutable m_state : mstate;
  mutable m_silence : (float * Graph.node) option;
  mutable m_probes : int;
}

let run ?(policy = Berkeley.faithful) ?(depth = Berkeley.Oracle)
    ?(params = Params.default) ?mappers ?(max_skew_ns = 2e6) ~rng g =
  let hosts =
    match mappers with Some l -> l | None -> Graph.hosts g
  in
  (match hosts with [] -> invalid_arg "Election_sim.run: no mappers" | _ -> ());
  List.iter
    (fun h ->
      if not (Graph.is_host g h) then
        invalid_arg "Election_sim.run: mappers must be hosts")
    hosts;
  let sim = Event_sim.create ~params g in
  let depth_used =
    match depth with
    | Berkeley.Fixed d -> d
    | Berkeley.Oracle ->
      Core_set.search_depth g ~root:(List.hd hosts)
  in
  let mappers =
    Array.of_list
      (List.mapi
         (fun i h ->
           let skew =
             Float.min max_skew_ns
               (San_util.Prng.exponential rng (max_skew_ns /. 4.0))
           in
           {
             m_host = h;
             m_idx = i;
             m_clock = skew;
             m_state = Waiting_start skew;
             m_silence = None;
             m_probes = 0;
           })
         hosts)
  in
  let winner_idx = ref 0 in
  Array.iter
    (fun m ->
      if m.m_host > mappers.(!winner_idx).m_host then winner_idx := m.m_idx)
    mappers;
  let total_probes = ref 0 in
  let defers = ref [] in
  let request_silence (loser_host : Graph.node) ~by ~at =
    Array.iter
      (fun m ->
        if m.m_host = loser_host && by > loser_host && m.m_silence = None then begin
          match m.m_state with
          | Finished _ | Passive -> ()
          | Waiting_start _ ->
            m.m_silence <- Some (at, by);
            m.m_state <- Passive;
            defers := { loser = loser_host; at_ns = at; silenced_by = by } :: !defers
          | Blocked _ ->
            (* takes effect at the mapper's next decision point *)
            m.m_silence <- Some (at, by);
            defers := { loser = loser_host; at_ns = at; silenced_by = by } :: !defers
        end)
      mappers
  in
  (* The effect handler shared by all fibers, parameterised by mapper. *)
  let handler m =
    {
      retc = (fun map -> m.m_state <- Finished map);
      exnc =
        (fun e ->
          match e with
          | Silenced -> m.m_state <- Passive
          | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Probe (kind, turns) ->
            Some
              (fun (k : (a, unit) continuation) ->
                match m.m_silence with
                | Some _ -> discontinue k Silenced
                | None ->
                  m.m_probes <- m.m_probes + 1;
                  incr total_probes;
                  let send_at = m.m_clock +. params.Params.send_overhead_ns in
                  let route =
                    match kind with
                    | PHost -> turns
                    | PSwitch -> Route.switch_probe turns
                  in
                  let wid =
                    Event_sim.inject sim ~at_ns:send_at ~src:m.m_host
                      ~turns:route ()
                  in
                  m.m_state <-
                    Blocked
                      {
                        pd_mapper = m.m_idx;
                        pd_kind = kind;
                        pd_turns = turns;
                        pd_sent = m.m_clock;
                        pd_deadline =
                          send_at +. params.Params.probe_timeout_ns;
                        pd_worm = wid;
                        pd_stage = Outbound;
                        pd_cont = k;
                      })
          | _ -> None);
    }
  in
  let fiber m () : (Graph.t, string) Stdlib.result =
    let model =
      Model.create ~mapper_name:(Graph.name g m.m_host) ~radix:(Graph.radix g)
    in
    let sv =
      {
        Berkeley.sv_radix = Graph.radix g;
        sv_host_probe = (fun ~turns -> perform (Probe (PHost, turns)));
        sv_switch_probe = (fun ~turns -> perform (Probe (PSwitch, turns)));
      }
    in
    let _ =
      Berkeley.explore_service ~policy ~depth_used ~record_trace:false sv model
        [ Model.root_switch model ]
    in
    Model.export model
  in
  let start m = match_with (fiber m) () (handler m) in
  let resolve p resp cost =
    let m = mappers.(p.pd_mapper) in
    m.m_clock <- p.pd_sent +. cost;
    (* leaving Blocked; the continuation will set the next state *)
    m.m_state <- Passive;
    continue p.pd_cont (resp, cost)
  in
  let miss_cost =
    params.Params.send_overhead_ns +. params.Params.probe_timeout_ns
  in
  let hit_cost p ~response_at =
    response_at -. p.pd_sent +. params.Params.recv_overhead_ns
  in
  (* Inspect one blocked probe after the fabric advanced. *)
  let check p =
    let m = mappers.(p.pd_mapper) in
    let now = Event_sim.now_ns sim in
    let timed_out () =
      if now >= p.pd_deadline then resolve p Network.Nothing miss_cost
    in
    match p.pd_stage with
    | Await_deadline -> timed_out ()
    | Outbound -> (
      match Event_sim.outcome sim p.pd_worm with
      | Event_sim.Pending -> timed_out ()
      | Event_sim.Dropped _ -> p.pd_stage <- Await_deadline
      | Event_sim.Delivered { dst; at_ns; _ } when at_ns <= p.pd_deadline -> (
        match p.pd_kind with
        | PSwitch ->
          if dst = m.m_host then
            resolve p Network.Switch (hit_cost p ~response_at:at_ns)
          else p.pd_stage <- Await_deadline
        | PHost ->
          (* The probed host learns the prober's address — the
             election rule — and replies, active or passive alike. *)
          request_silence dst ~by:m.m_host ~at:at_ns;
          let reply_turns = List.rev_map (fun a -> -a) p.pd_turns in
          let rid =
            Event_sim.inject sim
              ~at_ns:(at_ns +. params.Params.reply_overhead_ns)
              ~src:dst ~turns:reply_turns ()
          in
          p.pd_stage <- Reply (dst, rid))
      | Event_sim.Delivered _ -> p.pd_stage <- Await_deadline)
    | Reply (h, rid) -> (
      match Event_sim.outcome sim rid with
      | Event_sim.Pending -> timed_out ()
      | Event_sim.Delivered { dst; at_ns; _ }
        when dst = m.m_host && at_ns <= p.pd_deadline ->
        resolve p
          (Network.Host (Graph.name g h))
          (hit_cost p ~response_at:at_ns)
      | Event_sim.Delivered _ | Event_sim.Dropped _ ->
        p.pd_stage <- Await_deadline;
        timed_out ())
  in
  let finished idx =
    match mappers.(idx).m_state with Finished _ -> true | _ -> false
  in
  (* Co-simulation: always take the earliest of (fiber start, hardware
     event, probe deadline). *)
  let stuck = ref None in
  while !stuck = None && not (finished !winner_idx) do
    let next_start =
      Array.fold_left
        (fun acc m ->
          match m.m_state with
          | Waiting_start t -> (
            match acc with
            | Some (t', _) when t' <= t -> acc
            | _ -> Some (t, m.m_idx))
          | _ -> acc)
        None mappers
    in
    let next_deadline =
      Array.fold_left
        (fun acc m ->
          match m.m_state with
          | Blocked p -> (
            match acc with
            | Some (t', _) when t' <= p.pd_deadline -> acc
            | _ -> Some (p.pd_deadline, m.m_idx))
          | _ -> acc)
        None mappers
    in
    let next_event = Event_sim.peek_time sim in
    let t_of = function Some (t, _) -> t | None -> infinity in
    let te = Option.value next_event ~default:infinity in
    if t_of next_start <= Float.min te (t_of next_deadline) then begin
      let _, idx = Option.get next_start in
      let m = mappers.(idx) in
      (match m.m_state with
      | Waiting_start t -> m.m_clock <- t
      | _ -> assert false);
      start m
    end
    else if te <= t_of next_deadline then begin
      ignore (Event_sim.step sim);
      Array.iter
        (fun m -> match m.m_state with Blocked p -> check p | _ -> ())
        mappers
    end
    else begin
      match next_deadline with
      | Some (_, idx) -> (
        match mappers.(idx).m_state with
        | Blocked p -> resolve p Network.Nothing miss_cost
        | _ -> assert false)
      | None ->
        (* Nothing can run: no fiber to start, no hardware event, no
           probe deadline, yet the winner has not finished. This is a
           scheduler invariant violation; record it instead of dying,
           so the trace explains what was in flight. *)
        let at_ns = Event_sim.now_ns sim in
        let pending =
          Array.fold_left
            (fun acc m ->
              match m.m_state with Finished _ -> acc | _ -> acc + 1)
            0 mappers
        in
        San_obs.Obs.emit (San_obs.Trace.Mapper_stuck { at_ns; pending });
        stuck := Some (Stuck { at_ns; pending })
    end
  done;
  let w = mappers.(!winner_idx) in
  {
    winner = w.m_host;
    map =
      (match (w.m_state, !stuck) with
      | Finished m, _ -> m
      | _, Some (Stuck { at_ns; pending }) ->
        Error
          (Printf.sprintf
             "election co-simulation stuck at %.0f ns with %d mappers pending"
             at_ns pending)
      | _ -> assert false);
    finished_at_ns = w.m_clock;
    winner_probes = w.m_probes;
    total_probes = !total_probes;
    defers = List.rev !defers;
    contenders = Array.length mappers;
    outcome = Option.value !stuck ~default:Completed;
  }
