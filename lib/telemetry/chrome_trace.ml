(* Chrome trace-event JSON over Trace.records, loadable in
   chrome://tracing and Perfetto.

   Two processes: pid 0 is the mapper software (spans, probes, control
   events, timestamped off the wall clock relative to the first
   record), pid 1 is the simulated fabric (worm lifecycles on a track
   per worm id, timestamped off the deterministic simulation clock —
   which is what makes exports of pure simulator runs byte-stable
   across invocations). *)

module J = San_util.Json
module Trace = San_obs.Trace

let sw_pid = 0
let fabric_pid = 1
let daemon_pid = 2
let span_tid = 0
let probe_tid = 1
let control_tid = 2

(* Chrome wants microseconds. *)
let us ns = ns /. 1e3

let event ?(pid = sw_pid) ~tid ~ph ~ts ?dur ~name args =
  J.Obj
    ([ ("name", J.Str name); ("ph", J.Str ph); ("ts", J.Num ts);
       ("pid", J.int pid); ("tid", J.int tid) ]
    @ (match dur with None -> [] | Some d -> [ ("dur", J.Num d) ])
    @ (if ph = "i" then [ ("s", J.Str "t") ] else [])
    @ if args = [] then [] else [ ("args", J.Obj args) ])

let metadata =
  let meta ~pid ?tid name value =
    J.Obj
      ([ ("name", J.Str name); ("ph", J.Str "M"); ("pid", J.int pid) ]
      @ (match tid with None -> [] | Some t -> [ ("tid", J.int t) ])
      @ [ ("args", J.Obj [ ("name", J.Str value) ]) ])
  in
  [
    meta ~pid:sw_pid "process_name" "mapper software";
    meta ~pid:fabric_pid "process_name" "fabric (simulated time)";
    meta ~pid:daemon_pid "process_name" "daemon epochs (simulated time)";
    meta ~pid:daemon_pid ~tid:0 "thread_name" "phases";
    meta ~pid:sw_pid ~tid:span_tid "thread_name" "spans";
    meta ~pid:sw_pid ~tid:probe_tid "thread_name" "probes";
    meta ~pid:sw_pid ~tid:control_tid "thread_name" "control plane";
  ]

let of_records records =
  let wall0 =
    match records with [] -> 0.0 | r :: _ -> r.Trace.wall_ns
  in
  let wall ns = us (ns -. wall0) in
  let one (r : Trace.record) =
    match r.Trace.event with
    | Trace.Worm_injected { wid; at_ns; hops } ->
      Some
        (event ~pid:fabric_pid ~tid:wid ~ph:"i" ~ts:(us at_ns)
           ~name:"inject"
           [ ("wid", J.int wid); ("hops", J.int hops) ])
    | Trace.Worm_delivered { wid; at_ns; latency_ns } ->
      Some
        (event ~pid:fabric_pid ~tid:wid ~ph:"X"
           ~ts:(us (at_ns -. latency_ns))
           ~dur:(us latency_ns)
           ~name:(Printf.sprintf "worm %d" wid)
           [ ("latency_ns", J.Num latency_ns) ])
    | Trace.Worm_dropped { wid; at_ns; reason } ->
      Some
        (event ~pid:fabric_pid ~tid:wid ~ph:"i" ~ts:(us at_ns)
           ~name:("drop: " ^ reason)
           [ ("wid", J.int wid) ])
    | Trace.Phase_timed { epoch; phase; start_ns; dur_ns } ->
      (* The per-epoch detect/verify/remap/distribute timeline, as
         complete events on the daemon's cumulative sim clock — like
         the fabric pid, byte-stable across invocations. *)
      Some
        (event ~pid:daemon_pid ~tid:0 ~ph:"X" ~ts:(us start_ns)
           ~dur:(us dur_ns)
           ~name:(Printf.sprintf "e%d %s" epoch phase)
           [ ("epoch", J.int epoch); ("phase", J.Str phase);
             ("dur_ns", J.Num dur_ns) ])
    | Trace.Span_begin { name } ->
      Some (event ~tid:span_tid ~ph:"B" ~ts:(wall r.Trace.wall_ns) ~name [])
    | Trace.Span_end { name; elapsed_ns } ->
      Some
        (event ~tid:span_tid ~ph:"E" ~ts:(wall r.Trace.wall_ns) ~name
           [ ("elapsed_ns", J.Num elapsed_ns) ])
    | Trace.Probe_sent { kind; hit; cost_ns } ->
      Some
        (event ~tid:probe_tid ~ph:"i" ~ts:(wall r.Trace.wall_ns)
           ~name:
             (Printf.sprintf "probe %s %s"
                (Trace.probe_kind_to_string kind)
                (if hit then "hit" else "miss"))
           [ ("cost_ns", J.Num cost_ns) ])
    | Trace.Replicate_merged _ | Trace.Route_computed _
    | Trace.Routes_distributed _ | Trace.Epoch_started _
    | Trace.Daemon_transition _ | Trace.Alert_raised _
    | Trace.Alert_cleared _ | Trace.Deduction _ | Trace.Daemon_epoch _
    | Trace.Mapper_stuck _ | Trace.Mark _ ->
      (* Control-plane happenings as instants carrying their full JSON
         encoding, so Perfetto's args pane shows every field. *)
      let name = Format.asprintf "%a" Trace.pp_event r.Trace.event in
      let args =
        match Trace.event_to_json r.Trace.event with
        | J.Obj fields -> fields
        | _ -> []
      in
      Some
        (event ~tid:control_tid ~ph:"i" ~ts:(wall r.Trace.wall_ns) ~name args)
  in
  let evs = List.filter_map one records in
  J.to_string ~pretty:false
    (J.Obj
       [
         ("traceEvents", J.Arr (metadata @ evs));
         ("displayTimeUnit", J.Str "ms");
       ])
