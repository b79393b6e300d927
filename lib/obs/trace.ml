(* Typed, timestamped trace events with a bounded ring buffer and
   pluggable sinks. *)

type probe_kind = Host | Switch | Walk | Loop

type event =
  | Probe_sent of { kind : probe_kind; hit : bool; cost_ns : float }
  | Worm_injected of { wid : int; at_ns : float; hops : int }
  | Worm_delivered of { wid : int; at_ns : float; latency_ns : float }
  | Worm_dropped of { wid : int; at_ns : float; reason : string }
  | Replicate_merged of { kept : int; absorbed : int }
  | Route_computed of { pairs : int; unreachable : int }
  | Routes_distributed of { slices : int; bytes : int }
  | Epoch_started of { name : string; discrepancies : int }
  | Daemon_transition of { epoch : int; from_ : string; to_ : string }
  | Alert_raised of { name : string; epoch : int }
  | Alert_cleared of { name : string; epoch : int }
  | Deduction of { did : int; rule : string; fact : string }
  | Daemon_epoch of
      { epoch : int; verdict : string; leader : string; covered : int;
        total : int }
  | Mapper_stuck of { at_ns : float; pending : int }
  | Phase_timed of
      { epoch : int; phase : string; start_ns : float; dur_ns : float }
  | Span_begin of { name : string }
  | Span_end of { name : string; elapsed_ns : float }
  | Mark of { name : string; note : string }

(* One sample per constructor, linked as a successor chain: the match
   in [next] is over every constructor, so adding a variant without
   threading it into the chain (and therefore into [all_events]) is a
   fatal inexhaustive-match error. The serialization round-trip test
   walks this list, which is how a forgotten [event_of_json] arm
   becomes a test failure instead of silent data loss. *)
let all_events =
  let next = function
    | None -> Some (Probe_sent { kind = Host; hit = true; cost_ns = 125.0 })
    | Some (Probe_sent _) ->
      Some (Worm_injected { wid = 7; at_ns = 10.0; hops = 3 })
    | Some (Worm_injected _) ->
      Some (Worm_delivered { wid = 7; at_ns = 60.0; latency_ns = 50.0 })
    | Some (Worm_delivered _) ->
      Some (Worm_dropped { wid = 8; at_ns = 90.0; reason = "forward_reset" })
    | Some (Worm_dropped _) -> Some (Replicate_merged { kept = 4; absorbed = 2 })
    | Some (Replicate_merged _) ->
      Some (Route_computed { pairs = 90; unreachable = 0 })
    | Some (Route_computed _) ->
      Some (Routes_distributed { slices = 10; bytes = 4096 })
    | Some (Routes_distributed _) ->
      Some (Epoch_started { name = "e1"; discrepancies = 1 })
    | Some (Epoch_started _) ->
      Some (Daemon_transition { epoch = 3; from_ = "stable"; to_ = "verifying" })
    | Some (Daemon_transition _) ->
      Some (Alert_raised { name = "coverage"; epoch = 4 })
    | Some (Alert_raised _) -> Some (Alert_cleared { name = "coverage"; epoch = 5 })
    | Some (Alert_cleared _) ->
      Some (Deduction { did = 6; rule = "d1_slot_conflict"; fact = "merge 4<-2" })
    | Some (Deduction _) ->
      Some
        (Daemon_epoch
           { epoch = 2; verdict = "verified"; leader = "h9"; covered = 9; total = 9 })
    | Some (Daemon_epoch _) -> Some (Mapper_stuck { at_ns = 7.0; pending = 2 })
    | Some (Mapper_stuck _) ->
      Some
        (Phase_timed
           { epoch = 3; phase = "verify"; start_ns = 100.0; dur_ns = 250.0 })
    | Some (Phase_timed _) -> Some (Span_begin { name = "map" })
    | Some (Span_begin _) -> Some (Span_end { name = "map"; elapsed_ns = 42.0 })
    | Some (Span_end _) -> Some (Mark { name = "note"; note = "hello" })
    | Some (Mark _) -> None
  in
  let rec walk acc cur =
    match next cur with
    | None -> List.rev acc
    | Some e -> walk (e :: acc) (Some e)
  in
  walk [] None

type record = { seq : int; wall_ns : float; event : event }

type sink = record -> unit

type t = {
  capacity : int;
  ring : record option array;
  mutable next : int; (* total records emitted since the last clear *)
  mutable sinks : sink list;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; ring = Array.make capacity None; next = 0; sinks = [] }

let length t = min t.next t.capacity
let dropped t = max 0 (t.next - t.capacity)

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0

let add_sink t sink = t.sinks <- t.sinks @ [ sink ]
let clear_sinks t = t.sinks <- []
let has_sinks t = t.sinks <> []

let emit t event =
  let r = { seq = t.next; wall_ns = Unix.gettimeofday () *. 1e9; event } in
  t.ring.(t.next mod t.capacity) <- Some r;
  t.next <- t.next + 1;
  List.iter (fun sink -> sink r) t.sinks

(* Oldest surviving record first. *)
let records t =
  let n = length t in
  List.init n (fun i ->
      Option.get t.ring.((t.next - n + i) mod t.capacity))

let events t = List.map (fun r -> r.event) (records t)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let probe_kind_to_string = function
  | Host -> "host"
  | Switch -> "switch"
  | Walk -> "walk"
  | Loop -> "loop"

let probe_kind_of_string = function
  | "host" -> Some Host
  | "switch" -> Some Switch
  | "walk" -> Some Walk
  | "loop" -> Some Loop
  | _ -> None

let event_to_json event =
  let module J = San_util.Json in
  let fields =
    match event with
    | Probe_sent { kind; hit; cost_ns } ->
      [
        ("ev", J.Str "probe");
        ("kind", J.Str (probe_kind_to_string kind));
        ("hit", J.Bool hit);
        ("cost_ns", J.Num cost_ns);
      ]
    | Worm_injected { wid; at_ns; hops } ->
      [
        ("ev", J.Str "worm_injected");
        ("wid", J.int wid);
        ("at_ns", J.Num at_ns);
        ("hops", J.int hops);
      ]
    | Worm_delivered { wid; at_ns; latency_ns } ->
      [
        ("ev", J.Str "worm_delivered");
        ("wid", J.int wid);
        ("at_ns", J.Num at_ns);
        ("latency_ns", J.Num latency_ns);
      ]
    | Worm_dropped { wid; at_ns; reason } ->
      [
        ("ev", J.Str "worm_dropped");
        ("wid", J.int wid);
        ("at_ns", J.Num at_ns);
        ("reason", J.Str reason);
      ]
    | Replicate_merged { kept; absorbed } ->
      [
        ("ev", J.Str "replicate_merged");
        ("kept", J.int kept);
        ("absorbed", J.int absorbed);
      ]
    | Route_computed { pairs; unreachable } ->
      [
        ("ev", J.Str "route_computed");
        ("pairs", J.int pairs);
        ("unreachable", J.int unreachable);
      ]
    | Routes_distributed { slices; bytes } ->
      [
        ("ev", J.Str "routes_distributed");
        ("slices", J.int slices);
        ("bytes", J.int bytes);
      ]
    | Epoch_started { name; discrepancies } ->
      [
        ("ev", J.Str "epoch_started");
        ("name", J.Str name);
        ("discrepancies", J.int discrepancies);
      ]
    | Daemon_transition { epoch; from_; to_ } ->
      [
        ("ev", J.Str "daemon_transition");
        ("epoch", J.int epoch);
        ("from", J.Str from_);
        ("to", J.Str to_);
      ]
    | Alert_raised { name; epoch } ->
      [ ("ev", J.Str "alert_raised"); ("name", J.Str name); ("epoch", J.int epoch) ]
    | Alert_cleared { name; epoch } ->
      [ ("ev", J.Str "alert_cleared"); ("name", J.Str name); ("epoch", J.int epoch) ]
    | Deduction { did; rule; fact } ->
      [
        ("ev", J.Str "deduction");
        ("did", J.int did);
        ("rule", J.Str rule);
        ("fact", J.Str fact);
      ]
    | Daemon_epoch { epoch; verdict; leader; covered; total } ->
      [
        ("ev", J.Str "daemon_epoch");
        ("epoch", J.int epoch);
        ("verdict", J.Str verdict);
        ("leader", J.Str leader);
        ("covered", J.int covered);
        ("total", J.int total);
      ]
    | Mapper_stuck { at_ns; pending } ->
      [
        ("ev", J.Str "mapper_stuck");
        ("at_ns", J.Num at_ns);
        ("pending", J.int pending);
      ]
    | Phase_timed { epoch; phase; start_ns; dur_ns } ->
      [
        ("ev", J.Str "phase_timed");
        ("epoch", J.int epoch);
        ("phase", J.Str phase);
        ("start_ns", J.Num start_ns);
        ("dur_ns", J.Num dur_ns);
      ]
    | Span_begin { name } -> [ ("ev", J.Str "span_begin"); ("name", J.Str name) ]
    | Span_end { name; elapsed_ns } ->
      [
        ("ev", J.Str "span_end");
        ("name", J.Str name);
        ("elapsed_ns", J.Num elapsed_ns);
      ]
    | Mark { name; note } ->
      [ ("ev", J.Str "mark"); ("name", J.Str name); ("note", J.Str note) ]
  in
  J.Obj fields

let record_to_json r =
  let module J = San_util.Json in
  match event_to_json r.event with
  | J.Obj fields ->
    J.Obj (("seq", J.int r.seq) :: ("t_ns", J.Num r.wall_ns) :: fields)
  | j -> j

let event_of_json j =
  let module J = San_util.Json in
  let str k = Option.bind (J.member k j) J.to_str in
  let num k =
    match J.member k j with Some (J.Num f) -> Some f | _ -> None
  in
  let int k = Option.bind (J.member k j) J.to_int in
  let bool k =
    match J.member k j with Some (J.Bool b) -> Some b | _ -> None
  in
  match str "ev" with
  | Some "probe" -> (
    match (Option.bind (str "kind") probe_kind_of_string, bool "hit", num "cost_ns") with
    | Some kind, Some hit, Some cost_ns -> Some (Probe_sent { kind; hit; cost_ns })
    | _ -> None)
  | Some "worm_injected" -> (
    match (int "wid", num "at_ns", int "hops") with
    | Some wid, Some at_ns, Some hops -> Some (Worm_injected { wid; at_ns; hops })
    | _ -> None)
  | Some "worm_delivered" -> (
    match (int "wid", num "at_ns", num "latency_ns") with
    | Some wid, Some at_ns, Some latency_ns ->
      Some (Worm_delivered { wid; at_ns; latency_ns })
    | _ -> None)
  | Some "worm_dropped" -> (
    match (int "wid", num "at_ns", str "reason") with
    | Some wid, Some at_ns, Some reason ->
      Some (Worm_dropped { wid; at_ns; reason })
    | _ -> None)
  | Some "replicate_merged" -> (
    match (int "kept", int "absorbed") with
    | Some kept, Some absorbed -> Some (Replicate_merged { kept; absorbed })
    | _ -> None)
  | Some "route_computed" -> (
    match (int "pairs", int "unreachable") with
    | Some pairs, Some unreachable -> Some (Route_computed { pairs; unreachable })
    | _ -> None)
  | Some "routes_distributed" -> (
    match (int "slices", int "bytes") with
    | Some slices, Some bytes -> Some (Routes_distributed { slices; bytes })
    | _ -> None)
  | Some "epoch_started" -> (
    match (str "name", int "discrepancies") with
    | Some name, Some discrepancies ->
      Some (Epoch_started { name; discrepancies })
    | _ -> None)
  | Some "daemon_transition" -> (
    match (int "epoch", str "from", str "to") with
    | Some epoch, Some from_, Some to_ ->
      Some (Daemon_transition { epoch; from_; to_ })
    | _ -> None)
  | Some "alert_raised" -> (
    match (str "name", int "epoch") with
    | Some name, Some epoch -> Some (Alert_raised { name; epoch })
    | _ -> None)
  | Some "alert_cleared" -> (
    match (str "name", int "epoch") with
    | Some name, Some epoch -> Some (Alert_cleared { name; epoch })
    | _ -> None)
  | Some "deduction" -> (
    match (int "did", str "rule", str "fact") with
    | Some did, Some rule, Some fact -> Some (Deduction { did; rule; fact })
    | _ -> None)
  | Some "daemon_epoch" -> (
    match
      (int "epoch", str "verdict", str "leader", int "covered", int "total")
    with
    | Some epoch, Some verdict, Some leader, Some covered, Some total ->
      Some (Daemon_epoch { epoch; verdict; leader; covered; total })
    | _ -> None)
  | Some "mapper_stuck" -> (
    match (num "at_ns", int "pending") with
    | Some at_ns, Some pending -> Some (Mapper_stuck { at_ns; pending })
    | _ -> None)
  | Some "phase_timed" -> (
    match (int "epoch", str "phase", num "start_ns", num "dur_ns") with
    | Some epoch, Some phase, Some start_ns, Some dur_ns ->
      Some (Phase_timed { epoch; phase; start_ns; dur_ns })
    | _ -> None)
  | Some "span_begin" ->
    Option.map (fun name -> Span_begin { name }) (str "name")
  | Some "span_end" -> (
    match (str "name", num "elapsed_ns") with
    | Some name, Some elapsed_ns -> Some (Span_end { name; elapsed_ns })
    | _ -> None)
  | Some "mark" -> (
    match (str "name", str "note") with
    | Some name, Some note -> Some (Mark { name; note })
    | _ -> None)
  | _ -> None

let record_of_json j =
  let module J = San_util.Json in
  match (Option.bind (J.member "seq" j) J.to_int, J.member "t_ns" j) with
  | Some seq, Some (J.Num wall_ns) ->
    Option.map (fun event -> { seq; wall_ns; event }) (event_of_json j)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let jsonl_sink oc r =
  output_string oc (San_util.Json.to_string ~pretty:false (record_to_json r));
  output_char oc '\n'

let pp_event ppf = function
  | Probe_sent { kind; hit; cost_ns } ->
    Format.fprintf ppf "probe %s %s (%.0f ns)" (probe_kind_to_string kind)
      (if hit then "hit" else "miss")
      cost_ns
  | Worm_injected { wid; at_ns; hops } ->
    Format.fprintf ppf "worm %d injected at %.0f ns (%d hops)" wid at_ns hops
  | Worm_delivered { wid; at_ns; latency_ns } ->
    Format.fprintf ppf "worm %d delivered at %.0f ns (latency %.0f ns)" wid
      at_ns latency_ns
  | Worm_dropped { wid; at_ns; reason } ->
    Format.fprintf ppf "worm %d dropped at %.0f ns (%s)" wid at_ns reason
  | Replicate_merged { kept; absorbed } ->
    Format.fprintf ppf "replicate %d merged into %d" absorbed kept
  | Route_computed { pairs; unreachable } ->
    Format.fprintf ppf "routes computed: %d pairs, %d unreachable" pairs
      unreachable
  | Routes_distributed { slices; bytes } ->
    Format.fprintf ppf "routes distributed: %d slices, %d bytes" slices bytes
  | Epoch_started { name; discrepancies } ->
    Format.fprintf ppf "epoch %s started (%d discrepancies)" name discrepancies
  | Daemon_transition { epoch; from_; to_ } ->
    Format.fprintf ppf "epoch %d: daemon %s -> %s" epoch from_ to_
  | Alert_raised { name; epoch } ->
    Format.fprintf ppf "ALERT %s raised at epoch %d" name epoch
  | Alert_cleared { name; epoch } ->
    Format.fprintf ppf "alert %s cleared at epoch %d" name epoch
  | Deduction { did; rule; fact } ->
    Format.fprintf ppf "deduction d%d [%s] %s" did rule fact
  | Daemon_epoch { epoch; verdict; leader; covered; total } ->
    Format.fprintf ppf "epoch %d closed: %s under %s, coverage %d/%d" epoch
      verdict leader covered total
  | Mapper_stuck { at_ns; pending } ->
    Format.fprintf ppf "election stuck at %.0f ns (%d mappers pending)" at_ns
      pending
  | Phase_timed { epoch; phase; start_ns; dur_ns } ->
    Format.fprintf ppf "epoch %d: phase %s %.0f ns (from %.0f ns)" epoch phase
      dur_ns start_ns
  | Span_begin { name } -> Format.fprintf ppf "span %s begin" name
  | Span_end { name; elapsed_ns } ->
    Format.fprintf ppf "span %s end (%.0f ns)" name elapsed_ns
  | Mark { name; note } -> Format.fprintf ppf "mark %s: %s" name note
