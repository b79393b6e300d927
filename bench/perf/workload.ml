(* The four workloads. Each one runs in its own process, single
   threaded, with every telemetry sink off, and times calls into the
   layers' public functions only.

   - With tracing off it sets up several times (median: setup_s), then
     repeats its operation for the requested seconds (median: op_ms)
     and reads the heap peak.
   - With tracing on it runs the operation untraced as the reference,
     then once more with spans around each public call.
     The traced run must reproduce the reference's probes and
     simulated times exactly, and its layer self-times must cover the
     traced wall to within 5%. *)

open San_topology
open San_simnet
open San_mapper
module Fabric = San_fabric.Fabric
module Serve = San_routing.Serve
module Routes = San_routing.Routes
module Daemon = San_service.Daemon
module Schedule = San_service.Schedule
module World = San_service.World
module Delta = San_service.Delta
module Prng = San_util.Prng

type size = Full | Smoke

type result = {
  attempted : int;
  failures : string list;  (** one line per failed check *)
  metrics : (string * float) list;
  chrome : San_util.Json.t option;  (** the traced run's spans *)
}

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let median = Compare.median

(* Set up [k] times; the median seconds and the last set-up's value
   (earlier ones are garbage by the time the operation runs). *)
let setup_median k f =
  let rec go i times last =
    if i = k then (median times, Option.get last)
    else
      let x, dt = timed f in
      go (i + 1) (dt :: times) (Some x)
  in
  go 0 [] None

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Repeat [f] (which returns the seconds it measured) for [seconds].
   Calls that start in the first third warm the process up and are not
   reported: while the major heap grows, map-r32's first three maps run
   about 20% slower than the rest. After them at least [min_reps] calls
   are reported. Also returns the heap peak after the first call; later
   calls only add fragmentation that follows GC pacing (measured: +0 to
   25% by the third daemon run, varying by seed, against 0.3% after the
   first). *)
let repeat ~seconds ~min_reps f =
  let t0 = now () in
  let warm_end = t0 +. (seconds /. 3.0) and t_end = t0 +. seconds in
  let heap = ref nan in
  let rec go calls acc =
    if List.length acc >= min_reps && now () >= t_end then (List.rev acc, !heap)
    else begin
      let warm = now () < warm_end in
      let dt = f () in
      if calls = 0 then heap := heap_mb ();
      go (calls + 1) (if warm then acc else dt :: acc)
    end
  in
  go 0 []

type checks = { mutable attempted : int; mutable failures : string list }

let check c ok what =
  c.attempted <- c.attempted + 1;
  if not ok then c.failures <- what :: c.failures

(* End-to-end reps must not pay for telemetry. *)
let check_quiet c =
  check c
    ((not (San_obs.Obs.on ()))
    && (not (San_why.Why.on ()))
    && San_telemetry.Fabric_stats.current () = None)
    "a telemetry sink (Obs, Why or Fabric_stats) is on during an \
     end-to-end rep"

(* A span wrapper: [Span.with_] when tracing, plain application when
   not, so the traced and untraced paths run the same code. *)
type sp = {
  on : bool;
  sp : 'a. string -> (unit -> 'a) -> 'a;
  charge : string -> float -> unit;
}

let untraced = { on = false; sp = (fun _ f -> f ()); charge = (fun _ _ -> ()) }
let traced = { on = true; sp = Span.with_; charge = Span.charge }

(* Allocation and major collections, summed over the traced roots. *)
let gc_alloc_bytes = ref 0.0
let gc_majors = ref 0

let root name f =
  let a0 = Gc.allocated_bytes () in
  let m0 = (Gc.quick_stat ()).Gc.major_collections in
  let x = Span.with_ name f in
  gc_alloc_bytes := !gc_alloc_bytes +. (Gc.allocated_bytes () -. a0);
  gc_majors := !gc_majors + ((Gc.quick_stat ()).Gc.major_collections - m0);
  x

(* Metrics every traced run reports the same way: the wall, the layer
   shares, the layer-sum coverage, GC counters. The coverage is also
   a correctness gate. *)
let trace_metrics c ~op_root ~untraced_op_s =
  let wall = Span.wall () in
  let selfs = Span.self_times () in
  let layer_sum = List.fold_left (fun a (_, x) -> a +. x) 0.0 selfs in
  let ratio = layer_sum /. wall in
  check c (ratio >= 0.95 && ratio <= 1.0 +. 1e-9)
    (Printf.sprintf "layer self-times cover %.1f%% of the traced wall" (100.0 *. ratio));
  let op_dur =
    List.fold_left
      (fun a s -> if s.Span.name = op_root && s.Span.parent < 0 then a +. Span.dur s else a)
      0.0 (Span.spans ())
  in
  [
    ("trace.wall_s", wall);
    ("trace.layer_sum_ratio", ratio);
    ("trace.overhead", (op_dur /. untraced_op_s) -. 1.0);
    ("fabric.build_s", Span.self_of "fabric.build");
    ("gc.alloc_mb", !gc_alloc_bytes /. 1e6);
    ("gc.major_collections", float_of_int !gc_majors);
  ]
  @ List.filter_map
      (fun (l, _) ->
        Option.map (fun x -> (Metric.share_name l, x /. wall)) (List.assoc_opt l selfs))
      Metric.layers

(* Every per-layer metric, zero unless the workload set it. *)
let all_layer_metrics set =
  List.map
    (fun d ->
      let n = d.Metric.name in
      (n, Option.value ~default:0.0 (List.assoc_opt n set)))
    Metric.per_layer

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

let build_fabric spec ~seed =
  match Fabric.parse spec with
  | Ok p -> p.Fabric.p_build ~seed
  | Error e -> failwith e

let depth_of spec =
  match Fabric.parse spec with
  | Ok { Fabric.p_depth = Some d; _ } -> d
  | _ -> failwith ("no fixed exploration depth for " ^ spec)

(* Seed s maps from host h(s-1): seed 1 is h0, the host the pinned
   probe counts use. Neighbouring hosts share an edge switch, so the
   work varies by well under 2% across seeds 1-10 and the spread
   between runs stays a measure of the host, not of the input. *)
let mapper_of g ~seed =
  let hosts = Array.of_list (Graph.hosts g) in
  let n = Array.length hosts in
  hosts.((((seed - 1) mod n) + n) mod n)

let verified g ~exclude = function
  | Ok map -> Result.is_ok (Iso.check ~map ~actual:g ~exclude ())
  | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Berkeley.run decomposed into its public steps, with the probe       *)
(* service wrapped to time and count every probe.                      *)

type decomposed = {
  d_map : (Graph.t, string) Stdlib.result;
  d_probes : int;
  d_hits : int;
  d_probe_s : float;
  d_elapsed_ns : float;
  d_explorations : int;
  d_created : int;
  d_live : int;
}

let decomposed_map { sp; charge; _ } net ~mapper ~depth_used =
  let g = Network.graph net in
  Network.reset_stats net;
  let probes = ref 0 and hits = ref 0 and probe_s = ref 0.0 in
  let wrap send ~turns =
    let t0 = now () in
    let ((resp : Network.response), _) as r = send ~turns in
    probe_s := !probe_s +. (now () -. t0);
    incr probes;
    (match resp with Network.Nothing -> () | Network.Host _ | Network.Switch -> incr hits);
    r
  in
  let sv = Berkeley.service_of_network net ~mapper in
  let sv =
    { sv with
      Berkeley.sv_host_probe = wrap sv.Berkeley.sv_host_probe;
      sv_switch_probe = wrap sv.Berkeley.sv_switch_probe }
  in
  let model, explorations, elapsed =
    sp "core.explore" (fun () ->
        let model =
          Model.create ~mapper_name:(Graph.name g mapper) ~radix:(Graph.radix g)
        in
        let ex, el, _ =
          Berkeley.explore_service ~policy:Berkeley.faithful ~depth_used
            ~record_trace:false sv model [ Model.root_switch model ]
        in
        charge "simnet.probe" !probe_s;
        (model, ex, el))
  in
  sp "model.prune" (fun () -> Model.prune model);
  let map =
    sp "model.export" (fun () ->
        match Model.to_graph model with
        | m -> Ok m
        | exception Model.Inconsistent e -> Error e)
  in
  {
    d_map = map;
    d_probes = !probes;
    d_hits = !hits;
    d_probe_s = !probe_s;
    d_elapsed_ns = elapsed;
    d_explorations = explorations;
    d_created = Model.created_vertices model;
    d_live = Model.live_vertices model;
  }

let per_probe_metrics d =
  let per_probe x = x /. float_of_int d.d_probes *. 1e9 in
  [
    ("simnet.probes", float_of_int d.d_probes);
    ("simnet.hit_ratio", float_of_int d.d_hits /. float_of_int d.d_probes);
    ("simnet.probe_ns", per_probe d.d_probe_s);
    ("core.explorations", float_of_int d.d_explorations);
    ("core.self_ns_per_probe", per_probe (Span.self_of "core.explore"));
    ("model.replicate_ratio", float_of_int d.d_created /. float_of_int d.d_live);
  ]

(* ------------------------------------------------------------------ *)
(* map-ft1k, map-r32: a verified Berkeley map at a fixed depth.        *)

let map_workload ~spec ~overheads ~seed ~seconds ~trace c =
  let depth = depth_of spec in
  let setup { sp; _ } =
    let g = sp "fabric.build" (fun () -> build_fabric spec ~seed) in
    let mapper = mapper_of g ~seed in
    let net = sp "simnet.create" (fun () -> Network.create g) in
    (g, mapper, net)
  in
  let run_map net ~mapper =
    Gc.full_major ();
    timed (fun () -> Berkeley.run ~depth:(Berkeley.Fixed depth) net ~mapper)
  in
  if not trace then begin
    let setup_s, (g, mapper, net) = setup_median 21 (fun () -> setup untraced) in
    let exclude = Core_set.separated_set g in
    let first = ref None in
    let reps, heap =
      repeat ~seconds ~min_reps:3 (fun () ->
          check_quiet c;
          let r, dt = run_map net ~mapper in
          let key = (Berkeley.total_probes r, r.Berkeley.elapsed_ns) in
          if !first = None then first := Some key;
          check c
            (verified g ~exclude r.Berkeley.map && !first = Some key)
            "map not isomorphic to N - F, or not deterministic across reps";
          dt)
    in
    [
      ("setup_s", setup_s);
      ("op_ms", 1000.0 *. median reps);
      ("peak_heap_mb", heap);
    ]
  end
  else begin
    let g, mapper, net = setup untraced in
    let exclude = Core_set.separated_set g in
    check_quiet c;
    (* The first map in a process also grows the heap; the reference
       is the second. *)
    let r0, _ = run_map net ~mapper in
    let _, dt0 = run_map net ~mapper in
    check c (verified g ~exclude r0.Berkeley.map) "reference map not verified";
    (* Guard metrics for the telemetry sinks: the same map with each
       sink on, over the sink-off reference. *)
    let with_sink set_enabled reset =
      set_enabled true;
      let r, dt = run_map net ~mapper in
      set_enabled false;
      reset ();
      check c
        (verified g ~exclude r.Berkeley.map
        && Berkeley.total_probes r = Berkeley.total_probes r0)
        "map with a telemetry sink on differs";
      dt /. dt0
    in
    let overheads =
      if overheads then
        [
          ("obs.overhead", with_sink San_obs.Obs.set_enabled San_obs.Obs.reset);
          ("why.overhead", with_sink San_why.Why.set_enabled San_why.Why.reset);
        ]
      else []
    in
    Span.reset ();
    let g, mapper, net = root "setup" (fun () -> setup traced) in
    Gc.full_major ();
    let d =
      root "map" (fun () -> decomposed_map traced net ~mapper ~depth_used:depth)
    in
    let ok = root "verify" (fun () ->
        traced.sp "topology.iso" (fun () ->
            verified g ~exclude:(Core_set.separated_set g) d.d_map))
    in
    check c
      (ok
      && d.d_probes = Berkeley.total_probes r0
      && d.d_hits = r0.Berkeley.host_hits + r0.Berkeley.switch_hits
      && d.d_elapsed_ns = r0.Berkeley.elapsed_ns
      && d.d_explorations = r0.Berkeley.explorations
      && d.d_created = r0.Berkeley.created_vertices
      && d.d_live = r0.Berkeley.live_vertices)
      "traced map does not reproduce the untraced run";
    trace_metrics c ~op_root:"map" ~untraced_op_s:dt0
    @ per_probe_metrics d
    @ overheads
    @ [
        ("probes", float_of_int d.d_probes);
        ("sim_map_s", d.d_elapsed_ns /. 1e9);
      ]
  end

(* ------------------------------------------------------------------ *)
(* serve-ft1k: cold per-destination compiles in set-up, then a         *)
(* closed loop of one caller sending the same seeded batch.            *)

let serve_workload ~spec ~ndst ~queries ~seed ~seconds ~trace c =
  let setup { sp; _ } =
    let g = sp "fabric.build" (fun () -> build_fabric spec ~seed) in
    let serve =
      sp "routing.serve_create" (fun () -> Serve.create ~cache_limit:64 g)
    in
    let hosts = Array.of_list (Graph.hosts g) in
    let rng = Prng.create seed in
    let shuffled = Array.copy hosts in
    Prng.shuffle rng shuffled;
    let dsts = Array.sub shuffled 0 (min ndst (Array.length hosts)) in
    let compile_s =
      Array.map
        (fun dst ->
          snd (timed (fun () -> sp "routing.compile" (fun () -> Serve.warm serve ~dst))))
        dsts
    in
    (g, serve, hosts, dsts, rng, compile_s)
  in
  (* Queries are drawn after set-up so the rng stream is the same
     whether or not set-up was traced. *)
  let make_queries (_, _, hosts, dsts, rng, _) =
    let nh = Array.length hosts in
    Array.init queries (fun _ ->
        let dst = dsts.(Prng.int rng (Array.length dsts)) in
        let rec src () =
          let s = hosts.(Prng.int rng nh) in
          if s = dst then src () else s
        in
        (src (), dst))
  in
  let batch serve q buf =
    let answered, dt = timed (fun () -> Serve.batch serve q ~buf) in
    check c (answered = Array.length q) "a batch left queries unanswered";
    dt
  in
  if not trace then begin
    let setup_s, ((g, serve, hosts, dsts, _, _), q) =
      setup_median 3 (fun () ->
          let env = setup untraced in
          (env, make_queries env))
    in
    let buf = Array.make (Graph.num_nodes g + 1) 0 in
    let reps, heap =
      repeat ~seconds ~min_reps:20 (fun () ->
          check_quiet c;
          batch serve q buf)
    in
    (* Deadlock freedom of a served sample: every warmed destination
       from the first 100 sources. *)
    let served = ref [] and missing = ref 0 in
    Array.iter
      (fun dst ->
        Array.iteri
          (fun i src ->
            if i < 100 && src <> dst then
              match Serve.lookup serve ~src ~dst with
              | Some turns -> served := (src, turns) :: !served
              | None -> incr missing)
          hosts)
      dsts;
    check c
      (!missing = 0 && Result.is_ok (San_routing.Deadlock.check_acyclic g !served))
      "served sample has a missing route or a channel-dependency cycle";
    [
      ("setup_s", setup_s);
      ("op_ms", 1000.0 *. median reps);
      ("peak_heap_mb", heap);
    ]
  end
  else begin
    let reps = 20 in
    Span.reset ();
    let ((g, serve, _, _, _, compile_s) as env) =
      root "setup" (fun () -> setup traced)
    in
    let q = make_queries env in
    let buf = Array.make (Graph.num_nodes g + 1) 0 in
    let untraced_s = List.init reps (fun _ -> batch serve q buf) in
    (* Gc.minor_words is unboxed: reading it allocates nothing, so the
       difference is exactly what Serve.batch allocated. An empty batch
       gives the per-call constant (its counter and closure); the rest
       is what the lookups themselves allocated. *)
    let batch_words q =
      let w0 = Gc.minor_words () in
      let answered = Serve.batch serve q ~buf in
      (answered, Gc.minor_words () -. w0)
    in
    let per_call = snd (batch_words [||]) in
    let words = ref 0.0 in
    root "lookup" (fun () ->
        for _ = 1 to reps do
          traced.sp "routing.lookup" (fun () ->
              let answered, w = batch_words q in
              words := !words +. (w -. per_call);
              check c (answered = queries) "a traced batch left queries unanswered")
        done);
    let lookups = float_of_int (reps * queries) in
    check c (!words = 0.0)
      (Printf.sprintf "Serve.batch allocated %.0f words" !words);
    let st = Serve.stats serve in
    trace_metrics c ~op_root:"lookup"
      ~untraced_op_s:(List.fold_left ( +. ) 0.0 untraced_s)
    @ [
        ( "routing.compile_ms_p80",
          1000.0 *. San_util.Summary.percentile (Array.to_list compile_s) 0.8 );
        ("routing.lookup_ns", median untraced_s /. float_of_int queries *. 1e9);
        ("routing.alloc_words_per_lookup", !words /. lookups);
        ("routing.pool_cells", float_of_int st.Serve.pool_cells);
        ( "routing.packed_ratio",
          float_of_int st.Serve.packed_bytes /. float_of_int st.Serve.naive_bytes );
      ]
  end

(* ------------------------------------------------------------------ *)
(* converge: a two-epoch daemon run with one seeded link cut at epoch  *)
(* 1. Epoch 0 (cold start) is set-up; epoch 1 is the incident.         *)

let schedule =
  match Schedule.parse "1:cut" with Ok s -> s | Error e -> failwith e

let config ~seed = { Daemon.default_config with Daemon.seed }

(* Run the daemon, timing each epoch on the host clock. *)
let daemon_run g ~seed =
  let marks = ref [] in
  let t0 = now () in
  let out =
    Daemon.run ~config:(config ~seed) ~schedule
      ~on_epoch:(fun rep -> marks := (now (), rep) :: !marks)
      ~epochs:2 g
  in
  match (out, List.rev !marks) with
  | Ok o, [ (t1, e0); (t2, e1) ] -> Some (o, t1 -. t0, t2 -. t1, e0, e1)
  | _ -> None

(* The world the daemon sees, moved to the start of [epoch]'s work:
   the same seeded PRNG stream and the same leader rule (highest
   address responding host). *)
let world_at g ~seed ~epoch =
  let world = World.create g in
  let rng = Prng.create seed in
  let leader = ref "" in
  for e = 0 to epoch do
    ignore (Schedule.apply schedule world ~rng ~leader:!leader ~epoch:e);
    if e = 0 then
      match List.rev (World.responding_hosts world) with
      | h :: _ -> leader := Graph.name (World.graph world) h
      | [] -> failwith "no responding host"
  done;
  let g = World.graph world in
  (world, g, Option.get (Graph.host_by_name g !leader))

let get = function Ok x -> x | Error e -> failwith e

(* One incident epoch from public calls, as Daemon.run makes them. *)
let incident ({ sp; _ } as spans) ~seed (world, g, mapper) ~previous
    ~installed =
  let cfg = config ~seed in
  let params = cfg.Daemon.params and policy = cfg.Daemon.policy in
  let net =
    sp "simnet.create" (fun () ->
        Network.create ~params ~responding:(World.responding world) g)
  in
  let decomposed = ref None in
  let remap ~discrepancies:_ =
    let depth_used =
      sp "topology.search_depth" (fun () ->
          Berkeley.resolve_depth net ~mapper Berkeley.Oracle)
    in
    let d = decomposed_map spans net ~mapper ~depth_used in
    decomposed := Some d;
    (d.d_map, d.d_probes, d.d_elapsed_ns)
  in
  (* Untraced, the fallback is Incremental's own Berkeley.run, the
     daemon's exact code path. *)
  let remap = if spans.on then Some remap else None in
  let inc =
    sp "core.verify" (fun () -> Incremental.run ~policy ?remap net ~mapper ~previous)
  in
  let map = get inc.Incremental.map in
  let table = sp "routing.routes" (fun () -> Routes.compute map) in
  let rep =
    sp "service.delta" (fun () ->
        get
          (Delta.distribute ~params ~retries:cfg.Daemon.dist_retries ~installed
             table ~actual:g ~leader:mapper))
  in
  (inc, !decomposed, map, rep)

let converge_workload ~spec ~seed ~seconds ~trace c =
  let checked_run g =
    Gc.full_major ();
    match daemon_run g ~seed with
    | None ->
      check c false "daemon run failed";
      None
    | Some ((o, _, _, _, e1) as run) ->
      let _, g1, _ = world_at g ~seed ~epoch:1 in
      check c
        (o.Daemon.final_phase = Daemon.Stable
        && e1.Daemon.hosts_covered = e1.Daemon.hosts_total
        && (match o.Daemon.incidents with
           | [ i ] -> i.Daemon.detected_epoch = 1 && i.Daemon.resolved_epoch = 1
           | _ -> false)
        && verified g1 ~exclude:(Core_set.separated_set g1)
             (Option.to_result ~none:"no map" o.Daemon.map))
        "daemon did not end Stable with every host covered and a verified map";
      Some run
  in
  let key (o, _, _, _, e1) =
    ( e1.Daemon.probes,
      List.map (fun i -> i.Daemon.converge_ns) o.Daemon.incidents,
      o.Daemon.delta_bytes )
  in
  if not trace then begin
    let first = ref None in
    let setups = ref [] in
    let reps, heap =
      repeat ~seconds ~min_reps:3 (fun () ->
          check_quiet c;
          let g, build_s = timed (fun () -> build_fabric spec ~seed) in
          match checked_run g with
          | None -> nan
          | Some ((_, setup_s, op_s, _, _) as run) ->
            if !first = None then first := Some (key run);
            check c (!first = Some (key run)) "daemon runs differ within one seed";
            setups := (build_s +. setup_s) :: !setups;
            op_s)
    in
    [
      ("setup_s", median !setups);
      ("op_ms", 1000.0 *. median reps);
      ("peak_heap_mb", heap);
    ]
  end
  else begin
    let g = build_fabric spec ~seed in
    check_quiet c;
    match checked_run g with
    | None -> []
    | Some (o, _, daemon_s, e0, e1) ->
      (* Epoch 0 from public calls gives the incident its starting
         state: the cold-start map and the installed-tables ledger. *)
      let world, g0, mapper0 = world_at g ~seed ~epoch:0 in
      let cfg = config ~seed in
      let params = cfg.Daemon.params in
      let net0 = Network.create ~params ~responding:(World.responding world) g0 in
      let r0 = Berkeley.run ~policy:cfg.Daemon.policy net0 ~mapper:mapper0 in
      let map0 = get r0.Berkeley.map in
      let rep0 =
        get
          (Delta.distribute ~params ~retries:cfg.Daemon.dist_retries
             ~installed:Delta.empty (Routes.compute map0) ~actual:g0 ~leader:mapper0)
      in
      check c (Berkeley.total_probes r0 = e0.Daemon.probes)
        "cold-start replay does not reproduce epoch 0";
      let installed = rep0.Delta.installed in
      Gc.full_major ();
      (* The schedule moves the world before the daemon's epoch-1
         work starts; the daemon's share below includes that step. *)
      let _, replay_s =
        let w = world_at g ~seed ~epoch:1 in
        timed (fun () -> incident untraced ~seed w ~previous:map0 ~installed)
      in
      Span.reset ();
      ignore (root "setup" (fun () -> traced.sp "fabric.build" (fun () -> build_fabric spec ~seed)));
      Gc.full_major ();
      let ((_, g1, _) as w) = world_at g ~seed ~epoch:1 in
      let inc, d, map, rep =
        root "incident" (fun () -> incident traced ~seed w ~previous:map0 ~installed)
      in
      let verify_ns = inc.Incremental.verify_elapsed_ns in
      let remap_ns = inc.Incremental.total_elapsed_ns -. verify_ns in
      (* The daemon's own sum, in its order, so the floats match. *)
      let converge_ns =
        verify_ns +. remap_ns +. rep.Delta.dist.San_routing.Distribute.duration_ns
      in
      let probes = inc.Incremental.verify_probes + inc.Incremental.remap_probes in
      let daemon_dist = Option.get e1.Daemon.dist in
      check c
        (probes = e1.Daemon.probes
        && converge_ns = (List.hd o.Daemon.incidents).Daemon.converge_ns
        && rep.Delta.sent_bytes = daemon_dist.Delta.sent_bytes
        && rep.Delta.plan.Delta.unchanged_hosts
           = daemon_dist.Delta.plan.Delta.unchanged_hosts
        && (match o.Daemon.map with
           | Some m -> Result.is_ok (Iso.check ~map ~actual:m ())
           | None -> false)
        && verified g1 ~exclude:(Core_set.separated_set g1) (Ok map))
        "traced incident does not reproduce the daemon's epoch 1";
      trace_metrics c ~op_root:"incident" ~untraced_op_s:replay_s
      @ (match d with Some d -> per_probe_metrics d | None -> [])
      @ [
          (Metric.share_name "service.daemon", (daemon_s -. replay_s) /. daemon_s);
          ("core.verify_probes", float_of_int inc.Incremental.verify_probes);
          ( "service.unchanged_hosts",
            float_of_int rep.Delta.plan.Delta.unchanged_hosts );
          ( "routing.dist_sim_ms",
            rep.Delta.dist.San_routing.Distribute.duration_ns /. 1e6 );
          ("probes", float_of_int probes);
          ("sim_converge_ms", converge_ns /. 1e6);
          ("delta_bytes", float_of_int rep.Delta.sent_bytes);
        ]
  end

(* ------------------------------------------------------------------ *)
(* The workload table. Why each exists is in README.md.                *)

type t = {
  name : string;
  run : size -> seed:int -> seconds:float -> trace:bool -> checks -> (string * float) list;
}

let workloads =
  [
    {
      name = "map-ft1k";
      run =
        (fun size ->
          map_workload
            ~spec:(match size with Full -> "ft-1k" | Smoke -> "ft-100")
            ~overheads:true);
    };
    {
      name = "map-r32";
      run =
        (fun size ->
          map_workload
            ~spec:
              (match size with
              | Full -> "levels=3,radix=32,edge=4,hosts=16"
              | Smoke -> "levels=2,radix=32,edge=2,hosts=16")
            ~overheads:false);
    };
    {
      name = "serve-ft1k";
      run =
        (fun size ->
          match size with
          | Full -> serve_workload ~spec:"ft-1k" ~ndst:64 ~queries:400_000
          | Smoke -> serve_workload ~spec:"ft-100" ~ndst:16 ~queries:20_000);
    };
    {
      name = "converge-ft400";
      run =
        (fun size ->
          converge_workload
            ~spec:
              (match size with
              | Full -> "levels=3,radix=16,edge=50,hosts=8"
              | Smoke -> "ft-100"));
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let run w size ~seed ~seconds ~trace =
  let c = { attempted = 0; failures = [] } in
  gc_alloc_bytes := 0.0;
  gc_majors := 0;
  let metrics =
    match w.run size ~seed ~seconds ~trace c with
    | m -> m
    | exception e ->
      check c false ("exception: " ^ Printexc.to_string e);
      []
  in
  let metrics =
    if trace then all_layer_metrics metrics
    else
      List.map
        (fun d ->
          (d.Metric.name, Option.value ~default:nan (List.assoc_opt d.Metric.name metrics)))
        Metric.end_to_end
  in
  {
    attempted = c.attempted;
    failures = List.rev c.failures;
    metrics;
    chrome = (if trace && Span.spans () <> [] then Some (Span.to_chrome ()) else None);
  }
