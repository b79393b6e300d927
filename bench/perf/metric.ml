(* The benchmark's metrics. BENCHMARK.json names the same metrics with
   their units and directions (and bounds, for the end-to-end ones);
   the smoke run checks the two agree. [exact] marks metrics that are
   a pure function of the seed: compare mode requires them identical
   per seed instead of applying a bound. [moves] says which end-to-end
   metric a layer metric should move, on which workload. *)

type t = {
  name : string;
  unit_ : string;
  higher_better : bool;
  exact : bool;
  moves : string;
}

let m ?(higher = false) ?(exact = false) ?(moves = "") name unit_ =
  { name; unit_; higher_better = higher; exact; moves }

(* Every workload reports these with tracing off. None of them can be
   0: set-up, one operation and the heap all cost something. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "op_ms" "ms";
    m "peak_heap_mb" "MB";
  ]

(* The layers: one span name each in the traced run, in pipeline
   order, with the end-to-end metric a faster layer should move. A
   layer's host time is reported as its share of the traced wall
   ([trace.wall_s]); the share of a layer a workload does not exercise
   reads 0. [service.daemon] is the exception: the daemon's own
   bookkeeping is not a call the replay can wrap, so its share is of
   the untraced incident wall, measured as that wall minus the
   untraced replay of the same calls. *)
let layers =
  [
    ("fabric.build", "setup_s, all");
    ("simnet.create", "setup_s on map-*; op_ms on converge");
    ("simnet.probe", "op_ms on map-ft1k and converge");
    ("core.explore", "op_ms and peak_heap_mb on map-r32 most");
    ("model.prune", "op_ms on map-*");
    ("model.export", "op_ms on map-*");
    ("topology.iso", "none (verification)");
    ("topology.search_depth", "op_ms on converge");
    ("core.verify", "op_ms on converge");
    ("routing.routes", "op_ms on converge");
    ("service.delta", "op_ms on converge");
    ("service.daemon", "op_ms on converge");
    ("routing.serve_create", "setup_s on serve");
    ("routing.compile", "setup_s on serve");
    ("routing.lookup", "op_ms on serve");
  ]

let share_name layer = layer ^ ".share"

let per_layer =
  [
    m "trace.wall_s" "s" ~moves:"op_ms, all";
    m "trace.layer_sum_ratio" "ratio" ~higher:true;
    m "trace.overhead" "ratio";
    m "fabric.build_s" "s" ~moves:"setup_s, all";
  ]
  @ List.map (fun (l, moves) -> m (share_name l) "share" ~moves) layers
  @ [
    m "simnet.probes" "count" ~exact:true ~moves:"op_ms on map-*, converge";
    m "simnet.hit_ratio" "ratio" ~exact:true;
    m "simnet.probe_ns" "ns/probe" ~moves:"op_ms on map-ft1k";
    m "core.explorations" "count" ~exact:true;
    m "core.self_ns_per_probe" "ns/probe" ~moves:"op_ms on map-r32";
    m "model.replicate_ratio" "ratio" ~exact:true
      ~moves:"op_ms and peak_heap_mb on map-r32";
    m "core.verify_probes" "count" ~exact:true ~moves:"op_ms on converge";
    m "service.unchanged_hosts" "count" ~exact:true ~higher:true
      ~moves:"op_ms on converge";
    m "routing.dist_sim_ms" "sim_ms" ~exact:true;
    m "routing.compile_ms_p80" "ms/dst" ~moves:"setup_s on serve";
    m "routing.lookup_ns" "ns/lookup" ~moves:"op_ms on serve";
    m "routing.alloc_words_per_lookup" "words" ~exact:true
      ~moves:"op_ms on serve";
    m "routing.pool_cells" "count" ~exact:true ~moves:"peak_heap_mb on serve";
    m "routing.packed_ratio" "ratio" ~exact:true;
    m "gc.alloc_mb" "MB" ~moves:"op_ms, peak_heap_mb";
    m "gc.major_collections" "count" ~moves:"op_ms, peak_heap_mb";
    m "obs.overhead" "ratio";
    m "why.overhead" "ratio";
    m "probes" "count" ~exact:true;
    m "sim_map_s" "sim_s" ~exact:true;
    m "sim_converge_ms" "sim_ms" ~exact:true;
    m "delta_bytes" "bytes" ~exact:true;
  ]

let all = end_to_end @ per_layer
let find name = List.find_opt (fun d -> d.name = name) all
