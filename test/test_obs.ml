(* The observability subsystem: histogram quantiles, digest merge
   algebra (merge of digests equals the digest of the concatenated
   streams, exactly), ring-buffer overflow, JSON-lines round-trips,
   and agreement between trace events, the metrics registry and the
   Stats compatibility view. *)

open San_obs
open San_topology
open San_simnet

let close ?(rel = 0.10) msg expected got =
  (* Log-scale buckets answer within gamma = 2^(1/8) relative error;
     allow a little slack on top. *)
  let ok = Float.abs (got -. expected) <= rel *. Float.abs expected in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected ~%g, got %g" msg expected got)
    true ok

let quantile h q = Digest.quantile (Metrics.digest h) q

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_hist_quantiles_uniform () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "u" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  close "p50 of 1..1000" 500.0 (quantile h 0.50);
  close "p90 of 1..1000" 900.0 (quantile h 0.90);
  close "p99 of 1..1000" 990.0 (quantile h 0.99);
  Alcotest.(check int) "count" 1000 (Metrics.histogram_count h)

let test_hist_quantiles_exponential () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "e" in
  (* A heavily skewed distribution: 990 small values, 10 huge ones. *)
  for _ = 1 to 990 do
    Metrics.observe h 10.0
  done;
  for _ = 1 to 10 do
    Metrics.observe h 1.0e6
  done;
  close "p50 skewed" 10.0 (quantile h 0.50);
  close "p90 skewed" 10.0 (quantile h 0.90);
  close "p99.5 skewed" 1.0e6 (quantile h 0.995)

let test_hist_zero_and_clamp () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "z" in
  List.iter (Metrics.observe h) [ 0.0; 0.0; 0.0; 42.0; 43.0 ];
  Alcotest.(check (float 1e-9)) "p50 lands in the zero bucket" 0.0
    (quantile h 0.50);
  (* The top quantile must clamp to the observed max, not a bucket
     boundary above it. *)
  Alcotest.(check bool) "p99 clamped to max" true
    (quantile h 0.99 <= 43.0);
  Alcotest.(check (float 1e-9)) "empty histogram quantile" 0.0
    (quantile (Metrics.histogram r "empty") 0.5)

let test_registry_snapshot_diff () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  let g = Metrics.gauge r "g" in
  let h = Metrics.histogram r "h" in
  Metrics.incr ~by:5 c;
  Metrics.set g 1.5;
  Metrics.observe h 100.0;
  let before = Metrics.snapshot r in
  Metrics.incr ~by:7 c;
  Metrics.set g 9.0;
  Metrics.observe h 200.0;
  Metrics.observe h 300.0;
  let after = Metrics.snapshot r in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check (option int)) "counter delta" (Some 7)
    (Metrics.counter_in d "c");
  Alcotest.(check (option (float 1e-9))) "gauge keeps later value" (Some 9.0)
    (Metrics.gauge_in d "g");
  (match Metrics.histogram_in d "h" with
  | None -> Alcotest.fail "histogram missing from diff"
  | Some hs ->
    Alcotest.(check int) "histogram delta count" 2 (Digest.count hs);
    Alcotest.(check (float 1e-6)) "histogram delta sum" 500.0
      (Digest.sum hs));
  (* reset zeroes in place: the old handle keeps working. *)
  Metrics.reset r;
  Alcotest.(check int) "reset zeroes counters" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Alcotest.(check (option int)) "handle survives reset" (Some 1)
    (Metrics.counter_in (Metrics.snapshot r) "c")

(* Counters only grow: a negative increment raises at the call site
   and leaves the value as it was. *)
let test_negative_increment_raises () =
  let c = Metrics.counter (Metrics.create ()) "c" in
  Metrics.incr ~by:2 c;
  (match Metrics.incr ~by:(-1) c with
  | () -> Alcotest.fail "a negative increment must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "value unchanged" 2 (Metrics.counter_value c)

let test_metrics_to_json () =
  let r = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter r "probes");
  Metrics.observe (Metrics.histogram r "lat") 50.0;
  let s = San_util.Json.to_string (Metrics.to_json (Metrics.snapshot r)) in
  match San_util.Json.of_string s with
  | Error e -> Alcotest.fail ("metrics JSON does not parse: " ^ e)
  | Ok j ->
    let counters = Option.get (San_util.Json.member "counters" j) in
    Alcotest.(check (option int)) "counter round-trips" (Some 3)
      (Option.bind (San_util.Json.member "probes" counters) San_util.Json.to_int)

(* Pin the quantile corner cases: these behaviors are part of the
   exporter contract (Prometheus summaries call Digest.quantile on
   whatever the run produced, including nothing at all). *)
let test_hist_quantile_edges () =
  let r = Metrics.create () in
  (* empty: every quantile is 0 *)
  let h_empty = Metrics.histogram r "empty" in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "empty q=%g" q)
        0.0
        (quantile h_empty q))
    [ 0.0; 0.5; 1.0 ];
  (* single observation: min/max clamping pins every quantile to it *)
  let h_one = Metrics.histogram r "one" in
  Metrics.observe h_one 42.0;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single obs q=%g" q)
        42.0
        (quantile h_one q))
    [ 0.0; 0.5; 1.0 ];
  (* all-zero observations land in the zero bucket *)
  let h_zero = Metrics.histogram r "zeros" in
  for _ = 1 to 10 do
    Metrics.observe h_zero 0.0
  done;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "all-zero q=%g" q)
        0.0
        (quantile h_zero q))
    [ 0.0; 0.5; 1.0 ];
  (* q=0 and q=1 clamp into the observed [min,max]; the answer is a
     geometric bucket midpoint, so it lands within one bucket (~9%
     relative) of the true extreme, never outside it *)
  let h = Metrics.histogram r "spread" in
  List.iter (Metrics.observe h) [ 3.0; 17.0; 1000.0 ];
  let q0 = quantile h 0.0 and q1 = quantile h 1.0 in
  Alcotest.(check bool) "q=0 within a bucket of the min" true
    (q0 >= 3.0 && q0 <= 3.0 *. 1.10);
  Alcotest.(check bool) "q=1 within a bucket of the max" true
    (q1 >= 1000.0 /. 1.10 && q1 <= 1000.0)

(* The exporter must emit parseable, finite JSON even for histograms
   that observed nothing at all (min/max start at +/-infinity
   internally, and [%.17g] would print "inf" — unparseable JSON) and
   for diff windows in which a histogram did not move. *)
let test_hist_json_finite () =
  let r = Metrics.create () in
  ignore (Metrics.histogram r "silent");
  let h = Metrics.histogram r "negative" in
  Metrics.observe h (-2.5);
  (* non-positive observations land in the zero bucket *)
  Alcotest.(check (float 1e-9))
    "negative obs p99" 0.0 (quantile h 0.99);
  let before = Metrics.snapshot r in
  let after = Metrics.snapshot r in
  let window = Metrics.diff ~before ~after in
  List.iter
    (fun (label, snap) ->
      let s = San_util.Json.to_string (Metrics.to_json snap) in
      match San_util.Json.of_string s with
      | Error e -> Alcotest.failf "%s JSON does not parse: %s" label e
      | Ok j ->
        let hists = Option.get (San_util.Json.member "histograms" j) in
        List.iter
          (fun name ->
            let hist = Option.get (San_util.Json.member name hists) in
            List.iter
              (fun field ->
                match San_util.Json.member field hist with
                | Some (San_util.Json.Num v) when Float.is_finite v -> ()
                | Some (San_util.Json.Num v) ->
                  Alcotest.failf "%s: %s.%s = %g is not finite" label name
                    field v
                | _ ->
                  Alcotest.failf "%s: %s.%s missing from export" label name
                    field)
              [ "min"; "max"; "p50"; "p90"; "p99" ])
          [ "silent"; "negative" ])
    [ ("snapshot", after); ("zero-window diff", window) ]

(* A reset between the two snapshots of a diff window restarts the
   instruments; the diff must adopt the after-state wholesale rather
   than subtract across the restart. The nasty shape is the
   "only new buckets appeared" window: the post-reset histogram holds
   bins the pre-reset one never saw, so naive per-bucket subtraction
   produced no negative bucket — only the count went backwards — and
   the window exported negative totals. *)
let test_diff_restart_adopts_after () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "lat" in
  let c = Metrics.counter r "probes" in
  Metrics.incr ~by:7 c;
  (* pre-reset population: two observations in the 100ish bucket *)
  Metrics.observe h 100.0;
  Metrics.observe h 110.0;
  let before = Metrics.snapshot r in
  Metrics.reset r;
  (* post-reset: only NEW buckets (5.0 is far from 100.0), and fewer
     observations than the window started with *)
  Metrics.observe h 5.0;
  Metrics.incr ~by:2 c;
  let after = Metrics.snapshot r in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check (option int))
    "restarted counter adopts after-value" (Some 2)
    (Metrics.counter_in d "probes");
  let hs = Option.get (Metrics.histogram_in d "lat") in
  Alcotest.(check int) "restarted histogram adopts after-count" 1
    (Digest.count hs);
  Alcotest.(check int) "no negative zero bucket" 0 (Digest.zero_count hs);
  List.iter
    (fun (b, n) ->
      if n < 0 then Alcotest.failf "bucket %d has negative delta %d" b n)
    (Digest.buckets hs);
  Alcotest.(check (float 1e-9)) "sum is the post-reset sum" 5.0
    (Digest.sum hs);
  (* same reset, but the post-reset window re-populates an OLD bucket
     past its before-count: that looks like plain growth per-bucket,
     and the shrunken zero bucket is the only restart telltale *)
  let h2 = Metrics.histogram r "zeroes" in
  Metrics.observe h2 0.0;
  Metrics.observe h2 50.0;
  let before2 = Metrics.snapshot r in
  Metrics.reset r;
  List.iter (Metrics.observe h2) [ 50.0; 51.0; 52.0 ];
  let d2 = Metrics.diff ~before:before2 ~after:(Metrics.snapshot r) in
  let hs2 = Option.get (Metrics.histogram_in d2 "zeroes") in
  Alcotest.(check int) "zero-bucket shrink detected as restart" 3
    (Digest.count hs2);
  Alcotest.(check int) "adopted zero bucket" 0 (Digest.zero_count hs2)

(* A diff window with no reset still subtracts (the restart detection
   must not misfire on plain growth). *)
let test_diff_plain_growth_still_subtracts () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "lat" in
  Metrics.observe h 100.0;
  let before = Metrics.snapshot r in
  Metrics.observe h 100.0;
  Metrics.observe h 200.0;
  let d = Metrics.diff ~before ~after:(Metrics.snapshot r) in
  let hs = Option.get (Metrics.histogram_in d "lat") in
  Alcotest.(check int) "window count is the delta" 2 (Digest.count hs);
  Alcotest.(check (float 1e-9)) "window sum is the delta" 300.0
    (Digest.sum hs)

(* ------------------------------------------------------------------ *)
(* Digest merge algebra                                                *)

(* Deterministic pseudo-random samples without depending on the global
   Random state. *)
let samples seed n =
  let rng = San_util.Prng.create seed in
  List.init n (fun _ -> San_util.Prng.float rng 1e6)

(* Equality up to float addition order: bucket counts and quantiles
   must agree exactly, [sum] only to rounding (merge adds partial sums
   in a different order than streaming). *)
let digests_equal msg a b =
  Alcotest.(check int) (msg ^ ": count") (Digest.count a) (Digest.count b);
  close ~rel:1e-9 (msg ^ ": sum") (Digest.sum a) (Digest.sum b);
  List.iter
    (fun q ->
      close ~rel:1e-9
        (Printf.sprintf "%s: q%.2f" msg q)
        (Digest.quantile a q) (Digest.quantile b q))
    [ 0.0; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ]

let test_merge_is_concat () =
  let xs = samples 1 700 and ys = samples 2 300 in
  let merged = Digest.merge (Digest.of_list xs) (Digest.of_list ys) in
  digests_equal "merge = concat" merged (Digest.of_list (xs @ ys))

let test_merge_commutes_and_associates () =
  let a = Digest.of_list (samples 3 100)
  and b = Digest.of_list (samples 4 200)
  and c = Digest.of_list (samples 5 50) in
  digests_equal "commute" (Digest.merge a b) (Digest.merge b a);
  digests_equal "associate"
    (Digest.merge (Digest.merge a b) c)
    (Digest.merge a (Digest.merge b c));
  digests_equal "merge_all" (Digest.merge_all [ a; b; c ])
    (Digest.merge (Digest.merge a b) c)

let test_merge_empty_identity () =
  let a = Digest.of_list (samples 6 120) in
  digests_equal "empty right" a (Digest.merge a (Digest.create ()));
  digests_equal "empty left" a (Digest.merge (Digest.create ()) a);
  Alcotest.(check bool) "empty is empty" true
    (Digest.is_empty (Digest.merge_all []))

let test_merge_does_not_mutate () =
  let a = Digest.of_list (samples 7 40) in
  let before = San_util.Json.to_string (Digest.to_json a) in
  ignore (Digest.merge a (Digest.of_list (samples 8 40)));
  Alcotest.(check string) "left argument untouched" before
    (San_util.Json.to_string (Digest.to_json a))

let test_quantile_accuracy () =
  (* 1..10_000: the rank-q element is known exactly, the digest must
     answer within its guaranteed relative error. *)
  let d = Digest.create () in
  for i = 1 to 10_000 do
    Digest.add d (float_of_int i)
  done;
  List.iter
    (fun q ->
      close ~rel:Digest.relative_error
        (Printf.sprintf "p%02.0f of 1..10k" (q *. 100.))
        (q *. 10_000.0) (Digest.quantile d q))
    [ 0.5; 0.9; 0.95; 0.99 ];
  (* Extremes answer a bucket midpoint clamped into [min, max], so
     they too are within the guaranteed error of the true extremes. *)
  close ~rel:0.05 "p0 near min" 1.0 (Digest.quantile d 0.0);
  close ~rel:0.05 "p100 near max" 10_000.0 (Digest.quantile d 1.0)

let test_zero_and_negative_bucket () =
  (* Non-positive values share one zero bucket that answers 0.0; the
     geometric buckets only resolve positive values. *)
  let d = Digest.of_list [ -5.0; 0.0; 0.0; 10.0 ] in
  Alcotest.(check int) "count" 4 (Digest.count d);
  Alcotest.(check (float 0.0)) "p0 answers from the zero bucket" 0.0
    (Digest.quantile d 0.0);
  Alcotest.(check (float 0.0)) "p50 still in the zero bucket" 0.0
    (Digest.quantile d 0.5);
  close ~rel:0.05 "p100 near max" 10.0 (Digest.quantile d 1.0)

let test_quantile_empty_and_single () =
  (* The serving/bench paths take p99 of whatever a run produced,
     including nothing: an empty digest must answer 0.0 (never index
     out of range or leak vmin = +inf), and a one-sample digest must
     answer that sample exactly at every q via the [vmin, vmax]
     clamp. *)
  let e = Digest.create () in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "empty q=%g" q)
        0.0 (Digest.quantile e q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (match Digest.of_json (Digest.to_json e) with
  | None -> Alcotest.fail "empty digest JSON did not parse back"
  | Some e' -> Alcotest.(check int) "empty roundtrip count" 0 (Digest.count e'));
  let one = Digest.of_list [ 42.0 ] in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single q=%g" q)
        42.0 (Digest.quantile one q))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_json_roundtrip () =
  let d = Digest.of_list (samples 9 500) in
  match Digest.of_json (Digest.to_json d) with
  | None -> Alcotest.fail "digest JSON did not parse back"
  | Some d' -> digests_equal "json roundtrip" d d'

(* A registry histogram is a digest, so per-registry snapshots merge
   exactly: two registries fed [xs] and [ys] merge into what one
   registry fed [xs @ ys] holds, bucket for bucket. *)
let test_registry_snapshots_merge_exactly () =
  let fed name vs =
    let r = Metrics.create () in
    List.iter (Metrics.observe (Metrics.histogram r name)) vs;
    Option.get (Metrics.histogram_in (Metrics.snapshot r) name)
  in
  let xs = samples 10 800 and ys = samples 11 300 in
  let merged = Digest.merge (fed "w" xs) (fed "w" ys) in
  let whole = fed "w" (xs @ ys) in
  Alcotest.(check int) "count" (Digest.count whole) (Digest.count merged);
  close ~rel:1e-9 "sum" (Digest.sum whole) (Digest.sum merged);
  Alcotest.(check (float 0.0)) "min" (Digest.min whole) (Digest.min merged);
  Alcotest.(check (float 0.0)) "max" (Digest.max whole) (Digest.max merged);
  Alcotest.(check (list (pair int int)))
    "buckets" (Digest.buckets whole) (Digest.buckets merged);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g" (q *. 100.0))
        (Digest.quantile whole q) (Digest.quantile merged q))
    [ 0.5; 0.9; 0.99 ]

(* ------------------------------------------------------------------ *)
(* Trace ring buffer                                                   *)

let mark i = Trace.Mark { name = "m"; note = string_of_int i }

let test_ring_overflow () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.emit t (mark i)
  done;
  Alcotest.(check int) "length capped at capacity" 4 (Trace.length t);
  Alcotest.(check int) "dropped counts overwrites" 6 (Trace.dropped t);
  let seqs = List.map (fun (r : Trace.record) -> r.Trace.seq) (Trace.records t) in
  Alcotest.(check (list int)) "newest survive, oldest first" [ 6; 7; 8; 9 ] seqs;
  Trace.clear t;
  Alcotest.(check int) "clear empties" 0 (Trace.length t);
  Alcotest.(check int) "clear resets dropped" 0 (Trace.dropped t);
  Trace.emit t (mark 0);
  Alcotest.(check int) "seq restarts at 0" 0
    (List.hd (Trace.records t)).Trace.seq

let test_ring_under_capacity () =
  let t = Trace.create ~capacity:8 () in
  for i = 0 to 2 do
    Trace.emit t (mark i)
  done;
  Alcotest.(check int) "length" 3 (Trace.length t);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped t);
  Alcotest.(check int) "all events kept" 3 (List.length (Trace.events t))

(* ------------------------------------------------------------------ *)
(* JSON-lines round-trip                                               *)

let sample_events =
  [
    Trace.Probe_sent { kind = Trace.Host; hit = true; cost_ns = 202200.0 };
    Trace.Probe_sent { kind = Trace.Loop; hit = false; cost_ns = 520000.0 };
    Trace.Worm_injected { wid = 3; at_ns = 100.0; hops = 7 };
    Trace.Worm_delivered { wid = 3; at_ns = 900.5; latency_ns = 800.5 };
    Trace.Worm_dropped { wid = 4; at_ns = 1.0e6; reason = "forward_reset" };
    Trace.Replicate_merged { kept = 12; absorbed = 99 };
    Trace.Route_computed { pairs = 9900; unreachable = 0 };
    Trace.Routes_distributed { slices = 99; bytes = 123456 };
    Trace.Epoch_started { name = "verified"; discrepancies = 0 };
    Trace.Span_begin { name = "berkeley.run" };
    Trace.Span_end { name = "berkeley.run"; elapsed_ns = 1234.5 };
    Trace.Mark { name = "note"; note = "with \"quotes\" and \n newline" };
    Trace.Daemon_transition { epoch = 4; from_ = "stable"; to_ = "verifying" };
  ]

let test_jsonl_roundtrip () =
  let file = Filename.temp_file "san_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let t = Trace.create () in
      let oc = open_out file in
      Trace.add_sink t (Trace.jsonl_sink oc);
      List.iter (Trace.emit t) sample_events;
      close_out oc;
      let originals = Trace.records t in
      let ic = open_in file in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per event" (List.length sample_events)
        (List.length lines);
      List.iter2
        (fun line (orig : Trace.record) ->
          match San_util.Json.of_string line with
          | Error e -> Alcotest.fail ("line does not parse: " ^ e)
          | Ok j -> (
            match Trace.record_of_json j with
            | None -> Alcotest.fail ("line does not decode: " ^ line)
            | Some r ->
              Alcotest.(check bool)
                ("record round-trips: " ^ line)
                true (r = orig)))
        lines originals)

(* Every constructor the compiler knows about must serialize: walk the
   compiler-maintained [all_events] witness list through a full
   to-string / parse / decode cycle. A constructor added to [event]
   without JSON support breaks here (and forgetting to extend
   [all_events] itself is a fatal inexhaustive match in trace.ml). *)
let test_all_events_roundtrip () =
  Alcotest.(check int) "one witness per constructor" 18
    (List.length Trace.all_events);
  let tags =
    List.filter_map
      (fun ev ->
        match Trace.event_to_json ev with
        | San_util.Json.Obj fields -> (
          match List.assoc_opt "ev" fields with
          | Some (San_util.Json.Str tag) -> Some tag
          | _ -> None)
        | _ -> None)
      Trace.all_events
  in
  Alcotest.(check int) "every witness carries an \"ev\" tag" 18
    (List.length tags);
  Alcotest.(check int) "tags are distinct" 18
    (List.length (List.sort_uniq compare tags));
  List.iter
    (fun ev ->
      let orig = { Trace.seq = 0; wall_ns = 1.0; event = ev } in
      let text =
        San_util.Json.to_string ~pretty:false (Trace.record_to_json orig)
      in
      match San_util.Json.of_string text with
      | Error e -> Alcotest.fail (text ^ " does not parse: " ^ e)
      | Ok j -> (
        match Trace.record_of_json j with
        | None -> Alcotest.fail (text ^ " does not decode")
        | Some r ->
          Alcotest.(check bool) ("round-trips: " ^ text) true (r = orig)))
    Trace.all_events

(* ------------------------------------------------------------------ *)
(* End to end: a mapper run's trace agrees with its network counters  *)

let with_enabled f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let test_mapper_trace_matches_stats () =
  with_enabled @@ fun () ->
  let g, _ = Generators.now_c () in
  let net = Network.create g in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let r = San_mapper.Berkeley.run net ~mapper in
  let count pred = List.length (List.filter pred (Trace.events Obs.tracer)) in
  let is_probe kinds hit' = function
    | Trace.Probe_sent { kind; hit; _ } -> List.mem kind kinds && hit = hit'
    | _ -> false
  in
  let host = [ Trace.Host; Trace.Walk ] and sw = [ Trace.Switch; Trace.Loop ] in
  Alcotest.(check int) "host probe events" (Network.host_probes net)
    (count (is_probe host true) + count (is_probe host false));
  Alcotest.(check int) "host hit events" (Network.host_hits net)
    (count (is_probe host true));
  Alcotest.(check int) "switch probe events" (Network.switch_probes net)
    (count (is_probe sw true) + count (is_probe sw false));
  Alcotest.(check int) "switch hit events" (Network.switch_hits net)
    (count (is_probe sw true));
  (* The registry agrees with both. *)
  let snap = Metrics.snapshot Obs.registry in
  Alcotest.(check (option int)) "registry host probes"
    (Some (Network.host_probes net))
    (Metrics.counter_in snap "net.host_probes");
  Alcotest.(check (option int)) "registry switch probes"
    (Some (Network.switch_probes net))
    (Metrics.counter_in snap "net.switch_probes");
  (* The mapper's simulated time is the sum of the per-probe costs the
     histogram observed. *)
  (match Metrics.histogram_in snap "net.probe_cost_ns" with
  | None -> Alcotest.fail "probe cost histogram missing"
  | Some hs ->
    Alcotest.(check int) "every probe cost observed"
      (San_mapper.Berkeley.total_probes r)
      (Digest.count hs);
    close ~rel:1e-9 "cost sum is the mapper's simulated time"
      r.San_mapper.Berkeley.elapsed_ns (Digest.sum hs));
  (* Replicate merges were traced: created - live = merged away. *)
  let merges =
    count (function Trace.Replicate_merged _ -> true | _ -> false)
  in
  Alcotest.(check int) "merges accounted"
    (r.San_mapper.Berkeley.created_vertices
   - r.San_mapper.Berkeley.live_vertices)
    merges;
  (* And the span closed. *)
  Alcotest.(check bool) "berkeley.run span ended" true
    (List.exists
       (function
         | Trace.Span_end { name = "berkeley.run"; _ } -> true | _ -> false)
       (Trace.events Obs.tracer))

let test_disabled_is_silent () =
  Obs.set_enabled false;
  Obs.reset ();
  let g, _ = Generators.now_c () in
  let net = Network.create g in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  ignore (San_mapper.Berkeley.run net ~mapper);
  Alcotest.(check int) "no trace when disabled" 0 (Trace.length Obs.tracer);
  Alcotest.(check (option int)) "no counters when disabled" (Some 0)
    (Metrics.counter_in (Metrics.snapshot Obs.registry) "net.host_probes")

(* ------------------------------------------------------------------ *)
(* A fleet's probe total is the sum of its shards'                      *)

let test_parallel_merged_stats () =
  let module Region = San_shard.Region in
  let module Runner = San_shard.Runner in
  let g, _ = Generators.now_c () in
  let plan =
    Result.get_ok (Region.local g ~mappers:4 ~depth:5 ~radius:3)
  in
  let r = Runner.execute g plan in
  let shard_sum =
    List.fold_left (fun acc s -> acc + s.Runner.s_probes) 0 r.Runner.reports
  in
  Alcotest.(check int) "fleet total is the sum of the shards" shard_sum
    r.Runner.total_probes;
  Alcotest.(check bool) "the fleet saw work" true (r.Runner.total_probes > 0);
  (* Each shard maps on its own quiescent network, so the total must
     equal running the same local explorations one after another and
     summing by hand. *)
  let sequential =
    List.fold_left
      (fun acc m ->
        let net = Network.create g in
        let b =
          San_mapper.Berkeley.run ~depth:(San_mapper.Berkeley.Fixed 5) net
            ~mapper:m
        in
        acc + San_mapper.Berkeley.total_probes b)
      0
      (Region.spread_mappers g ~count:4)
  in
  Alcotest.(check int) "fleet total equals sequential total" sequential
    r.Runner.total_probes

let () =
  Alcotest.run "san_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "uniform quantiles" `Quick
            test_hist_quantiles_uniform;
          Alcotest.test_case "skewed quantiles" `Quick
            test_hist_quantiles_exponential;
          Alcotest.test_case "zero bucket and clamping" `Quick
            test_hist_zero_and_clamp;
          Alcotest.test_case "empty and diff exports stay finite" `Quick
            test_hist_json_finite;
          Alcotest.test_case "quantile edge cases" `Quick
            test_hist_quantile_edges;
          Alcotest.test_case "diff adopts restarted instruments" `Quick
            test_diff_restart_adopts_after;
          Alcotest.test_case "diff still subtracts plain growth" `Quick
            test_diff_plain_growth_still_subtracts;
          Alcotest.test_case "snapshot and diff" `Quick
            test_registry_snapshot_diff;
          Alcotest.test_case "to_json parses back" `Quick test_metrics_to_json;
          Alcotest.test_case "negative increment raises" `Quick
            test_negative_increment_raises;
        ] );
      ( "digest",
        [
          Alcotest.test_case "merge = concat" `Quick test_merge_is_concat;
          Alcotest.test_case "commutes/associates" `Quick
            test_merge_commutes_and_associates;
          Alcotest.test_case "empty identity" `Quick
            test_merge_empty_identity;
          Alcotest.test_case "merge pure" `Quick test_merge_does_not_mutate;
          Alcotest.test_case "quantile accuracy" `Quick
            test_quantile_accuracy;
          Alcotest.test_case "zero bucket" `Quick
            test_zero_and_negative_bucket;
          Alcotest.test_case "empty and single-sample quantiles" `Quick
            test_quantile_empty_and_single;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "registry snapshots merge exactly" `Quick
            test_registry_snapshots_merge_exactly;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
          Alcotest.test_case "ring under capacity" `Quick
            test_ring_under_capacity;
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "all constructors round-trip" `Quick
            test_all_events_roundtrip;
        ] );
      ( "integration",
        [
          Alcotest.test_case "mapper trace matches stats" `Quick
            test_mapper_trace_matches_stats;
          Alcotest.test_case "disabled is silent" `Quick
            test_disabled_is_silent;
          Alcotest.test_case "parallel merged stats" `Quick
            test_parallel_merged_stats;
        ] );
    ]
