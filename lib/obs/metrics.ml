(* A registry of named counters, gauges and histograms (named Digests).

   Instruments are created on first use and zeroed in place by [reset],
   so handles cached by instrumented modules stay valid across the
   per-run resets the CLI and bench harness perform. *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

(* A histogram is a named Digest: one binning and one quantile rule
   for the registry, shard merges and SLO windows alike. *)
type histogram = { h_name : string; h_digest : Digest.t }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let find_or tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some x -> x
  | None ->
    let x = make () in
    Hashtbl.replace tbl name x;
    x

let counter t name =
  find_or t.counters name (fun () -> { c_name = name; c_value = 0 })

let gauge t name =
  find_or t.gauges name (fun () -> { g_name = name; g_value = 0.0 })

let histogram t name =
  find_or t.histograms name (fun () ->
      { h_name = name; h_digest = Digest.create () })

(* Counters are monotonic: a negative increment is always an
   accounting bug upstream, so it fails at the offending call site
   instead of exporting as a silently wrong number. *)
let incr ?(by = 1) c =
  if by < 0 then
    invalid_arg
      (Printf.sprintf "Metrics.incr %s: negative increment %d" c.c_name by);
  c.c_value <- c.c_value + by

let counter_value c = c.c_value

let set g v = g.g_value <- v

let observe h v = Digest.add h.h_digest v
let histogram_count h = Digest.count h.h_digest
let digest h = h.h_digest

let reset t =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) t.counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.0) t.gauges;
  Hashtbl.iter (fun _ h -> Digest.clear h.h_digest) t.histograms

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type hist_snapshot = Digest.t

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * float) list;
  s_histograms : (string * hist_snapshot) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot t =
  {
    s_counters = sorted_bindings t.counters (fun c -> c.c_value);
    s_gauges = sorted_bindings t.gauges (fun g -> g.g_value);
    s_histograms =
      sorted_bindings t.histograms (fun h -> Digest.copy h.h_digest);
  }

(* [diff ~before ~after]: activity between two snapshots of the same
   registry. Counters subtract and histograms take [Digest.diff];
   gauges keep the later value. An instrument that [reset] restarted
   mid-window must not subtract — its after-side value IS the window's
   activity — so a counter that went backwards adopts its after value,
   as [Digest.diff] does for a histogram whose counts shrank. *)
let diff ~before ~after =
  {
    s_counters =
      List.map
        (fun (name, v) ->
          let d =
            v - Option.value ~default:0 (List.assoc_opt name before.s_counters)
          in
          (name, if d < 0 then v else d))
        after.s_counters;
    s_gauges = after.s_gauges;
    s_histograms =
      List.map
        (fun (name, h) ->
          match List.assoc_opt name before.s_histograms with
          | None -> (name, h)
          | Some h0 -> (name, Digest.diff ~before:h0 ~after:h))
        after.s_histograms;
  }

let counter_in snap name = List.assoc_opt name snap.s_counters
let gauge_in snap name = List.assoc_opt name snap.s_gauges
let histogram_in snap name = List.assoc_opt name snap.s_histograms

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

let to_json snap =
  let module J = San_util.Json in
  let hist_json (name, hs) =
    ( name,
      J.Obj
        [
          ("count", J.int (Digest.count hs));
          ("sum", J.Num (Digest.sum hs));
          ("min", J.Num (if Digest.is_empty hs then 0.0 else Digest.min hs));
          ("max", J.Num (if Digest.is_empty hs then 0.0 else Digest.max hs));
          ("p50", J.Num (Digest.quantile hs 0.50));
          ("p90", J.Num (Digest.quantile hs 0.90));
          ("p99", J.Num (Digest.quantile hs 0.99));
        ] )
  in
  J.Obj
    [
      ( "counters",
        J.Obj (List.map (fun (n, v) -> (n, J.int v)) snap.s_counters) );
      ("gauges", J.Obj (List.map (fun (n, v) -> (n, J.Num v)) snap.s_gauges));
      ("histograms", J.Obj (List.map hist_json snap.s_histograms));
    ]
