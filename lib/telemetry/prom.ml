(* Prometheus text exposition (version 0.0.4) over a Metrics
   snapshot. Pure string-to-string so the exporter is testable without
   a scrape endpoint; values print with %.17g so a parse of our own
   output recovers every float exactly (the round-trip test leans on
   this). *)

module Metrics = San_obs.Metrics

let default_prefix = "san_"

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let of_snapshot ?(prefix = default_prefix) (s : Metrics.snapshot) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let full name = prefix ^ sanitize name in
  List.iter
    (fun (name, v) ->
      let n = full name in
      add "# TYPE %s counter\n" n;
      add "%s %d\n" n v)
    s.Metrics.s_counters;
  List.iter
    (fun (name, v) ->
      let n = full name in
      add "# TYPE %s gauge\n" n;
      add "%s %s\n" n (num v))
    s.Metrics.s_gauges;
  (* Log-scale histograms expose as summaries: the bucket boundaries
     are an internal encoding, the quantiles are the interface. *)
  List.iter
    (fun (name, h) ->
      let n = full name in
      add "# TYPE %s summary\n" n;
      List.iter
        (fun (label, q) ->
          add "%s{quantile=\"%s\"} %s\n" n label
            (num (San_obs.Digest.quantile h q)))
        [ ("0.5", 0.5); ("0.9", 0.9); ("0.99", 0.99) ];
      add "%s_sum %s\n" n (num (San_obs.Digest.sum h));
      add "%s_count %d\n" n (San_obs.Digest.count h))
    s.Metrics.s_histograms;
  Buffer.contents buf

(* Enough of a parser to round-trip our own output: series name
   (labels folded in verbatim) to float value, skipping # lines. *)
let parse_values text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
             let series = String.sub line 0 i in
             let value = String.sub line (i + 1) (String.length line - i - 1) in
             (match float_of_string_opt value with
             | Some f -> Some (series, f)
             | None -> None))
