(* Sets of runs: their JSON form, and comparing two of them.

   A set holds, per workload and seed, one end-to-end run (trace 0)
   and one traced run (trace 1). End-to-end metrics are judged by
   their medians against the BENCHMARK.json bound; a metric whose
   spread between quartiles exceeds its bound on either side is
   unresolved, not unchanged, unless every run of one side reads
   better than every run of the other. Metrics that are a pure
   function of the seed must be identical seed by seed. *)

module J = San_util.Json

type run = {
  workload : string;
  seed : int;
  trace : bool;
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let run_to_json r =
  J.Obj
    [
      ("workload", J.Str r.workload);
      ("seed", J.int r.seed);
      ("trace", J.int (if r.trace then 1 else 0));
      ("correct", J.Bool r.correct);
      ("attempted", J.int r.attempted);
      ("failed", J.int r.failed);
      ("metrics", J.Obj (List.map (fun (n, v) -> (n, J.Num v)) r.values));
    ]

let run_of_json j =
  let get k f = Option.bind (J.member k j) f in
  let num = function J.Num f -> Some f | _ -> None in
  match
    ( get "workload" J.to_str,
      get "seed" J.to_int,
      get "trace" J.to_int,
      get "correct" (function J.Bool b -> Some b | _ -> None),
      get "attempted" J.to_int,
      get "failed" J.to_int,
      get "metrics" (function J.Obj l -> Some l | _ -> None) )
  with
  | Some workload, Some seed, Some trace, Some correct, Some attempted, Some failed, Some m
    ->
    Some
      {
        workload; seed; trace = trace = 1; correct; attempted; failed;
        values = List.filter_map (fun (n, v) -> Option.map (fun f -> (n, f)) (num v)) m;
      }
  | _ -> None

(* Python's statistics.quantiles(values, n=4) (the 'exclusive'
   method), which is what the bounds are checked with. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

let spread values =
  let q1, med, q3 = quartiles values in
  (q3 -. q1) /. med

let workloads_of runs =
  List.fold_left
    (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
    [] runs

(* (seed, value) of one metric over a workload's runs of one kind. *)
let values_of runs ~workload ~trace name =
  List.filter_map
    (fun r ->
      if r.workload = workload && r.trace = trace then
        Option.map (fun v -> (r.seed, v)) (List.assoc_opt name r.values)
      else None)
    runs

(* The rule a gain claim must meet: the change wins at least 9 of
   every 10 seed-paired runs (ties count for neither side) and the
   medians differ by more than the parent's own quartile distance. *)
let paired_gain ~higher a b =
  let pairs =
    List.filter_map (fun (s, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt s b)) a
  in
  let better x y = if higher then y > x else y < x in
  let wins = List.length (List.filter (fun (x, y) -> better x y) pairs) in
  let q1, med_a, q3 = quartiles (List.map snd a) in
  let med_b = median (List.map snd b) in
  let n = List.length pairs in
  ( wins,
    n,
    n > 0 && 10 * wins >= 9 * n && better med_a med_b
    && Float.abs (med_b -. med_a) > q3 -. q1 )

let verdict ~higher ~bound a b =
  let med_a = median a and med_b = median b in
  let worse = (if higher then -1.0 else 1.0) *. ((med_b -. med_a) /. med_a) in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> if higher then y > x else y < x) a) b
  in
  if spread a > bound || spread b > bound then
    if all_better then "better" else "unresolved"
  else if worse > bound then "REGRESSED"
  else "ok"

(* One row per workload; false on a regression, a changed exact metric
   or an incorrect run. [e2e] is (name, higher is better, bound). *)
let compare_sets ~e2e a b =
  let ok = ref true in
  let exact = List.filter (fun d -> d.Metric.exact) Metric.per_layer in
  List.iter
    (fun w ->
      let cells =
        List.map
          (fun (name, higher, bound) ->
            let va = values_of a ~workload:w ~trace:false name
            and vb = values_of b ~workload:w ~trace:false name in
            if va = [] || vb = [] then name ^ " no runs"
            else
              let xs = List.map snd va and ys = List.map snd vb in
              let q1a, ma, q3a = quartiles xs and q1b, mb, q3b = quartiles ys in
              let v = verdict ~higher ~bound xs ys in
              if v = "REGRESSED" then ok := false;
              let wins, n, gain = paired_gain ~higher va vb in
              Printf.sprintf
                "%s %.4g [%.4g..%.4g] -> %.4g [%.4g..%.4g] %+.1f%% (spread %.1f%%/%.1f%%, \
                 bound %.0f%%) %s, wins %d/%d%s"
                name ma q1a q3a mb q1b q3b
                (100.0 *. (mb -. ma) /. ma)
                (100.0 *. spread xs) (100.0 *. spread ys) (100.0 *. bound) v wins n
                (if gain then " GAIN" else ""))
          e2e
      in
      let changed =
        List.filter
          (fun d ->
            let vb = values_of b ~workload:w ~trace:true d.Metric.name in
            List.exists
              (fun (s, x) -> match List.assoc_opt s vb with Some y -> x <> y | None -> false)
              (values_of a ~workload:w ~trace:true d.Metric.name))
          exact
      in
      let incorrect runs =
        List.length (List.filter (fun r -> r.workload = w && not r.correct) runs)
      in
      if changed <> [] || incorrect a + incorrect b > 0 then ok := false;
      Printf.printf "%s | %s | exact: %s | incorrect runs: %d/%d\n" w
        (String.concat " | " cells)
        (match changed with
        | [] -> "identical per seed"
        | l -> "CHANGED " ^ String.concat "," (List.map (fun d -> d.Metric.name) l))
        (incorrect a) (incorrect b))
    (workloads_of a);
  !ok

(* Per workload: the medians of the end-to-end metrics, and the median
   share of every layer the workload exercises. *)
let medians runs =
  List.map
    (fun w ->
      let med trace name = median (List.map snd (values_of runs ~workload:w ~trace name)) in
      let e2e = List.map (fun d -> (d.Metric.name, med false d.Metric.name)) Metric.end_to_end in
      let shares =
        List.filter_map
          (fun (l, _) ->
            let m = med true (Metric.share_name l) in
            if m > 0.0 then Some (l, m) else None)
          Metric.layers
      in
      (w, e2e, shares))
    (workloads_of runs)

let summary runs =
  List.iter
    (fun (w, e2e, shares) ->
      let top =
        List.sort (fun (_, x) (_, y) -> compare y x) shares |> List.filteri (fun i _ -> i < 4)
      in
      Printf.printf "%-16s %s | top layers: %s\n" w
        (String.concat "  " (List.map (fun (n, v) -> Printf.sprintf "%s %.4g" n v) e2e))
        (String.concat ", "
           (List.map (fun (n, v) -> Printf.sprintf "%s %.0f%%" n (100.0 *. v)) top)))
    (medians runs)

let trajectory ~commit runs =
  J.Obj
    [
      ("commit", J.Str commit);
      ( "workloads",
        J.Obj
          (List.map
             (fun (w, e2e, shares) ->
               ( w,
                 J.Obj
                   (List.map (fun (n, v) -> (n, J.Num v)) e2e
                   @ [ ("shares", J.Obj (List.map (fun (n, v) -> (n, J.Num v)) shares)) ]
                   ) ))
             (medians runs)) );
    ]
