open San_util

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_split_independent () =
  let parent = Prng.create 7 in
  let child = Prng.split parent in
  let c1 = Prng.next_int64 child in
  (* Drawing from the parent must not disturb the child's stream. *)
  let parent2 = Prng.create 7 in
  let child2 = Prng.split parent2 in
  ignore (Prng.next_int64 parent2);
  Alcotest.(check int64) "child stream stable" c1 (Prng.next_int64 child2)

let test_prng_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 17);
    let w = Prng.int_in rng (-5) 5 in
    Alcotest.(check bool) "int_in range" true (w >= -5 && w <= 5);
    let f = Prng.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_prng_uniformity () =
  let rng = Prng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let b = Prng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket within 15% of uniform" true
        (abs (c - (n / 10)) < n * 15 / 100))
    buckets

let test_shuffle_is_permutation () =
  let rng = Prng.create 5 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_exponential_mean () =
  let rng = Prng.create 9 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential rng 3.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.0) < 0.15)

(* Arrival times of [a] read to each horizon in turn; each arrival
   also draws a uniform pick from [rng], as the traffic injectors do. *)
let read_arrivals rng a horizons =
  let out = ref [] in
  List.iter
    (fun h ->
      Prng.arrivals_before a h (fun t -> out := (t, Prng.int rng 10) :: !out))
    horizons;
  List.rev !out

(* The loop the stream replaced: the first gap drawn up front, each
   next gap after the arrival's own draws. *)
let reference_arrivals rng ~mean_gap horizon =
  let out = ref [] in
  let t = ref (Prng.exponential rng mean_gap) in
  while !t < horizon do
    out := (!t, Prng.int rng 10) :: !out;
    t := !t +. Prng.exponential rng mean_gap
  done;
  List.rev !out

let test_arrivals_resume () =
  let read horizons =
    let rng = Prng.create 3 in
    read_arrivals rng (Prng.arrivals rng ~mean_gap:2.0) horizons
  in
  let once = read [ 50.0 ] in
  Alcotest.(check bool) "some arrivals" true (List.length once > 10);
  Alcotest.(check (list (pair (float 0.0) int)))
    "to 20 then 50 = to 50" once (read [ 20.0; 50.0 ]);
  Alcotest.(check (list (pair (float 0.0) int)))
    "in steps = to 50" once
    (read [ 5.0; 5.0; 12.5; 30.0; 49.0; 50.0 ]);
  Alcotest.(check (list (pair (float 0.0) int)))
    "the hand-rolled loop's draws" once
    (reference_arrivals (Prng.create 3) ~mean_gap:2.0 50.0)

let test_arrivals_zero_rate () =
  let rng = Prng.create 4 in
  let a = Prng.arrivals rng ~mean_gap:infinity in
  Alcotest.(check int) "no arrivals" 0
    (List.length (read_arrivals rng a [ 1e6; 1e12; Float.max_float ]))

(* The allocation counter the pins read: exact for nothing, for small
   blocks and for blocks the major heap takes directly. *)
let test_alloc_counter () =
  let sink = ref [||] in
  Alcotest.(check (float 0.0)) "nothing" 0.0 (Alloc.words (fun () -> ()));
  Alcotest.(check (float 0.0))
    "ten 200-word arrays" 2010.0
    (Alloc.words (fun () ->
         for _ = 1 to 10 do
           sink := Array.make 200 0
         done));
  Alcotest.(check (float 0.0))
    "ten 300-word arrays" 3010.0
    (Alloc.words (fun () ->
         for _ = 1 to 10 do
           sink := Array.make 300 0
         done));
  ignore (Sys.opaque_identity !sink)

let test_fifo_order () =
  let q = Fifo.create () in
  Alcotest.(check bool) "empty" true (Fifo.is_empty q);
  Fifo.add q 1;
  Fifo.add q 2;
  Fifo.add q 3;
  Alcotest.(check int) "length" 3 (Fifo.length q);
  Alcotest.(check (option int)) "peek" (Some 1) (Fifo.peek q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Fifo.next_element q);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Fifo.next_element q);
  Fifo.add q 4;
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Fifo.next_element q);
  Alcotest.(check (option int)) "fifo 4" (Some 4) (Fifo.next_element q);
  Alcotest.(check (option int)) "drained" None (Fifo.next_element q)

let test_fifo_to_list () =
  let q = Fifo.create () in
  List.iter (Fifo.add q) [ "a"; "b"; "c" ];
  Alcotest.(check (list string)) "to_list order" [ "a"; "b"; "c" ] (Fifo.to_list q)

let test_summary () =
  let s = Summary.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Summary.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Summary.max;
  Alcotest.(check (float 1e-9)) "avg" 2.5 s.Summary.avg;
  Alcotest.(check int) "n" 4 s.Summary.n;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 1.25) s.Summary.stddev

let test_summary_percentile () =
  let samples = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "median" 50.0 (Summary.percentile samples 0.5);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Summary.percentile samples 0.99);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Summary.percentile samples 1.0)

let test_summary_empty () =
  Alcotest.check_raises "empty rejected" (Invalid_argument "Summary.of_list: empty")
    (fun () -> ignore (Summary.of_list []))

let test_table_render () =
  let t = Tablefmt.create ~header:[ "a"; "long-header"; "c" ] in
  Tablefmt.add_row t [ "1"; "2" ];
  Tablefmt.add_row t [ "wide-cell"; "3"; "4" ];
  let s = Tablefmt.render t in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: sep :: _ ->
    Alcotest.(check bool) "header first" true
      (String.length header > 0 && String.sub header 0 1 = "a");
    Alcotest.(check bool) "separator dashes" true (String.contains sep '-')
  | _ -> Alcotest.fail "too few lines");
  Alcotest.(check int) "line count" 5 (List.length lines)

(* ---------- json ---------- *)

let test_json_roundtrip () =
  let open Json in
  let v =
    Obj
      [ ("name", Str "weird \"name\"\nwith\tescapes\\");
        ("count", int 42);
        ("pi", Num 3.25);
        ("flag", Bool true);
        ("nothing", Null);
        ("items", Arr [ int 1; Str "two"; Arr []; Obj [] ]) ]
  in
  (match of_string (to_string v) with
  | Ok v' -> Alcotest.(check bool) "pretty round trip" true (v = v')
  | Error e -> Alcotest.fail e);
  match of_string (to_string ~pretty:false v) with
  | Ok v' -> Alcotest.(check bool) "compact round trip" true (v = v')
  | Error e -> Alcotest.fail e

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted garbage: %s" bad)
    [ "{"; "[1,2"; "\"unterminated"; "12x"; "{\"a\" 1}"; "[] []"; "" ]

let test_json_accessors () =
  let open Json in
  let v = Obj [ ("a", int 7); ("b", Str "x"); ("c", Arr [ int 1 ]) ] in
  Alcotest.(check (option int)) "int member" (Some 7)
    (Option.bind (member "a" v) to_int);
  Alcotest.(check (option string)) "str member" (Some "x")
    (Option.bind (member "b" v) to_str);
  Alcotest.(check bool) "arr member" true
    (Option.bind (member "c" v) to_arr = Some [ int 1 ]);
  Alcotest.(check (option int)) "missing member" None
    (Option.bind (member "zz" v) to_int);
  Alcotest.(check (option int)) "float not int" None (to_int (Num 1.5))

let test_json_number_forms () =
  List.iter
    (fun (text, expect) ->
      match Json.of_string text with
      | Ok (Json.Num f) -> Alcotest.(check (float 1e-9)) text expect f
      | _ -> Alcotest.failf "failed to parse %s" text)
    [ ("0", 0.0); ("-17", -17.0); ("3.5", 3.5); ("1e3", 1000.0); ("-2.5e-1", -0.25) ]

let () =
  Alcotest.run "san_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "arrivals resume" `Quick test_arrivals_resume;
          Alcotest.test_case "arrivals at a zero rate" `Quick
            test_arrivals_zero_rate;
        ] );
      ("alloc", [ Alcotest.test_case "counter" `Quick test_alloc_counter ]);
      ( "fifo",
        [
          Alcotest.test_case "order" `Quick test_fifo_order;
          Alcotest.test_case "to_list" `Quick test_fifo_to_list;
        ] );
      ( "summary",
        [
          Alcotest.test_case "aggregates" `Quick test_summary;
          Alcotest.test_case "percentile" `Quick test_summary_percentile;
          Alcotest.test_case "empty" `Quick test_summary_empty;
        ] );
      ("tablefmt", [ Alcotest.test_case "render" `Quick test_table_render ]);
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "numbers" `Quick test_json_number_forms;
        ] );
    ]
