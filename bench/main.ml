(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation (§5), printing our measured values next to the
   numbers the paper reports, then runs ablation studies over the
   design choices called out in DESIGN.md.

   Usage: dune exec bench/main.exe [-- --only fig6,fig10] [--runs N]
          [--fast] [--scale-100k] [--csv DIR]

   Each section returns its results as rows of cells. The printed
   tables, the BENCH_obs.json entries and the CSV files are all read
   from those rows, and the baseline gates compare single cells with
   recorded files.                                                      *)

open San_topology
open San_simnet
open San_mapper
module T = San_util.Tablefmt
module J = San_util.Json

type config = {
  runs : int;  (** Figure 7's runs per system outside [fast] *)
  fast : bool;
  only : string list;  (** sections to run; [] runs them all *)
  csv_dir : string option;
  scale_100k : bool;
}

(* ------------------------------------------------------------------ *)
(* Result rows                                                          *)

(* One result: a table column when it has a [head], a BENCH_obs.json
   field and CSV column when it has a [key]. [text] is its printed
   form, [json] its exported value. *)
type cell = {
  head : string option;
  key : string option;
  text : string;
  json : J.t;
}

let cell ?head ?key text json = { head; key; text; json }
let int ?head ?key n = cell ?head ?key (string_of_int n) (J.int n)
let num ?head ?key fmt x = cell ?head ?key (Printf.sprintf fmt x) (J.Num x)
let str ?head ?key s = cell ?head ?key s (J.Str s)

let flag ?head ?key ?(yes = "yes") ?(no = "NO") b =
  cell ?head ?key (if b then yes else no) (J.Bool b)

(* [at] is where the row's keyed cells go in the section's
   BENCH_obs.json entry; a row without one is only printed and written
   as CSV. A row with no headed cell is not printed. *)
type row = { at : string list option; cells : cell list }

let row ?at cells = { at; cells }

let strings header =
  List.map (fun texts ->
      row (List.mapi (fun i s -> str ~head:(List.nth header i) s) texts))

(* A baseline gate: the cell [key] of the row at [at] must stay within
   [band] of the number at the key path [base] of the JSON file [file].
   A missing or unreadable baseline fails the gate. *)
type band =
  | Floor of float  (** at least this multiple of the baseline *)
  | Ceiling of float  (** at most this multiple of the baseline *)
  | Within of float  (** within this absolute distance of it *)

type gate = {
  g_at : string list;
  g_key : string;
  g_file : string;
  g_base : string list;
  g_band : band;
}

let gate ~file ~base band at key =
  { g_at = at; g_key = key; g_file = file; g_base = base; g_band = band }

type table = {
  title : string;
  rows : row list;
  notes : string list;  (** printed under the table *)
  levels : string list;  (** names of the rows' [at] levels *)
  csv : string list;  (** keys written after the levels to DIR/SECTION.csv *)
  gates : gate list;
}

type block =
  | Table of table
  | Line of string
  | Data of row list  (** exported, never printed *)

let table ?(notes = []) ?(levels = []) ?(csv = []) ?(gates = []) title rows =
  Table { title; rows; notes; levels; csv; gates }

(* What a section returns: its output in print order, and the checks it
   failed beyond its baseline gates. *)
type out = { blocks : block list; failures : string list }

let tables blocks = { blocks; failures = [] }

(* ------------------------------------------------------------------ *)
(* Rendering, CSV and gates                                             *)

let keyed k r = List.find_opt (fun c -> c.key = Some k) r.cells

let print_table t =
  let shown r = List.filter (fun c -> c.head <> None) r.cells in
  let widest =
    List.fold_left
      (fun h r -> if List.length (shown r) > List.length h then shown r else h)
      [] t.rows
  in
  let tb = T.create ~header:(List.filter_map (fun c -> c.head) widest) in
  List.iter
    (fun r ->
      match shown r with
      | [] -> ()
      | cs -> T.add_row tb (List.map (fun c -> c.text) cs))
    t.rows;
  T.print ~title:t.title tb;
  List.iter print_endline t.notes

let write_csv dir name t =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (name ^ ".csv") in
  let line r =
    (if t.levels = [] then [] else Option.get r.at)
    @ List.map
        (fun k -> Option.fold ~none:"" ~some:(fun c -> c.text) (keyed k r))
        t.csv
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun l -> output_string oc (String.concat "," l ^ "\n"))
        ((t.levels @ t.csv) :: List.map line t.rows));
  Printf.printf "(wrote %s)\n" path

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> J.of_string s
  | exception Sys_error e -> Error e

let number path j =
  match List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path with
  | Some (J.Num f) -> Some f
  | _ -> None

(* [None] when [g] holds over [rows], else why it does not. *)
let check_gate rows g =
  let dotted = String.concat "." in
  let what = dotted (g.g_at @ [ g.g_key ]) in
  let current =
    List.find_map
      (fun r ->
        if r.at <> Some g.g_at then None
        else
          match keyed g.g_key r with
          | Some { json = J.Num f; _ } -> Some f
          | _ -> None)
      rows
  in
  match (current, read_json g.g_file) with
  | None, _ -> Some (Printf.sprintf "no %s in the results" what)
  | _, Error e -> Some (Printf.sprintf "cannot read baseline %s: %s" g.g_file e)
  | Some cur, Ok j -> (
    match number g.g_base j with
    | None ->
      Some (Printf.sprintf "no number %s in %s" (dotted g.g_base) g.g_file)
    | Some base ->
      let ok, bound =
        match g.g_band with
        | Floor r -> (cur >= base *. r, Printf.sprintf "under %gx" r)
        | Ceiling r -> (cur <= base *. r, Printf.sprintf "over %gx" r)
        | Within d ->
          (Float.abs (cur -. base) <= d, Printf.sprintf "more than %g from" d)
      in
      if ok then None
      else
        Some
          (Printf.sprintf "%s %g is %s the baseline %g (%s)" what cur bound base
             g.g_file))

let check_gates name t =
  let failed =
    List.sort_uniq compare (List.filter_map (check_gate t.rows) t.gates)
  in
  List.iter (Printf.printf "%s gate FAILED: %s\n" name) failed;
  let points = List.sort_uniq compare (List.map (fun g -> g.g_at) t.gates) in
  if points <> [] && failed = [] then
    Printf.printf "%s gate ok: %d %s point%s within the baseline bands\n" name
      (List.length points) (String.concat "/" t.levels)
      (if List.length points = 1 then "" else "s");
  failed

let emit cfg name = function
  | Line l ->
    print_endline l;
    []
  | Data _ -> []
  | Table t ->
    print_table t;
    (match cfg.csv_dir with
    | Some dir when t.csv <> [] -> write_csv dir name t
    | _ -> ());
    check_gates name t

(* The rows' keyed cells as one JSON object, nested along their [at]. *)
let rows_json rows =
  let rec put at fields o =
    match at with
    | [] -> o @ fields
    | k :: rest ->
      let sub = match List.assoc_opt k o with Some (J.Obj l) -> l | _ -> [] in
      let v = J.Obj (put rest fields sub) in
      if List.mem_assoc k o then
        List.map (fun (k', v') -> (k', if k = k' then v else v')) o
      else o @ [ (k, v) ]
  in
  let fields r =
    List.filter_map (fun c -> Option.map (fun k -> (k, c.json)) c.key) r.cells
  in
  List.fold_left
    (fun o r -> match r.at with None -> o | Some at -> put at (fields r) o)
    [] rows

let now = Unix.gettimeofday

(* Best-of-[n] host wall seconds of each thunk. The thunks run
   round-robin, so slow drifts in machine load hit them alike, and
   best-of filters one unlucky scheduler hiccup. *)
let best_of n fs =
  let best = Array.map (fun _ -> infinity) fs in
  for _ = 1 to n do
    Array.iteri
      (fun i f ->
        let t0 = now () in
        f ();
        best.(i) <- Float.min best.(i) (now () -. t0))
      fs
  done;
  best

let fmt_ms ns = Printf.sprintf "%.0f" (ns /. 1e6)
let fmt_pct x = Printf.sprintf "%.0f%%" (100.0 *. x)

let mapper_of g name = Option.get (Graph.host_by_name g name)

let systems () =
  [
    ("C", fst (Generators.now_c ()));
    ("C+A", fst (Generators.now_ca ()));
    ("C+A+B", fst (Generators.now_cab ()));
  ]

(* [map] checked against the network [g], or with [~core] against its
   core N - F (Theorem 1): all that anonymous switches let a mapper see. *)
let iso ?(core = false) g map =
  Iso.check ~map ~actual:g
    ?exclude:(if core then Some (Core_set.separated_set g) else None)
    ()

let verdict ?core ?(ok = "correct") ?(bad = fun _ -> "WRONG")
    ?(failed = "failed: ") g = function
  | Ok m -> if Result.is_ok (iso ?core g m) then ok else bad m
  | Error e -> failed ^ e

let stats m = Format.asprintf "%a" Graph.pp_stats m

(* The Berkeley mapper run from the NOW's utility host. *)
let map_now ?policy ?record_trace g =
  Berkeley.run ?policy ?record_trace (Network.create g)
    ~mapper:(mapper_of g "C-util")

(* A San_fabric preset built at seed 1, its first host as the mapper,
   and the generator's suggested depth. *)
let preset name =
  let p = Option.get (San_fabric.Fabric.find_preset name) in
  let g = p.San_fabric.Fabric.p_build ~seed:1 in
  (g, List.hd (Graph.hosts g), Option.get p.San_fabric.Fabric.p_depth)

(* ------------------------------------------------------------------ *)
(* Figure 3: subcluster components                                      *)

let fig3 _ =
  tables
    [
      table "Figure 3 — A, B, C subcluster components"
        (strings
           [ "subcluster"; "interfaces"; "paper"; "switches"; "paper"; "links";
             "paper" ]
           (List.map
              (fun (name, spec, (ph, ps, pl)) ->
                let g, _ = Generators.subcluster spec in
                name
                :: List.map string_of_int
                     [ Graph.num_hosts g; ph; Graph.num_switches g; ps;
                       Graph.num_wires g; pl ])
              [
                ("A", Generators.spec_a, (34, 13, 64));
                ("B", Generators.spec_b, (30, 14, 65));
                ("C", Generators.spec_c, (36, 13, 64));
              ]));
    ]

(* ------------------------------------------------------------------ *)
(* Figures 4 & 5: the maps themselves                                   *)

let fig45 _ =
  let one fig name g =
    let r = map_now g in
    let mapped, verified =
      match r.Berkeley.map with
      | Error e -> ("-", "export failed: " ^ e)
      | Ok m ->
        ( stats m,
          match iso ~core:true g m with
          | Ok () -> "isomorphic to N - F"
          | Error e -> "MISMATCH " ^ e )
    in
    [ fig; name; mapped; string_of_int r.Berkeley.explorations; verified ]
  in
  tables
    [
      table
        "Figures 4 & 5 — automatically generated maps (DOT via \
         examples/now_cluster.exe)"
        (strings
           [ "figure"; "network"; "mapped"; "explorations"; "verified" ]
           [
             one "fig 4" "C subcluster" (fst (Generators.now_c ()));
             one "fig 5" "100-node NOW" (fst (Generators.now_cab ()));
           ]);
    ]

(* ------------------------------------------------------------------ *)
(* Figure 6: probe counts and hit ratios                                *)

let fig6 _ =
  let paper =
    [ ("C", (200, 107, 250, 157)); ("C+A", (412, 216, 491, 295));
      ("C+A+B", (804, 324, 1207, 727)) ]
  in
  let ratio hits probes =
    fmt_pct (float_of_int hits /. float_of_int (max 1 probes))
  in
  tables
    [
      table "Figure 6 — host and switch probe message hit ratios"
        (strings
           [ "system"; "host"; "hits"; "ratio"; "paper";
             "switch"; "hits"; "ratio"; "paper" ]
           (List.map
              (fun (name, g) ->
                let r = map_now g in
                let ph, phh, ps, psh = List.assoc name paper in
                [
                  name;
                  string_of_int r.Berkeley.host_probes;
                  string_of_int r.Berkeley.host_hits;
                  ratio r.Berkeley.host_hits r.Berkeley.host_probes;
                  Printf.sprintf "%d/%d (%d%%)" ph phh (100 * phh / ph);
                  string_of_int r.Berkeley.switch_probes;
                  string_of_int r.Berkeley.switch_hits;
                  ratio r.Berkeley.switch_hits r.Berkeley.switch_probes;
                  Printf.sprintf "%d/%d (%d%%)" ps psh (100 * psh / ps);
                ])
              (systems ())));
    ]

(* ------------------------------------------------------------------ *)
(* Figure 7: mapping times, master vs election                          *)

let fig7 cfg =
  let n = if cfg.fast then 6 else cfg.runs in
  let paper =
    [ ("C", ("248 / 256 / 265", "277 / 278 / 282"));
      ("C+A", ("499 / 522 / 555", "569 / 577 / 587"));
      ("C+A+B", ("981 / 1011 / 1208", "1065 / 1298 / 3332")) ]
  in
  let summary l =
    Format.asprintf "%a" San_util.Summary.pp_ms (San_util.Summary.of_list l)
  in
  let jrng = San_util.Prng.create 99 in
  let rows =
    List.map
      (fun (name, g) ->
        let mapper = mapper_of g "C-util" in
        let master =
          List.init n (fun _ ->
              let net = Network.create ~jitter:(0.08, jrng) g in
              (Berkeley.run net ~mapper).Berkeley.elapsed_ns)
        in
        let erng = San_util.Prng.create 7 in
        let election =
          List.init n (fun _ ->
              let net = Network.create ~jitter:(0.08, jrng) g in
              (Election.run ~rng:erng net).Election.total_ns)
        in
        let pm, pe = List.assoc name paper in
        [ name; summary master; pm; summary election; pe ])
      (systems ())
  in
  tables
    [
      table
        (Printf.sprintf
           "Figure 7 — mapping times (min / avg / max over %d runs), one master \
            vs election" n)
        (strings
           [ "system"; "master (ms)"; "paper"; "election (ms)"; "paper" ] rows);
    ]

(* ------------------------------------------------------------------ *)
(* Figure 8: model graph growth over switch explorations                *)

let fig8 _ =
  let g, _ = Generators.now_cab () in
  let r = map_now ~record_trace:true g in
  (* The CSV holds every exploration; the table every 16th. *)
  let every = max 1 (r.Berkeley.explorations / 16) in
  let rows =
    List.map
      (fun (p : Berkeley.trace_point) ->
        let shown =
          p.Berkeley.step mod every = 0 || p.Berkeley.step = r.Berkeley.explorations
        in
        let c head key = int ?head:(if shown then Some head else None) ~key in
        row
          [
            c "exploration" "exploration" p.Berkeley.step;
            c "model nodes" "model_nodes" p.Berkeley.live_nodes;
            c "model edges" "model_edges" p.Berkeley.live_edges;
            c "frontier" "frontier" p.Berkeley.frontier_length;
            c "hosts found" "hosts_found" p.Berkeley.hosts_found;
          ])
      r.Berkeley.trace
  in
  let peak =
    List.fold_left
      (fun acc (p : Berkeley.trace_point) -> max acc p.Berkeley.live_nodes)
      0 r.Berkeley.trace
  in
  tables
    [
      table "Figure 8 — model graph size vs switch explorations (C+A+B)" rows
        ~csv:
          [ "exploration"; "model_nodes"; "model_edges"; "frontier"; "hosts_found" ]
        ~notes:
          [
            Printf.sprintf
              "created %d model vertices in total (paper: ~750); peak live %d; \
               merged and pruned to %d = the 140 actual nodes (paper: 140)"
              r.Berkeley.created_vertices peak r.Berkeley.live_vertices;
          ];
    ]

(* ------------------------------------------------------------------ *)
(* Figure 9: map time vs number of responding daemons                   *)

let fig9 cfg =
  let g, _ = Generators.now_cab () in
  let mapper = mapper_of g "C-util" in
  let counts =
    if cfg.fast then [ 1; 20; 37; 71; 100 ]
    else [ 1; 5; 10; 15; 20; 36; 37; 50; 70; 71; 85; 100 ]
  in
  let seq = Population.sweep ~order:Population.Sequential ~counts g ~mapper in
  let rnd =
    Population.sweep
      ~order:(Population.Random (San_util.Prng.create 3))
      ~counts g ~mapper
  in
  let s (p : Population.point) = p.Population.map_time_ns /. 1e9 in
  let rows =
    List.map2
      (fun (a : Population.point) (b : Population.point) ->
        row
          [
            int ~head:"daemons" ~key:"daemons" a.Population.responders;
            num ~head:"seq (s)" "%.2f" (s a);
            num ~key:"sequential_s" "%.3f" (s a);
            int ~head:"seq probes" a.Population.probes;
            num ~head:"random (s)" "%.2f" (s b);
            num ~key:"random_s" "%.3f" (s b);
            int ~head:"random probes" b.Population.probes;
          ])
      seq rnd
  in
  let time_of pts k =
    (List.find (fun p -> p.Population.responders = k) pts).Population.map_time_ns
  in
  let full = time_of seq 100 in
  tables
    [
      table
        "Figure 9 — time to map the 40-switch fabric vs hosts running a mapper \
         daemon (sequential vs random placement)"
        rows ~csv:[ "daemons"; "sequential_s"; "random_s" ]
        ~notes:
          [
            Printf.sprintf
              "speedup 1 -> 100 daemons: %.1fx (paper: ~8x); random placement \
               with 15 daemons is %.1fx of the minimum (paper: within 2x \
               after 15)"
              (time_of seq 1 /. full)
              (try time_of rnd 15 /. full
               with Not_found -> time_of rnd 20 /. full);
          ];
    ]

(* ------------------------------------------------------------------ *)
(* Figure 10: the Myricom algorithm                                     *)

let fig10 _ =
  let paper =
    [ ("C", (134, 713, 152, 450, 1449, 1414));
      ("C+A", (283, 1484, 329, 1234, 3330, 2197));
      ("C+A+B", (424, 2293, 611, 5089, 8413, 4009)) ]
  in
  let paper_ratio =
    [ ("C", (3.2, 5.5)); ("C+A", (3.6, 3.9)); ("C+A+B", (5.4, 3.9)) ]
  in
  let rows =
    List.map
      (fun (name, g) ->
        let mapper = mapper_of g "C-util" in
        let rm = San_myricom.Myricom.run g ~mapper in
        let rb = Berkeley.run (Network.create g) ~mapper in
        let c = rm.San_myricom.Myricom.counts in
        let _, _, _, _, pt, ptime = List.assoc name paper in
        let pmr, ptr = List.assoc name paper_ratio in
        [
          name;
          string_of_int c.San_myricom.Myricom.loop_probes;
          string_of_int c.San_myricom.Myricom.host_probes;
          string_of_int c.San_myricom.Myricom.switch_probes;
          string_of_int c.San_myricom.Myricom.compare_probes;
          string_of_int (San_myricom.Myricom.total c);
          string_of_int pt;
          fmt_ms rm.San_myricom.Myricom.elapsed_ns;
          string_of_int ptime;
          Printf.sprintf "%.1fx"
            (float_of_int (San_myricom.Myricom.total c)
            /. float_of_int (Berkeley.total_probes rb));
          Printf.sprintf "%.1fx" pmr;
          Printf.sprintf "%.1fx"
            (rm.San_myricom.Myricom.elapsed_ns /. rb.Berkeley.elapsed_ns);
          Printf.sprintf "%.1fx" ptr;
        ])
      (systems ())
  in
  tables
    [
      table "Figure 10 — Myricom Algorithm performance summary"
        (strings
           [ "system"; "loop"; "host"; "sw"; "comp"; "total"; "paper total";
             "time(ms)"; "paper"; "msgs vs B"; "paper"; "time vs B"; "paper" ]
           rows);
    ]

(* ------------------------------------------------------------------ *)
(* §5.5: deadlock-free route computation                                *)

let routes_section _ =
  let maps () =
    List.map (fun (name, g) -> (name, g, (map_now g).Berkeley.map)) (systems ())
  in
  let computed =
    List.map
      (fun (name, g, map) ->
        match map with
        | Error e -> [ name; "map failed: " ^ e ]
        | Ok map ->
          let util = Graph.host_by_name map "C-util" in
          let rng = San_util.Prng.create 17 in
          let table =
            San_routing.Routes.compute ~rng ~ignore_hosts:(Option.to_list util)
              map
          in
          let st = San_routing.Routes.length_stats table in
          [
            name;
            string_of_int st.San_routing.Routes.pairs;
            Printf.sprintf "%d / %.2f / %d" st.San_routing.Routes.min_len
              st.San_routing.Routes.avg_len st.San_routing.Routes.max_len;
            (match San_routing.Routes.verify_delivery ~against:g table with
            | Ok () -> "ok (on actual net)"
            | Error e -> e);
            (match San_routing.Deadlock.check_routes table with
            | Ok () -> "acyclic CDG"
            | Error e -> e);
            (match San_routing.Routes.channel_loads table with
            | (_, l) :: _ -> string_of_int l ^ " routes"
            | [] -> "-");
            string_of_int
              (List.length
                 (San_routing.Updown.relabeled (San_routing.Routes.updown table)));
          ])
      (maps ())
  in
  (* Route distribution: each host's slice travels in-band as one worm
     along the leader's fresh route to it. *)
  let distributed =
    List.filter_map
      (fun (name, g, map) ->
        match map with
        | Error _ -> None
        | Ok map ->
          let table = San_routing.Routes.compute map in
          let p = San_routing.Distribute.plan table in
          let leader = mapper_of g "C-util" in
          Some
            (match San_routing.Distribute.simulate table ~actual:g ~leader with
            | Ok rep ->
              [
                name;
                string_of_int (List.length p.San_routing.Distribute.slices);
                string_of_int p.San_routing.Distribute.total_bytes;
                string_of_int rep.San_routing.Distribute.hosts_updated;
                string_of_int rep.San_routing.Distribute.hosts_missed;
                fmt_ms rep.San_routing.Distribute.duration_ns;
              ]
            | Error e -> [ name; "failed: " ^ e ]))
      (maps ())
  in
  tables
    [
      table
        "§5.5 — UP*/DOWN* routes computed from the map, delivered on the actual \
         network"
        (strings
           [ "network"; "pairs"; "turns min/avg/max"; "delivery"; "deadlock-free";
             "hottest channel"; "relabelled" ]
           computed);
      table
        "§5.5 — in-band route distribution (per-host slices as worms over the \
         event simulator)"
        (strings
           [ "network"; "slices"; "table bytes"; "updated"; "missed";
             "duration (ms)" ]
           distributed);
    ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)

let ablation_policy () =
  let g, _ = Generators.now_cab () in
  let run name policy =
    let r = map_now ~policy g in
    [
      name;
      string_of_int (Berkeley.total_probes r);
      string_of_int r.Berkeley.explorations;
      fmt_ms r.Berkeley.elapsed_ns;
      verdict g r.Berkeley.map;
    ]
  in
  table
    "Ablation — §3.3.3 probe-elimination tricks on C+A+B (the paper \
     conjectures ~2x savings)"
    (strings
       [ "policy"; "probes"; "explorations"; "time (ms)"; "map" ]
       [
         run "faithful (all tricks)" Berkeley.faithful;
         run "no window pruning"
           { Berkeley.faithful with window_pruning = false };
         run "no known-slot skip" { Berkeley.faithful with skip_known = false };
         run "host-probe first"
           { Berkeley.faithful with host_probe_first = true };
       ])

let ablation_model () =
  let run name g mapper_name model =
    let net = Network.create ~model g in
    let r = Berkeley.run net ~mapper:(mapper_of g mapper_name) in
    [
      name;
      Collision.model_to_string model;
      string_of_int (Berkeley.total_probes r);
      string_of_int r.Berkeley.switch_hits;
      verdict ~core:true g r.Berkeley.map;
    ]
  in
  let gc = fst (Generators.now_c ()) in
  let torus = Generators.torus ~rows:3 ~cols:3 () in
  table
    "Ablation — §2.3.1 collision models (cut-through lets some self-reusing \
     probes through: a super-tree of responses)"
    (strings
       [ "network"; "model"; "probes"; "switch hits"; "map" ]
       [
         run "C" gc "C-util" Collision.Circuit;
         run "C" gc "C-util" Collision.Cut_through;
         run "torus 3x3" torus "h0-0" Collision.Circuit;
         run "torus 3x3" torus "h0-0" Collision.Cut_through;
       ])

let ablation_depth () =
  let g, _ = Generators.now_cab () in
  let mapper = mapper_of g "C-util" in
  let oracle = Core_set.search_depth g ~root:mapper in
  table
    "Ablation — exploration depth on C+A+B (completeness needs 7 = \
     switch-eccentricity+2; the proof bound is safe but deep)"
    (strings
       [ "depth"; "probes"; "switches mapped"; "isomorphic" ]
       (List.map
          (fun d ->
            let net = Network.create g in
            let r = Berkeley.run ~depth:(Berkeley.Fixed d) net ~mapper in
            [
              (if d = oracle then Printf.sprintf "%d (oracle Q+D+1)" d
               else string_of_int d);
              string_of_int (Berkeley.total_probes r);
              (match r.Berkeley.map with
              | Ok m -> string_of_int (Graph.num_switches m)
              | Error _ -> "-");
              verdict ~ok:"yes" ~bad:(fun _ -> "no") ~failed:"export failed: " g
                r.Berkeley.map;
            ])
          [ 4; 5; 6; 7; 8; oracle ]))

let ablation_myricom_window () =
  let g, _ = Generators.now_ca () in
  let mapper = mapper_of g "C-util" in
  table
    "Ablation — Myricom comparison-window heuristic on C+A (narrower = \
     fewer probes, risk of unmerged replicates)"
    (strings
       [ "compare window"; "compare probes"; "total"; "map" ]
       (List.map
          (fun w ->
            let r = San_myricom.Myricom.run ~compare_depth_window:w g ~mapper in
            let c = r.San_myricom.Myricom.counts in
            [
              (if w > 50 then "unbounded" else string_of_int w);
              string_of_int c.San_myricom.Myricom.compare_probes;
              string_of_int (San_myricom.Myricom.total c);
              verdict g r.San_myricom.Myricom.map;
            ])
          [ 0; 1; 2; 3; 100 ]))

let ablation_updown_root () =
  let g, _ = Generators.now_cab () in
  let util = Graph.host_by_name g "C-util" in
  let run name root labeling =
    let table =
      San_routing.Routes.compute ?root ~ignore_hosts:(Option.to_list util)
        ~labeling g
    in
    let st = San_routing.Routes.length_stats table in
    let sound =
      Result.is_ok (San_routing.Routes.verify_delivery table)
      && Result.is_ok (San_routing.Deadlock.check_routes table)
    in
    [
      name;
      Printf.sprintf "%.2f%s" st.San_routing.Routes.avg_len
        (if sound then "" else " UNSOUND");
      string_of_int st.San_routing.Routes.max_len;
      (match San_routing.Routes.channel_loads table with
      | (_, l) :: _ -> string_of_int l
      | [] -> "-");
    ]
  in
  table
    "Ablation — UP*/DOWN* root and labelling on the NOW (the paper: \
     goodness is highly topology-dependent; DFS spreads root load)"
    (strings
       [ "root policy"; "avg turns"; "max"; "hottest channel" ]
       [
         run "farthest-from-hosts, BFS (paper)" None San_routing.Updown.Bfs;
         run "arbitrary leaf switch, BFS" (Some (List.hd (Graph.switches g)))
           San_routing.Updown.Bfs;
         run "farthest-from-hosts, DFS preorder" None San_routing.Updown.Dfs;
       ])

(* ------------------------------------------------------------------ *)
(* Event-driven wormhole validation                                     *)

let eventsim_section _ =
  let us ns = Printf.sprintf "%.0f us" (ns /. 1e3) in
  let storm g routes ~payload_bytes =
    let sim = Event_sim.create g in
    List.iter
      (fun (src, turns) ->
        ignore (Event_sim.inject sim ~at_ns:0.0 ~src ~turns ~payload_bytes ()))
      routes;
    Event_sim.run sim;
    Event_sim.stats sim
  in
  let counts st =
    List.map string_of_int
      [ st.Event_sim.injected; st.Event_sim.delivered;
        st.Event_sim.dropped_reset ]
  in
  (* 1. Every pair's compliant route at once, application-sized worms. *)
  let g, _ = Generators.now_c () in
  let routes = San_routing.Routes.compute g in
  let all_routes = San_routing.Routes.all routes in
  let st =
    storm g (List.map (fun (src, _, turns) -> (src, turns)) all_routes)
      ~payload_bytes:4096
  in
  (* 2. An adversarial cyclic route set on a switch ring. *)
  let rg = Graph.create () in
  let sw =
    Array.init 4 (fun i -> Graph.add_switch rg ~name:(Printf.sprintf "r%d" i) ())
  in
  for i = 0 to 3 do
    Graph.connect rg (sw.(i), 0) (sw.((i + 1) mod 4), 1)
  done;
  let hosts =
    Array.init 4 (fun i ->
        let h = Graph.add_host rg ~name:(Printf.sprintf "h%d" i) in
        Graph.connect rg (h, 0) (sw.(i), 2);
        h)
  in
  let cyclic = Array.to_list (Array.map (fun h -> (h, [ -2; -1; 1 ])) hosts) in
  let st2 = storm rg cyclic ~payload_bytes:100_000 in
  (* 3. The same cycle with probe-sized worms: buffering absorbs them. *)
  let st3 = storm rg cyclic ~payload_bytes:16 in
  let acyclic = function Ok () -> "acyclic" | Error _ -> "cyclic" in
  let verdicts =
    [
      (("C all-pairs storm (4 KB)" :: counts st)
      @ [ acyclic (San_routing.Deadlock.check_routes routes);
          us st.Event_sim.avg_latency_ns; us st.Event_sim.max_latency_ns ]);
      (("ring cycle (100 KB)" :: counts st2)
      @ [ acyclic (San_routing.Deadlock.check_acyclic rg cyclic); "-";
          Printf.sprintf "reset at %.0f ms"
            (st2.Event_sim.finished_at_ns /. 1e6) ]);
      (("ring cycle (probe-sized)" :: counts st3)
      @ [ "cyclic";
          Printf.sprintf "%.1f us" (st3.Event_sim.avg_latency_ns /. 1e3);
          Printf.sprintf "%.1f us" (st3.Event_sim.max_latency_ns /. 1e3) ]);
    ]
  in
  (* 4. Root congestion as latency, not just route counts. *)
  let routes_arr = Array.of_list all_routes in
  let congestion =
    List.map
      (fun load ->
        let sim = Event_sim.create g in
        let rng = San_util.Prng.create 5 in
        for _ = 1 to load do
          let src, _, turns =
            routes_arr.(San_util.Prng.int rng (Array.length routes_arr))
          in
          ignore
            (Event_sim.inject sim
               ~at_ns:(San_util.Prng.float rng 100_000.0)
               ~src ~turns ~payload_bytes:8192 ())
        done;
        Event_sim.run sim;
        let st = Event_sim.stats sim in
        let lats = Event_sim.latencies sim in
        [
          string_of_int load;
          us st.Event_sim.avg_latency_ns;
          (if lats = [] then "-" else us (San_util.Summary.percentile lats 0.95));
          us st.Event_sim.max_latency_ns;
        ])
      [ 100; 400; 1600 ]
  in
  tables
    [
      table
        "Event-driven wormhole validation — the dependency-graph checker's \
         verdicts, observed physically (switch ROM forward-reset = 55 ms)"
        (strings
           [ "scenario"; "worms"; "delivered"; "forward-reset"; "CDG verdict";
             "avg latency"; "max" ]
           verdicts);
      table
        "Event-driven — UP*/DOWN* root congestion as latency under load \
         (random C pairs over 100 us)"
        (strings
           [ "background worms (8 KB)"; "avg latency"; "p95"; "max" ]
           congestion);
    ]

(* ------------------------------------------------------------------ *)
(* §6 future-work extensions                                            *)

let ext_simplified () =
  (* §3.1's labelling algorithm vs the §3.3 production algorithm. *)
  let compare_on name g mapper_name depth =
    let mapper = mapper_of g mapper_name in
    let rl = Labels.run ~depth (Network.create g) ~mapper in
    let rb = Berkeley.run ~depth (Network.create g) ~mapper in
    let agree =
      match (rl.Labels.map, rb.Berkeley.map) with
      | Ok a, Ok b -> if Result.is_ok (iso b a) then "yes" else "NO"
      | _ -> "export failed"
    in
    [
      [
        name;
        "simplified (labels)";
        string_of_int (rl.Labels.host_probes + rl.Labels.switch_probes);
        Printf.sprintf "%d tree vertices, %d labels" rl.Labels.tree_vertices
          rl.Labels.labels;
        agree;
      ];
      [
        name;
        "production (merged)";
        string_of_int (Berkeley.total_probes rb);
        Printf.sprintf "%d created, %d live" rb.Berkeley.created_vertices
          rb.Berkeley.live_vertices;
        "-";
      ];
    ]
  in
  table
    "Extension — §3.1 simplified labelling algorithm as an executable \
     oracle (exponential tree; small nets only)"
    (strings
       [ "network"; "algorithm"; "probes"; "model size"; "map agrees" ]
       (compare_on "star(4)" (Generators.star ~leaves:4 ()) "h0" Berkeley.Oracle
       @ compare_on "mesh 2x3" (Generators.mesh ~rows:2 ~cols:3 ()) "h0-0"
           (Berkeley.Fixed 7)))

let ext_randomized () =
  let one name g =
    let rb = map_now g in
    let rr =
      Randomized.run ~rng:(San_util.Prng.create 9) (Network.create g)
        ~mapper:(mapper_of g "C-util")
    in
    [
      [
        name; "breadth-first";
        string_of_int (Berkeley.total_probes rb);
        fmt_ms rb.Berkeley.elapsed_ns;
        "-";
        verdict ~core:true g rb.Berkeley.map;
      ];
      [
        name; "coupon + BFS";
        string_of_int (Randomized.total_probes rr);
        fmt_ms rr.Randomized.elapsed_ns;
        Printf.sprintf "%d/%d" rr.Randomized.coupon_hits
          rr.Randomized.coupon_probes;
        verdict ~core:true g rr.Randomized.map;
      ];
    ]
  in
  table
    "Extension — §6 randomized coupon-collecting phase (honest finding: \
     roughly break-even on the NOW; the merger is already effective and \
     the fat tree lacks expansion)"
    (strings
       [ "network"; "mapper"; "probes"; "time (ms)"; "coupon hits"; "map" ]
       (one "C" (fst (Generators.now_c ()))
       @ one "C+A+B" (fst (Generators.now_cab ()))))

let ext_parallel () =
  let module Region = San_shard.Region in
  let module Runner = San_shard.Runner in
  let g, _ = Generators.now_cab () in
  let solo = map_now g in
  let sharded =
    List.map
      (fun (k, d, r) ->
        let plan =
          Result.get_ok (Region.local g ~mappers:k ~depth:d ~radius:r)
        in
        let rr = Runner.execute g plan in
        [
          string_of_int k;
          string_of_int d;
          fmt_ms rr.Runner.wall_ns;
          Printf.sprintf "%.2fx" (solo.Berkeley.elapsed_ns /. rr.Runner.wall_ns);
          string_of_int rr.Runner.total_probes;
          verdict g rr.Runner.map ~failed:"merge failed: " ~bad:(fun m ->
              Printf.sprintf "partial (%d switches)" (Graph.num_switches m));
        ])
      [ (4, 6, 5); (9, 6, 5); (9, 5, 4); (16, 5, 4) ]
  in
  table
    "Extension — §6 parallel mapping: local regions glued at shared hosts \
     (wall time = slowest local mapper)"
    (strings
       [ "mappers"; "local depth"; "wall (ms)"; "speedup"; "total probes";
         "global map" ]
       ([ "1 (solo)"; "oracle"; fmt_ms solo.Berkeley.elapsed_ns; "1.0x";
          string_of_int (Berkeley.total_probes solo); "correct" ]
       :: sharded))

let ext_incremental () =
  let g, _ = Generators.now_cab () in
  let mapper = mapper_of g "C-util" in
  let full = map_now g in
  let map0 = Result.get_ok full.Berkeley.map in
  let describe_verdict (r : Incremental.result) =
    match (r.Incremental.verdict, r.Incremental.repair) with
    | Incremental.Unchanged, _ -> "unchanged"
    | Incremental.Changed n, Incremental.Patched _ ->
      Printf.sprintf "changed (%d found), patched" n
    | Incremental.Changed n, (Incremental.No_repair | Incremental.Remapped) ->
      Printf.sprintf "changed (%d found), remapped" n
  in
  let row name actual_g responding =
    let net = Network.create ~responding actual_g in
    let r = Incremental.run net ~mapper ~previous:map0 in
    [
      name;
      describe_verdict r;
      string_of_int r.Incremental.verify_probes;
      fmt_ms r.Incremental.total_elapsed_ns;
      (* e.g. a silenced host is unmappable by design *)
      verdict ~core:true actual_g r.Incremental.map ~bad:(fun m ->
          "consistent view: " ^ stats m);
    ]
  in
  let rng = San_util.Prng.create 77 in
  let silent = mapper_of g "B-h3" in
  table
    "Extension — incremental remapping: one probe per known port verifies \
     a quiet epoch ~16x cheaper than a full remap (probes column shows \
     verification probes; time includes any repair: the patched map's \
     second sweep or a fallback remap)"
    (strings
       [ "epoch"; "verdict"; "probes"; "time (ms)"; "map" ]
       [
         [ "cold start (full remap)"; "-";
           string_of_int (Berkeley.total_probes full);
           fmt_ms full.Berkeley.elapsed_ns; "correct" ];
         row "quiet epoch (verify only)" g (fun _ -> true);
         row "epoch with a cut cable"
           (Faults.remove_random_links ~rng g ~count:1)
           (fun _ -> true);
         row "epoch with a dead daemon" g (fun h -> h <> silent);
       ])

let ext_online () =
  let g, _ = Generators.now_c () in
  let mapper = mapper_of g "C-util" in
  table
    "Extension — on-line mapping over the event-driven simulator with live \
     cross-traffic (the paper: \"oftentimes correctly maps even in the \
     face of heavy application cross-traffic\")"
    (strings
       [ "offered load (4 KB worms/ms)"; "probes"; "timeouts"; "map time (ms)";
         "background worms"; "map quality" ]
       (List.map
          (fun rate ->
            let rng = San_util.Prng.create 5 in
            let r = Online.run ~traffic_per_ms:rate ~rng g ~mapper in
            [
              Printf.sprintf "%.0f" rate;
              string_of_int r.Online.probes;
              string_of_int r.Online.probe_timeouts;
              fmt_ms r.Online.elapsed_ns;
              string_of_int r.Online.background_injected;
              verdict ~ok:"isomorphic" ~bad:(fun m -> "degraded: " ^ stats m) g
                r.Online.map;
            ])
          [ 0.0; 5.0; 25.0; 100.0 ]))

let ext_selfid () =
  table
    "Extension — §6 hardware what-if: id-carrying loopbacks kill replicate \
     cost (one exploration per physical switch) but not the port sweep"
    (strings
       [ "network"; "mapper"; "probes"; "explorations"; "time (ms)"; "map" ]
       (List.concat_map
          (fun (name, g) ->
            let rb = map_now g in
            let rs = Selfid.run g ~mapper:(mapper_of g "C-util") in
            [
              [
                name; "Berkeley (anonymous switches)";
                string_of_int (Berkeley.total_probes rb);
                string_of_int rb.Berkeley.explorations;
                fmt_ms rb.Berkeley.elapsed_ns;
                "N - F";
              ];
              [
                name; "self-identifying switches";
                string_of_int rs.Selfid.probes;
                string_of_int rs.Selfid.explorations;
                fmt_ms rs.Selfid.elapsed_ns;
                verdict ~ok:"full N" g rs.Selfid.map;
              ];
            ])
          (systems ())))

let ext_emergent_election () =
  table
    "Extension — emergent election: every host's mapper runs concurrently \
     as an effects fiber on the shared wormhole fabric. Finding: the \
     network cost of election is ~zero (losers silenced early, probes \
     buffer-absorbed) at ~2.5x the messages; the paper's measured election \
     overhead (Figure 7) is therefore host-software-side, which is what \
     the stochastic Election model prices"
    (strings
       [ "system"; "mode"; "time (ms)"; "winner probes"; "total probes";
         "losers silenced"; "map" ]
       (List.concat_map
          (fun (name, g) ->
            let r = Election_sim.run ~rng:(San_util.Prng.create 5) g in
            let solo =
              Election_sim.run
                ~rng:(San_util.Prng.create 5)
                ~mappers:[ r.Election_sim.winner ] ~max_skew_ns:0.0 g
            in
            let line mode (res : Election_sim.result) silenced =
              [
                name; mode;
                fmt_ms res.Election_sim.finished_at_ns;
                string_of_int res.Election_sim.winner_probes;
                string_of_int res.Election_sim.total_probes;
                silenced;
                verdict g res.Election_sim.map;
              ]
            in
            [
              line "single master (event-driven)" solo "-";
              line "emergent election (all hosts)" r
                (Printf.sprintf "%d/%d"
                   (List.length r.Election_sim.defers)
                   (r.Election_sim.contenders - 1));
            ])
          (systems ())))

let sensitivity _ =
  (* Are the reproduced conclusions robust to the calibrated software
     costs?  Scale the dominant knob (probe timeout) and watch the
     Figure-10 ratios. *)
  let g = fst (Generators.now_c ()) in
  let mapper = mapper_of g "C-util" in
  let rows =
    List.map
      (fun scale ->
        let timeout = Params.default.Params.probe_timeout_ns *. scale in
        let params = { Params.default with Params.probe_timeout_ns = timeout } in
        let rb = Berkeley.run (Network.create ~params g) ~mapper in
        let rm = San_myricom.Myricom.run ~params g ~mapper in
        let rm_total = San_myricom.Myricom.total rm.San_myricom.Myricom.counts in
        [
          Printf.sprintf "%.1fx" scale;
          fmt_ms rb.Berkeley.elapsed_ns;
          fmt_ms rm.San_myricom.Myricom.elapsed_ns;
          Printf.sprintf "%.1fx"
            (float_of_int rm_total /. float_of_int (Berkeley.total_probes rb));
          Printf.sprintf "%.1fx"
            (rm.San_myricom.Myricom.elapsed_ns /. rb.Berkeley.elapsed_ns);
        ])
      [ 0.5; 1.0; 2.0; 4.0 ]
  in
  tables
    [
      table
        "Sensitivity — the Berkeley-vs-Myricom conclusion under timeout \
         miscalibration (message ratio is timing-independent; time ratio moves \
         but never flips)"
        (strings
           [ "timeout scale"; "Berkeley (ms)"; "Myricom (ms)"; "msgs ratio";
             "time ratio" ]
           rows);
    ]

let ext_cross_traffic () =
  let g, _ = Generators.now_c () in
  let mapper = mapper_of g "C-util" in
  table
    "Extension — §6 cross-traffic: probe loss per wire crossing, with and \
     without the retry defence (retries restore the map at the price of \
     extra probes on every true vacancy)"
    (strings
       [ "loss per crossing"; "retries"; "probes"; "time (ms)"; "map quality" ]
       (List.map
          (fun (p, retries) ->
            let net = Network.create ~traffic:(p, San_util.Prng.create 3) g in
            let policy = { Berkeley.faithful with retries } in
            let r = Berkeley.run ~policy net ~mapper in
            [
              Printf.sprintf "%.1f%%" (100.0 *. p);
              string_of_int retries;
              string_of_int (Berkeley.total_probes r);
              fmt_ms r.Berkeley.elapsed_ns;
              verdict ~ok:"isomorphic" ~bad:(fun m -> "degraded: " ^ stats m)
                ~failed:"export failed: " g r.Berkeley.map;
            ])
          [ (0.0, 0); (0.005, 0); (0.02, 0); (0.02, 2); (0.05, 0); (0.05, 2);
            (0.05, 4) ]))

(* ------------------------------------------------------------------ *)
(* Control-plane daemon: convergence after scripted faults              *)

let daemon_section cfg =
  let open San_service in
  let n = if cfg.fast then 3 else 8 in
  let schedule =
    Result.get_ok (Schedule.parse "2:cut,4:flap=2,6:kill-leader,8:cut")
  in
  let converges = ref [] in
  let rows =
    List.init n (fun i ->
        let seed = i + 1 in
        let config = { Daemon.default_config with Daemon.seed } in
        let g, _ = Generators.now_cab () in
        match Daemon.run ~config ~schedule ~epochs:12 g with
        | Error e -> [ string_of_int seed; "failed: " ^ e ]
        | Ok o ->
          List.iter
            (fun (i : Daemon.incident) ->
              converges := i.Daemon.converge_ns :: !converges)
            o.Daemon.incidents;
          [
            string_of_int seed;
            string_of_int o.Daemon.remaps;
            string_of_int o.Daemon.elections;
            string_of_int (List.length o.Daemon.incidents);
            string_of_int o.Daemon.delta_bytes;
            string_of_int o.Daemon.full_bytes;
            fmt_pct
              (if o.Daemon.full_bytes = 0 then 0.0
               else
                 1.0
                 -. float_of_int o.Daemon.delta_bytes
                    /. float_of_int o.Daemon.full_bytes);
            Daemon.phase_to_string o.Daemon.final_phase;
          ])
  in
  let notes =
    match !converges with
    | [] -> []
    | l ->
      [
        Printf.sprintf
          "detect-to-routes-installed convergence over %d incidents: p50 %.0f \
           ms, p90 %.0f ms, max %.0f ms simulated"
          (List.length l)
          (San_util.Summary.percentile l 0.5 /. 1e6)
          (San_util.Summary.percentile l 0.9 /. 1e6)
          (San_util.Summary.percentile l 1.0 /. 1e6);
      ]
  in
  tables
    [
      table ~notes
        (Printf.sprintf
           "Control-plane daemon — 12 epochs on the NOW under cut / flap / \
            leader-kill (%d seeded runs); delta distribution vs full \
            redistribution"
           n)
        (strings
           [ "seed"; "remaps"; "elections"; "incidents"; "delta B"; "full B";
             "saved"; "final" ]
           rows);
    ]

(* ------------------------------------------------------------------ *)
(* SLO observatory: convergence percentiles vs offered load x faults.   *)

(* Every epoch the daemon spent Degraded must be explainable from a
   flight recording: the file written when the daemon ENTERED the
   degraded streak must exist, parse, and yield a non-empty postmortem
   timeline. Returns (degraded_epochs, unexplained_epochs). *)
let check_degraded_flights dir (reports : San_service.Daemon.epoch_report list)
    =
  let open San_service in
  let last_enter = ref None in
  let prev_degraded = ref false in
  List.fold_left
    (fun (n, bad) (r : Daemon.epoch_report) ->
      let deg = List.mem Daemon.Degraded r.Daemon.phases in
      if deg && not !prev_degraded then last_enter := Some r.Daemon.epoch;
      prev_degraded := deg;
      if not deg then (n, bad)
      else
        let explained =
          match !last_enter with
          | None -> false
          | Some e -> (
            let path =
              Filename.concat dir (Printf.sprintf "flight-%d.jsonl" e)
            in
            match San_why.Postmortem.read path with
            | Ok pm -> San_why.Postmortem.timeline pm <> []
            | Error _ -> false)
        in
        (n + 1, if explained then bad else bad + 1))
    (0, 0) reports

let load_matrix_section cfg =
  let open San_service in
  San_why.Why.set_enabled true;
  Fun.protect ~finally:(fun () -> San_why.Why.set_enabled false)
  @@ fun () ->
  let seeds = if cfg.fast then 2 else 3 in
  let epochs = 12 in
  let loads = [ 0.3; 1.0; 3.0 ] in
  let faults =
    [
      ("low", "3:flap=2,8:cut");
      ("high", "2:storm=2x1,5:flapstorm=3x2,8:partition=2,10:cut");
    ]
  in
  let failures = ref [] in
  let measure (fname, script) offered =
    let schedule = Result.get_ok (Schedule.parse script) in
    let converge = San_obs.Digest.create () in
    let drops = ref [] in
    let degraded = ref 0 in
    let unexplained = ref 0 in
    for seed = 1 to seeds do
      let flight_dir =
        Printf.sprintf "_artifacts/load_matrix/%s-%.1f-s%d" fname offered seed
      in
      let config =
        {
          Daemon.default_config with
          Daemon.seed;
          flight_dir = Some flight_dir;
          load = Some (San_slo.Load.spec ~pattern:San_slo.Load.Hotspot offered);
          slos = San_slo.Slo.defaults;
        }
      in
      let g, _ = Generators.now_cab () in
      match Daemon.run ~config ~schedule ~epochs g with
      | Error e ->
        failures :=
          Printf.sprintf "%s/%.1f seed %d failed: %s" fname offered seed e
          :: !failures
      | Ok o ->
        List.iter
          (fun (i : Daemon.incident) ->
            San_obs.Digest.add converge i.Daemon.converge_ns)
          o.Daemon.incidents;
        let drop (r : Daemon.epoch_report) =
          Option.map (fun l -> l.San_slo.Load.r_drop_rate) r.Daemon.load
        in
        drops := List.filter_map drop o.Daemon.reports @ !drops;
        let d, u = check_degraded_flights flight_dir o.Daemon.reports in
        degraded := !degraded + d;
        unexplained := !unexplained + u
    done;
    if !unexplained > 0 then
      failures :=
        Printf.sprintf
          "%s/%.1f: %d degraded epochs without an explaining flight recording"
          fname offered !unexplained
        :: !failures;
    let q p = San_obs.Digest.quantile converge p in
    let pct p = Printf.sprintf "%.0f" (100.0 *. p) in
    let ms p = str ~head:("p" ^ pct p ^ " ms") (Printf.sprintf "%.0f" (q p /. 1e6)) in
    let ns p = num ~key:("converge_p" ^ pct p ^ "_ns") "%.0f" (q p) in
    row ~at:[ Printf.sprintf "%s_%.1f" fname offered ]
      [
        str ~head:"faults" ~key:"faults" fname;
        num ~head:"load" ~key:"offered" "%.1f" offered;
        int ~key:"seeds" seeds;
        int ~head:"incidents" ~key:"incidents" (San_obs.Digest.count converge);
        int ~head:"degraded" ~key:"degraded_epochs" !degraded;
        int ~key:"unexplained_degraded" !unexplained;
        ms 0.5; ms 0.95; ms 0.99;
        ns 0.5; ns 0.95; ns 0.99;
        num ~head:"drop p95" ~key:"drop_p95" "%.3f"
          (San_util.Summary.percentile !drops 0.95);
        str ~head:"postmortems"
          (if !unexplained = 0 then "all explained"
           else Printf.sprintf "%d UNEXPLAINED" !unexplained);
        cell ~key:"digest" "" (San_obs.Digest.to_json converge);
      ]
  in
  let rows = List.concat_map (fun f -> List.map (measure f) loads) faults in
  {
    blocks =
      [
        table
          (Printf.sprintf
             "Convergence under live traffic — %d-epoch daemon runs on the NOW, \
              %d seeds per cell, hotspot load (worms/host/ms) x fault schedule; \
              gate: every degraded epoch postmortem-explainable"
             epochs seeds)
          rows
          ~csv:
            [ "faults"; "offered"; "incidents"; "degraded_epochs";
              "converge_p50_ns"; "converge_p95_ns"; "converge_p99_ns"; "drop_p95" ];
      ];
    failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* Fuzz throughput: how much random-fabric checking a CI minute buys.   *)

let fuzz_section cfg =
  let cases = if cfg.fast then 40 else 250 in
  let row name props =
    let t0 = now () in
    let r = San_check.Runner.run ?props ~cases ~seed:42 () in
    let wall = now () -. t0 in
    [
      name;
      string_of_int r.San_check.Runner.r_cases;
      string_of_int (List.length r.San_check.Runner.r_failures);
      Printf.sprintf "%.2f" wall;
      Printf.sprintf "%.0f" (float_of_int cases /. wall);
    ]
  in
  let full = row "full suite" None in
  tables
    [
      table
        (Printf.sprintf
           "Property-fuzz throughput — %d generated fabrics per row, seed 42; \
            per-property rows rebuild the mapper context each case, so the \
            full suite beats the sum of its parts"
           cases)
        (strings
           [ "properties"; "cases"; "failures"; "wall s"; "cases/s" ]
           (full
           :: List.map (fun p -> row p (Some [ p ])) San_check.Props.names));
    ]

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: what does leaving the switchboard on cost?       *)

let telemetry_section cfg =
  let g, _ = Generators.now_cab () in
  let n = if cfg.fast then 3 else 5 in
  let map_once () = ignore (map_now g : Berkeley.result) in
  let daemon_epochs = if cfg.fast then 4 else 8 in
  let daemon_once () =
    let schedule = Result.get_ok (San_service.Schedule.parse "2:cut") in
    let g, _ = Generators.now_cab () in
    match San_service.Daemon.run ~schedule ~epochs:daemon_epochs g with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  let fabric = San_telemetry.Fabric_stats.create () in
  let off f =
    San_obs.Obs.set_enabled false;
    Fun.protect ~finally:(fun () -> San_obs.Obs.set_enabled true) (fun () ->
        (best_of n [| f |]).(0))
  in
  let on f =
    San_telemetry.Fabric_stats.install fabric;
    Fun.protect
      ~finally:(fun () -> San_telemetry.Fabric_stats.uninstall ())
      (fun () ->
        (best_of n
           [| (fun () -> San_telemetry.Fabric_stats.clear fabric; f ()) |]).(0))
  in
  let map_off = off map_once in
  let map_on = on map_once in
  let daemon_off = off daemon_once in
  let daemon_on = on daemon_once in
  let pct a b = if a <= 0.0 then 0.0 else 100.0 *. ((b /. a) -. 1.0) in
  let line name prefix ~per off on =
    let wall ~head ~key s =
      cell ~head ~key (Printf.sprintf "%.1f ms" (s /. per *. 1e3)) (J.Num s)
    in
    row ~at:[]
      [
        str ~head:"workload" name;
        wall ~head:"telemetry off" ~key:(prefix ^ "_off_s") off;
        wall ~head:"on + fabric" ~key:(prefix ^ "_on_s") on;
        num ~head:"overhead" ~key:(prefix ^ "_overhead_pct") "%+.1f%%"
          (pct off on);
      ]
  in
  tables
    [
      table
        (Printf.sprintf
           "Telemetry overhead — full run with observability disabled vs \
            enabled with a fabric table installed (best of %d)"
           n)
        [
          line "map C+A+B" "map" ~per:1.0 map_off map_on;
          line
            (Printf.sprintf "daemon epoch (of %d)" daemon_epochs)
            "daemon" ~per:(float_of_int daemon_epochs) daemon_off daemon_on;
        ];
    ]

(* ------------------------------------------------------------------ *)
(* Provenance-ledger overhead: what does recording every deduction      *)
(* cost the mapper?  Reported against ROADMAP item 12's target (within  *)
(* 10% of the ledger-off run); nothing gates it.                        *)

let why_section cfg =
  let g, _ = Generators.now_cab () in
  let n = if cfg.fast then 5 else 9 in
  let probes = ref 0 in
  let map_once () = probes := Berkeley.total_probes (map_now g) in
  let with_why f () =
    San_why.Why.reset ();
    San_why.Why.set_enabled true;
    Fun.protect ~finally:(fun () -> San_why.Why.set_enabled false) f
  in
  (* One warm-up per side, then the two configurations interleaved. *)
  map_once ();
  with_why map_once ();
  let best = best_of n [| map_once; with_why map_once |] in
  let off = best.(0) and on = best.(1) in
  let entries =
    San_why.Why.set_enabled true;
    Fun.protect
      ~finally:(fun () -> San_why.Why.set_enabled false)
      (fun () ->
        map_once ();
        San_why.Why.size (San_why.Why.capture ()))
  in
  let pct = if off <= 0.0 then 0.0 else 100.0 *. ((on /. off) -. 1.0) in
  let wall key s =
    cell ~head:"wall" ~key (Printf.sprintf "%.1f ms" (s *. 1e3)) (J.Num s)
  in
  let rate s = num ~head:"probes/s" "%.0f" (float_of_int !probes /. s) in
  tables
    [
      table
        (Printf.sprintf
           "Provenance-ledger overhead — map C+A+B with San_why off vs on \
            (best of %d): %+.1f%% (ROADMAP item 12's target: within 10%%; \
            not a gate)"
           n pct)
        [
          row ~at:[]
            [ str ~head:"ledger" "off"; wall "map_off_s" off; rate off;
              str ~head:"entries" "-" ];
          row ~at:[]
            [ str ~head:"ledger" "on"; wall "map_on_s" on;
              num ~key:"overhead_pct" "%.1f" pct; rate on;
              int ~head:"entries" ~key:"ledger_entries" entries;
              int ~key:"probes" !probes ];
        ];
    ]

(* ------------------------------------------------------------------ *)
(* Scaling to data-center fabrics: the San_fabric fat-tree ladder,      *)
(* 100 -> 1k -> 10k hosts (100k behind --scale-100k), each rung mapped  *)
(* at the generator's suggested depth and verified against N - F. The   *)
(* 100-host rung doubles as a perf regression gate against the recorded *)
(* baseline in bench/scaling_baseline.json.                             *)

let scaling_baseline = "bench/scaling_baseline.json"

let scaling_section cfg =
  let rungs =
    [ "ft-100"; "ft-1k" ]
    @ (if cfg.fast then [] else [ "ft-10k" ])
    @ if cfg.scale_100k then [ "ft-100k" ] else []
  in
  let merges () =
    San_obs.Metrics.counter_value
      (San_obs.Metrics.counter San_obs.Obs.registry "mapper.merges")
  in
  let rung name =
    let g, mapper, depth = preset name in
    let last = ref None in
    let once () =
      let m0 = merges () in
      let net = Network.create g in
      let r = Berkeley.run ~depth:(Berkeley.Fixed depth) net ~mapper in
      last := Some (r, merges () - m0)
    in
    (* The small rungs finish in milliseconds, where a scheduler hiccup
       swamps the rate. *)
    let reps = if Graph.num_hosts g <= 1000 then 5 else 1 in
    let wall = (best_of reps [| once |]).(0) in
    let r, merges = Option.get !last in
    let probes = Berkeley.total_probes r in
    let rate n = float_of_int n /. wall in
    let verified =
      match r.Berkeley.map with
      | Ok map -> Result.is_ok (iso ~core:true g map)
      | Error _ -> false
    in
    ( row ~at:[ name ]
      [
        str ~head:"fabric" name;
        int ~head:"hosts" ~key:"hosts" (Graph.num_hosts g);
        int ~key:"switches" (Graph.num_switches g);
        int ~head:"links" ~key:"links" (Graph.num_wires g);
        int ~head:"depth" ~key:"depth" depth;
        int ~head:"probes" ~key:"probes" probes;
        int ~key:"merges" merges;
        num ~head:"wall (s)" ~key:"wall_s" "%.2f" wall;
        num ~head:"probes/s" ~key:"probes_per_s" "%.0f" (rate probes);
        num ~head:"merges/s" ~key:"merges_per_s" "%.0f" (rate merges);
        flag ~head:"verified" ~key:"verified" verified;
      ],
      if verified then [] else [ name ^ ": map not isomorphic to N - F" ] )
  in
  let results = List.map rung rungs in
  {
    blocks =
      [
        table
          "Scaling — San_fabric fat-tree ladder, seed 1, suggested depth \
           (verified = map isomorphic to N - F)"
          (List.map fst results) ~levels:[ "fabric" ]
          ~csv:[ "hosts"; "probes"; "wall_s"; "probes_per_s"; "merges_per_s" ]
          (* The 100-host rung's probe rate: generous enough for machine-
             to-machine variance, tight enough to catch a complexity slip. *)
          ~gates:
            [
              gate ~file:scaling_baseline ~base:[ "ft-100"; "probes_per_s" ]
                (Floor 0.25) [ "ft-100" ] "probes_per_s";
            ];
      ];
    failures = List.concat_map snd results;
  }

(* ------------------------------------------------------------------ *)
(* Sharded mapping at scale: San_shard's 4 concurrent mappers against   *)
(* the solo mapper on the big rungs. The wall is the slowest shard's    *)
(* simulated time (the host-clock merge is reported apart), so the      *)
(* ratio is deterministic and gated hard: the merged map must verify    *)
(* and the sharded wall must stay under half the solo wall.             *)

let scaling_shard_section cfg =
  let shards = 4 in
  let rungs = "ft-1k" :: (if cfg.fast then [] else [ "ft-10k" ]) in
  let rung name =
    let g, mapper, depth = preset name in
    let net = Network.create g in
    let solo = Berkeley.run ~depth:(Berkeley.Fixed depth) net ~mapper in
    let solo_probes = Berkeley.total_probes solo in
    let solo_ns = solo.Berkeley.elapsed_ns in
    match San_shard.Runner.run ~seed:1 ~root:mapper g ~shards with
    | Error e -> Error (Printf.sprintf "%s: plan failed: %s" name e)
    | Ok r ->
      let verifies = function
        | Ok m -> Result.is_ok (iso ~core:true g m)
        | Error _ -> false
      in
      let verified =
        verifies solo.Berkeley.map
        && verifies r.San_shard.Runner.map
        && r.San_shard.Runner.dropped_views = []
      in
      let shard_probes = r.San_shard.Runner.total_probes in
      let ratio = r.San_shard.Runner.wall_ns /. solo_ns in
      let sim_s ~head key ms =
        cell ~head ~key (Printf.sprintf "%.2f" (ms /. 1e3)) (J.Num ms)
      in
      let failed =
        (if verified then [] else [ name ^ ": merged map not verified" ])
        @
        if ratio < 0.5 then []
        else [ Printf.sprintf "%s: wall ratio %.3f is not under 0.5" name ratio ]
      in
      Ok
        ( row ~at:[ name ]
            [
              str ~head:"fabric" name;
              int ~key:"hosts" (Graph.num_hosts g);
              int ~head:"shards" ~key:"shards" shards;
              int ~head:"solo probes" ~key:"solo_probes" solo_probes;
              int ~head:"shard probes" ~key:"shard_probes" shard_probes;
              num ~head:"probe ratio" ~key:"probe_ratio" "%.2f"
                (float_of_int shard_probes /. float_of_int solo_probes);
              sim_s ~head:"solo sim (s)" "solo_sim_ms" (solo_ns /. 1e6);
              sim_s ~head:"shard sim (s)" "shard_sim_ms"
                (r.San_shard.Runner.wall_ns /. 1e6);
              num ~head:"wall ratio" ~key:"sim_wall_ratio" "%.2f" ratio;
              num ~head:"host merge (ms)" ~key:"merge_ms" "%.1f"
                (r.San_shard.Runner.merge_ns /. 1e6);
              num ~key:"overlap" "%.2f"
                r.San_shard.Runner.plan.San_shard.Region.overlap;
              flag ~head:"verified" ~key:"verified" verified;
            ],
          failed )
  in
  let results = List.map rung rungs in
  {
    blocks =
      [
        table
          (Printf.sprintf
             "Scaling, sharded — %d concurrent mappers vs solo, seed 1 \
              (simulated wall = slowest shard, merge timed apart on the host; \
              gate: verified and ratio < 0.5)"
             shards)
          (List.filter_map (function Ok (r, _) -> Some r | _ -> None) results)
          ~levels:[ "fabric" ]
          (* Deterministic simulation: any drift is a code change. *)
          ~gates:
            [
              gate ~file:scaling_baseline
                ~base:[ "ft-1k-shard4"; "sim_wall_ratio" ]
                (Ceiling 1.25) [ "ft-1k" ] "sim_wall_ratio";
            ];
      ];
    failures =
      List.concat_map (function Ok (_, f) -> f | Error e -> [ e ]) results;
  }

(* ------------------------------------------------------------------ *)
(* Route serving: the per-destination DAG plane at fabric scale. Rate   *)
(* is gated against bench/serving_baseline.json like the scaling        *)
(* section; the served sample must stay deadlock-free; ft-10k proves    *)
(* the bounded-cache memory claim (no all-pairs matrix: heap growth is  *)
(* recorded and must stay orders of magnitude under hosts^2 entries).   *)

let serving_baseline = "bench/serving_baseline.json"

let serving_section cfg =
  let module Serve = San_routing.Serve in
  let rungs =
    [ ("ft-100", 24, 200_000); ("ft-1k", 32, 400_000) ]
    @ if cfg.fast then [] else [ ("ft-10k", 32, 400_000) ]
  in
  let rung (name, ndst, queries) =
    let g, _, _ = preset name in
    Gc.compact ();
    let heap0 = (Gc.quick_stat ()).Gc.top_heap_words in
    let serve = Serve.create ~cache_limit:64 g in
    let hosts = Array.of_list (Graph.hosts g) in
    let nh = Array.length hosts in
    let rng = San_util.Prng.create 1 in
    let shuffled = Array.copy hosts in
    San_util.Prng.shuffle rng shuffled;
    let dst_set = Array.sub shuffled 0 (min ndst nh) in
    let t0 = now () in
    Array.iter (fun dst -> Serve.warm serve ~dst) dst_set;
    let compile_s = now () -. t0 in
    let q =
      Array.init queries (fun _ ->
          let dst = dst_set.(San_util.Prng.int rng (Array.length dst_set)) in
          let rec src () =
            let s = hosts.(San_util.Prng.int rng nh) in
            if s = dst then src () else s
          in
          (src (), dst))
    in
    let buf = Array.make (Graph.num_nodes g + 1) 0 in
    (* a batch finishes in tens of ms *)
    let batch =
      (best_of 5 [| (fun () -> ignore (Serve.batch serve q ~buf)) |]).(0)
    in
    let rate = float_of_int queries /. batch in
    let heap_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words - heap0)
      *. float_of_int (Sys.word_size / 8)
      /. 1e6
    in
    (* served sample stays deadlock-free: every warmed destination,
       sources capped so ft-10k stays a bench and not a soak *)
    let src_cap = min nh 100 in
    let served = ref [] in
    Array.iter
      (fun dst ->
        for i = 0 to src_cap - 1 do
          let src = hosts.(i) in
          if src <> dst then
            match Serve.lookup serve ~src ~dst with
            | Some turns -> served := (src, turns) :: !served
            | None -> ()
        done)
      dst_set;
    let deadlock = San_routing.Deadlock.check_acyclic g !served in
    let st = Serve.stats serve in
    let packed_ratio =
      float_of_int st.Serve.packed_bytes /. float_of_int st.Serve.naive_bytes
    in
    ( row ~at:[ name ]
        [
          str ~head:"fabric" name;
          int ~head:"hosts" ~key:"hosts" nh;
          int ~head:"dsts" ~key:"destinations" (Array.length dst_set);
          int ~head:"queries" ~key:"queries" queries;
          num ~head:"compile (s)" ~key:"compile_s" "%.3f" compile_s;
          num ~head:"Mlookups/s" "%.2f" (rate /. 1e6);
          num ~key:"lookups_per_s" "%.0f" rate;
          int ~head:"resident" ~key:"resident_tables" st.Serve.resident;
          int ~key:"pool_cells" st.Serve.pool_cells;
          int ~key:"packed_bytes" st.Serve.packed_bytes;
          int ~key:"naive_bytes" st.Serve.naive_bytes;
          num ~head:"packed/naive" "%.0f%%" (100.0 *. packed_ratio);
          num ~head:"heap +MB" ~key:"heap_growth_mb" "%.1f" heap_mb;
          flag ~head:"deadlock-free" ~key:"deadlock_free" (Result.is_ok deadlock);
        ],
      match deadlock with
      | Ok () -> []
      | Error e -> [ Printf.sprintf "%s: deadlock check failed: %s" name e ] )
  in
  let results = List.map rung rungs in
  (* Traffic awareness: a hotspot storm heats a few links; recomputing
     the table with the measured heat (and drop cost) steering
     equal-cost choices should pull the p99 per-link slot occupancy
     down on the re-run of the very same storm. *)
  let g, _, _ = preset "ft-100" in
  let storm table =
    San_slo.Load.heat ~rng:(San_util.Prng.create 42)
      (San_slo.Load.spec ~pattern:San_slo.Load.Hotspot 4.0)
      ~table g
  in
  let occupied_p99 stats =
    San_util.Summary.percentile
      (List.map
         (fun l -> l.San_telemetry.Fabric_stats.l_occupied_ns)
         (San_telemetry.Fabric_stats.links stats g))
      0.99
  in
  let s_before, rep = storm (San_routing.Routes.compute g) in
  let p99_before = occupied_p99 s_before in
  let prefer = San_slo.Load.prefer s_before rep g in
  let s_after, _ = storm (San_routing.Routes.compute ~prefer g) in
  let p99_after = occupied_p99 s_after in
  let drop_pct =
    if p99_before > 0.0 then 100.0 *. (1.0 -. (p99_after /. p99_before))
    else 0.0
  in
  {
    blocks =
      [
        table
          "Route serving — per-destination DAG tables, bounded cache (64), \
           shared-suffix pool (heap +MB: growth over the bare graph; an \
           all-pairs matrix would need hosts^2 entries)"
          (List.map fst results) ~levels:[ "fabric" ]
          ~csv:[ "hosts"; "queries"; "lookups_per_s"; "heap_growth_mb" ]
          ~gates:
            [
              gate ~file:serving_baseline ~base:[ "ft-1k"; "lookups_per_s" ]
                (Floor 0.25) [ "ft-1k" ] "lookups_per_s";
            ];
        Line
          (Printf.sprintf
             "traffic-aware serving (ft-100, hotspot storm): p99 link occupancy \
              %.0f -> %.0f ns (%.1f%% drop)"
             p99_before p99_after drop_pct);
        Data
          [
            row ~at:[ "traffic_storm" ]
              [
                num ~key:"p99_occupied_ns_static" "%.0f" p99_before;
                num ~key:"p99_occupied_ns_aware" "%.0f" p99_after;
                num ~key:"drop_pct" "%.1f" drop_pct;
                num ~key:"loss_per_crossing" "%.4f"
                  rep.San_slo.Load.r_loss_per_crossing;
              ];
          ];
      ];
    failures = List.concat_map snd results;
  }

(* ------------------------------------------------------------------ *)
(* Accuracy vs budget: San_cover budgeted partial mapping on the        *)
(* fat-tree rungs. One full reference run per rung is shared by every   *)
(* budget; each budgeted run must pass the subgraph embedding check     *)
(* (hard gate), and the recovered fractions / mean confidence are       *)
(* gated against bench/coverage_baseline.json. Directed (Goldstein)     *)
(* sub-runs on ft-100 record in the notes how wire orientation          *)
(* degrades probe complexity.                                           *)

let coverage_baseline = "bench/coverage_baseline.json"

let coverage_section cfg =
  let module Cover = San_cover.Cover in
  let rungs = "ft-100" :: (if cfg.fast then [] else [ "ft-1k" ]) in
  let fr n d = if d <= 0 then 0.0 else float_of_int n /. float_of_int d in
  let frac key n d = num ~key "%.3f" (fr n d) in
  let count head n d = str ~head (Printf.sprintf "%d/%d" n d) in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let rung name =
    let g, mapper, depth = preset name in
    let depth = Berkeley.Fixed depth in
    let net = Network.create g in
    let reference = Berkeley.run ~depth net ~mapper in
    let run ?directed f =
      let what =
        Printf.sprintf "%s%s @ %g" (if directed = None then "" else "directed ")
          name f
      in
      match
        Cover.run ~depth ~record_trace:false ~reference ?directed
          ~budget:(Cover.Frac f) net ~mapper
      with
      | Error e ->
        fail "%s: %s" what e;
        None
      | Ok rep ->
        if Result.is_error rep.Cover.r_subgraph then
          fail "%s: partial map does not embed in N - F" what;
        Some (f, rep)
    in
    let undirected = List.filter_map run [ 0.1; 0.3; 0.6 ] in
    let budget_row (f, r) =
      row ~at:[ name; Printf.sprintf "b%g" f ]
        [
          str ~head:"fabric" name;
          str ~head:"budget" (Printf.sprintf "%g" f);
          int ~key:"probe_limit" r.Cover.r_probe_limit;
          cell ~head:"probes" ~key:"probes_used"
            (Printf.sprintf "%d/%d" r.Cover.r_probes_used r.Cover.r_full_probes)
            (J.int r.Cover.r_probes_used);
          count "switches" r.Cover.r_recovered_switches r.Cover.r_full_switches;
          frac "switch_frac" r.Cover.r_recovered_switches r.Cover.r_full_switches;
          count "links" r.Cover.r_recovered_links r.Cover.r_full_links;
          frac "link_frac" r.Cover.r_recovered_links r.Cover.r_full_links;
          count "hosts" r.Cover.r_recovered_hosts r.Cover.r_full_hosts;
          frac "host_frac" r.Cover.r_recovered_hosts r.Cover.r_full_hosts;
          num ~head:"mean conf" ~key:"mean_conf" "%.3f" r.Cover.r_mean_conf;
          int ~head:"frontier" ~key:"frontier" r.Cover.r_frontier;
          num ~key:"est_links" "%g" r.Cover.r_est_links;
          flag ~head:"subgraph" ~key:"subgraph" ~yes:"ok" ~no:"FAILED"
            (Result.is_ok r.Cover.r_subgraph);
        ]
    in
    (* The Goldstein directed-fabric variant: orient every
       switch-switch wire, silence probes that walk against the
       orientation, and measure the probe-complexity degradation at
       the same budgets. The reference stays undirected so the
       fractions are comparable. *)
    let directed_run (f, r) =
      let recovered =
        match List.assoc_opt f undirected with
        | Some u ->
          Printf.sprintf "%.0f%%/%.0f%% switch/link"
            (100. *. fr u.Cover.r_recovered_switches u.Cover.r_full_switches)
            (100. *. fr u.Cover.r_recovered_links u.Cover.r_full_links)
        (* at full budget the undirected run IS the reference *)
        | None -> "100%/100% switch/link"
      in
      ( Printf.sprintf
          "note: directed (Goldstein) %s @ %g: %d/%d probes spent, %d blocked \
           by orientation; recovered %d/%d switches, %d/%d links (undirected \
           recovered %s)"
          name f r.Cover.r_probes_used r.Cover.r_probe_limit r.Cover.r_blocked
          r.Cover.r_recovered_switches r.Cover.r_full_switches
          r.Cover.r_recovered_links r.Cover.r_full_links recovered,
        row ~at:[ name; Printf.sprintf "directed_b%g" f ]
          [
            int ~key:"probes_used" r.Cover.r_probes_used;
            int ~key:"blocked" r.Cover.r_blocked;
            frac "switch_frac" r.Cover.r_recovered_switches r.Cover.r_full_switches;
            frac "link_frac" r.Cover.r_recovered_links r.Cover.r_full_links;
            flag ~key:"subgraph" (Result.is_ok r.Cover.r_subgraph);
          ] )
    in
    let directed =
      if name <> "ft-100" then []
      else
        let d f = run ~directed:(San_cover.Directed.create ~seed:1 g) f in
        List.map directed_run (List.filter_map d [ 0.3; 1.0 ])
    in
    (List.map budget_row undirected, directed)
  in
  let results = List.map rung rungs in
  let rows = List.concat_map fst results in
  let directed = List.concat_map snd results in
  (* Every recovered fraction within 0.05, and the mean confidence
     within 0.1, of the checked-in baseline. The runs are seeded and the
     simulation deterministic, so drift means the mapper, the budget
     gate or the scoring model changed. *)
  let bands =
    [ ("switch_frac", 0.05); ("link_frac", 0.05); ("host_frac", 0.05);
      ("mean_conf", 0.1) ]
  in
  let gates =
    List.concat_map
      (fun r ->
        let at = Option.get r.at in
        List.map
          (fun (key, d) ->
            gate ~file:coverage_baseline ~base:(at @ [ key ]) (Within d) at key)
          bands)
      rows
  in
  {
    blocks =
      [
        table
          "Coverage — accuracy vs probe budget (San_cover, seed 1; every \
           partial map verified to embed in N - F)"
          rows ~levels:[ "fabric"; "budget" ]
          ~csv:[ "switch_frac"; "link_frac"; "host_frac"; "mean_conf" ]
          ~notes:(List.map fst directed) ~gates;
        Data (List.map snd directed);
      ];
    failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* The section registry and the driver                                  *)

(* In run order. *)
let sections =
  [
    ("fig3", fig3);
    ("fig45", fig45);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("routes", routes_section);
    ( "ablation",
      fun _ ->
        tables
          [ ablation_policy (); ablation_model (); ablation_depth ();
            ablation_myricom_window (); ablation_updown_root () ] );
    ("eventsim", eventsim_section);
    ( "extensions",
      fun _ ->
        tables
          [ ext_simplified (); ext_randomized (); ext_parallel ();
            ext_incremental (); ext_online (); ext_cross_traffic ();
            ext_selfid (); ext_emergent_election () ] );
    ("sensitivity", sensitivity);
    ("daemon", daemon_section);
    ("load_matrix", load_matrix_section);
    ("fuzz", fuzz_section);
    ("telemetry", telemetry_section);
    ("why", why_section);
    ("scaling", scaling_section);
    ("scaling-shard", scaling_shard_section);
    ("serving", serving_section);
    ("coverage", coverage_section);
  ]

(* Telemetry and why export their rows apart from their own entry. *)
let data_keys = [ ("telemetry", "telemetry_overhead"); ("why", "why_overhead") ]

(* Runs one section with the metrics registry reset; prints its output
   and returns its BENCH_obs.json entries and failures. *)
let run_section cfg (name, f) =
  San_obs.Obs.reset ();
  let t0 = now () in
  let out = f cfg in
  let wall_s = now () -. t0 in
  let metrics =
    let snap = San_obs.Metrics.snapshot San_obs.Obs.registry in
    match San_obs.Metrics.to_json snap with J.Obj fields -> fields | _ -> []
  in
  let gate_failures = List.concat_map (emit cfg name) out.blocks in
  List.iter (fun f -> Printf.printf "%s FAILED: %s\n" name f) out.failures;
  let data =
    rows_json
      (List.concat_map
         (function Table t -> t.rows | Data rows -> rows | Line _ -> [])
         out.blocks)
  in
  let stats = ("wall_s", J.Num wall_s) :: metrics in
  let entries =
    match (List.assoc_opt name data_keys, data) with
    | _, [] -> [ (name, J.Obj stats) ]
    | None, _ -> [ (name, J.Obj (stats @ data)) ]
    | Some k, _ -> [ (k, J.Obj data); (name, J.Obj stats) ]
  in
  (entries, gate_failures @ out.failures)

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> line
    | _ -> "unknown")
  with _ -> "unknown"

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* Versioned envelope so downstream tooling can diff BENCH_obs.json
   across commits without sniffing its shape. Bump [version] on any
   section-layout change. *)
let write_obs entries =
  let j =
    J.Obj
      [
        ("version", J.Num 1.0);
        ("commit", J.Str (git_commit ()));
        ("timestamp", J.Str (iso8601 (now ())));
        ("sections", J.Obj entries);
      ]
  in
  Out_channel.with_open_text "BENCH_obs.json" (fun oc ->
      output_string oc (J.to_string j);
      output_char oc '\n');
  Printf.printf "(wrote BENCH_obs.json)\n"

let usage =
  "usage: main.exe [--only SECTION,...] [--runs N] [--fast] [--scale-100k] \
   [--csv DIR]"

(* Bad arguments exit 2 before any section runs. *)
let parse_args args =
  let bad fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("bench: " ^ m);
        prerr_endline usage;
        exit 2)
      fmt
  in
  let rec go cfg = function
    | [] -> cfg
    | "--runs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> go { cfg with runs = n } rest
      | _ -> bad "--runs expects a positive integer, got %S" n)
    | "--fast" :: rest -> go { cfg with fast = true } rest
    | "--scale-100k" :: rest -> go { cfg with scale_100k = true } rest
    | "--only" :: l :: rest -> (
      let names = String.split_on_char ',' l in
      match List.filter (fun n -> not (List.mem_assoc n sections)) names with
      | [] -> go { cfg with only = names } rest
      | unknown ->
        bad "unknown section %s; sections are %s" (String.concat ", " unknown)
          (String.concat ", " (List.map fst sections)))
    | "--csv" :: dir :: rest -> go { cfg with csv_dir = Some dir } rest
    | [ ("--runs" | "--only" | "--csv") as flag ] -> bad "%s needs a value" flag
    | x :: _ -> bad "unknown argument %s" x
  in
  go
    {
      runs = 20;
      fast = false;
      only = [];
      csv_dir = None;
      scale_100k = false;
    }
    args

let () =
  let cfg = parse_args (List.tl (Array.to_list Sys.argv)) in
  print_endline "System Area Network Mapping (SPAA'97) — reproduction harness";
  print_endline "paper values printed alongside; absolute times come from the";
  print_endline "calibrated simulation, shapes are the reproduction target.";
  San_obs.Obs.set_enabled true;
  let wanted (name, _) = cfg.only = [] || List.mem name cfg.only in
  let results = List.map (run_section cfg) (List.filter wanted sections) in
  write_obs (List.concat_map fst results);
  if List.exists (fun (_, failures) -> failures <> []) results then exit 1
