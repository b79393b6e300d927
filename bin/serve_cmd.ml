(* serve: the route-query plane. *)

open Cmdliner
open San_topology
module Serve = San_routing.Serve

(* Traffic awareness: measure link heat and loss under the offered load
   riding the deterministic table, then prefer equal-cost choices away
   from both. *)
let prefer_of_load g rng ls =
  let fabric, rep =
    San_slo.Load.heat ~rng:(San_util.Prng.copy rng) ls
      ~table:(San_routing.Routes.compute g) g
  in
  Format.printf "traffic: %s load %.2f — loss %.4f/crossing, drop cost %.0f ns@."
    (San_slo.Load.pattern_to_string rep.San_slo.Load.r_pattern)
    rep.San_slo.Load.r_offered rep.San_slo.Load.r_loss_per_crossing
    (San_slo.Load.drop_cost_ns rep);
  San_slo.Load.prefer fabric rep g

(* Every served route in the working set must deliver its worm, and the
   set must be deadlock-free. *)
let check g serve hosts dst_set =
  let failed = ref 0 in
  let routes = ref [] in
  Array.iter
    (fun dst ->
      Array.iter
        (fun src ->
          if src <> dst then
            match Serve.lookup serve ~src ~dst with
            | None -> incr failed
            | Some turns -> (
              routes := (src, turns) :: !routes;
              let open San_simnet in
              match (Worm.eval g ~src ~turns).Worm.outcome with
              | Worm.Arrived h when h = dst -> ()
              | _ -> incr failed))
        hosts)
    dst_set;
  (match San_routing.Deadlock.check_acyclic g !routes with
  | Ok () -> Format.printf "deadlock freedom: channel dependency graph acyclic@."
  | Error e ->
    incr failed;
    Format.printf "deadlock: %s@." e);
  if !failed = 0 then Format.printf "check: every served route delivered@."
  else Format.printf "check: %d served routes failed@." !failed;
  Cli.status (!failed = 0)

let run (t : Cli.topology) queries dsts check_ load lpat obs =
  Cli.with_obs obs @@ fun () ->
  let g = t.g in
  let hosts = Array.of_list (Graph.hosts g) in
  let nh = Array.length hosts in
  if nh < 2 then begin
    Format.eprintf "serve: topology %s has %d host(s); need at least 2@." t.spec
      nh;
    2
  end
  else
    match Cli.resolve_load load lpat with
    | Error e -> failwith e
    | Ok load_spec ->
      let rng = San_util.Prng.create t.seed in
      let ndst = min dsts nh in
      let shuffled = Array.copy hosts in
      San_util.Prng.shuffle rng shuffled;
      let dst_set = Array.sub shuffled 0 ndst in
      let prefer = Option.map (prefer_of_load g rng) load_spec in
      let serve = Serve.create ~cache_limit:(max 64 ndst) ?prefer g in
      let t0 = Unix.gettimeofday () in
      Array.iter (fun dst -> Serve.warm serve ~dst) dst_set;
      let warm_s = Unix.gettimeofday () -. t0 in
      let q =
        Array.init queries (fun _ ->
            let dst = dst_set.(San_util.Prng.int rng ndst) in
            let rec src () =
              let s = hosts.(San_util.Prng.int rng nh) in
              if s = dst then src () else s
            in
            (src (), dst))
      in
      let buf = Array.make (Graph.num_nodes g + 1) 0 in
      let t1 = Unix.gettimeofday () in
      let served = Serve.batch serve q ~buf in
      let dt = Unix.gettimeofday () -. t1 in
      let rate = if dt > 0.0 then float_of_int queries /. dt else 0.0 in
      let st = Serve.stats serve in
      Format.printf
        "served %d/%d queries over %d destinations in %.3f s — %.2fM \
         lookups/s (tables compiled in %.3f s)@."
        served queries ndst dt (rate /. 1e6) warm_s;
      Format.printf
        "pool: %d routes, %d turns in %d shared cells; %d B packed vs %d B \
         naive (%.1f%%)@."
        st.Serve.entries st.Serve.turns_total st.Serve.pool_cells
        st.Serve.packed_bytes st.Serve.naive_bytes
        (100.0
        *. float_of_int st.Serve.packed_bytes
        /. float_of_int (max 1 st.Serve.naive_bytes));
      if check_ then check g serve hosts dst_set else 0

let cmd =
  let queries =
    let doc = "Route queries to answer through the zero-allocation path." in
    Arg.(value & opt (Cli.count ~min:0) 200_000 & info [ "queries" ] ~docv:"N" ~doc)
  in
  let dsts =
    let doc =
      "Destination working-set size (a seeded sample of hosts); bounds \
       resident per-destination tables and therefore serving memory."
    in
    Arg.(value & opt (Cli.count ~min:1) 24 & info [ "dsts" ] ~docv:"N" ~doc)
  in
  let check =
    let doc =
      "Verify the serving plane: every served route in the working set \
       must deliver its worm, and the set must be deadlock-free."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve route queries from lazily compiled, shared-suffix \
          compressed per-destination tables, optionally traffic-aware \
          (give $(b,--load) to steer equal-cost choices away from \
          measured heat and loss)")
    Term.(
      const run $ Cli.topology $ queries $ dsts $ check $ Cli.load
      $ Cli.load_pattern $ Cli.obs)
