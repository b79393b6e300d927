open San_topology
module Prng = San_util.Prng

type shard_plan = {
  idx : int;
  mapper : Graph.node;
  mapper_name : string;
  radius : int;
  depth : int;
  budget : int;
  owned : int;
  covered : int;
}

type mode = Oracle | Scoped | Local

type t = {
  seed : int;
  shards : int;
  plans : shard_plan list;
  scopes : bool array array;
  coordinator : int;
  comp_nodes : int;
  overlap : float;
  mode : mode;
}

(* Below this the per-root oracle depth [Q + D + 1] is cheap (a 2-unit
   min-cost flow per core node), so shards explore unscoped under it
   and the merged map is exact by Theorem 1; above, exploration is
   scoped to the ownership cell plus its ring. *)
let small_exact_threshold = 300

(* A mapper's single cable necessarily leads to a switch; hosts wired
   only to other hosts (adversarial fuzz fabrics) cannot map. *)
let attach_switch g m =
  match Graph.wired_ports g m with
  | (_, (s, _)) :: _ when not (Graph.is_host g s) -> Some s
  | _ -> None

let spread_mappers g ~count =
  let hosts = Array.of_list (Graph.hosts g) in
  let n = Array.length hosts in
  if n = 0 then []
  else begin
    let count = max 1 (min count n) in
    (* Clamping plus sort_uniq: even when [count] exceeds the host
       population the placement is distinct hosts, never repeats. *)
    let idxs = List.init count (fun i -> i * n / count) in
    List.map (fun i -> hosts.(i)) (List.sort_uniq compare idxs)
  end

let trim map ~center ~radius =
  let dist = Analysis.bfs_distances map center in
  let keep v =
    if Graph.is_host map v then
      v = center
      ||
      match Graph.neighbor map (v, 0) with
      | Some (sw, _) -> dist.(sw) <= radius
      | None -> false
    else dist.(v) <= radius
  in
  Graph.induced map ~keep

(* Switch-only BFS (worms cannot transit hosts): distances and parent
   pointers from one switch, for threading anchor paths. *)
let switch_bfs g s0 =
  let n = Graph.num_nodes g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let q = Queue.create () in
  dist.(s0) <- 0;
  Queue.add s0 q;
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    List.iter
      (fun (_, (w, _)) ->
        if (not (Graph.is_host g w)) && dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          parent.(w) <- v;
          Queue.add w q
        end)
      (Graph.wired_ports g v)
  done;
  (dist, parent)

(* Ownership: seeded multi-source BFS over switches from each mapper's
   attachment switch, owner inherited from the discovering neighbour —
   connected Voronoi-style cells, deterministic in shard order.
   [owner.(v)] is the shard owning switch [v], or -1. *)
let ownership g chosen ~in_comp =
  let owner = Array.make (Graph.num_nodes g) (-1) in
  let q = Queue.create () in
  Array.iteri
    (fun i m ->
      match attach_switch g m with
      | Some s when owner.(s) < 0 ->
        owner.(s) <- i;
        Queue.add s q
      | _ -> ())
    chosen;
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    List.iter
      (fun (_, (w, _)) ->
        if (not (Graph.is_host g w)) && owner.(w) < 0 && in_comp w then begin
          owner.(w) <- owner.(v);
          Queue.add w q
        end)
      (Graph.wired_ports g v)
  done;
  owner

(* Advisory probe budget of an unscoped shard exploring to [depth]. *)
let unscoped_budget g depth = 8 * Graph.num_wires g * depth

(* The plan from its per-shard parts: counts each cell and scope (a
   scope covers its switches and the hosts attached to them) and
   elects the coordinator, the highest-address mapper. *)
let assemble g ~seed ~mode ~chosen ~dist0 ~owner ~radius ~depth ~budget
    ~scopes =
  let n = Graph.num_nodes g and k = Array.length chosen in
  let owned = Array.make k 0 in
  Array.iter (fun o -> if o >= 0 then owned.(o) <- owned.(o) + 1) owner;
  let covered =
    Array.map
      (fun scope ->
        let c = ref 0 in
        for v = 0 to n - 1 do
          if
            scope.(v)
            || (Graph.is_host g v
               &&
               match attach_switch g v with
               | Some s -> scope.(s)
               | None -> false)
          then incr c
        done;
        !c)
      scopes
  in
  let comp_nodes =
    Array.fold_left (fun acc d -> if d < max_int then acc + 1 else acc) 0 dist0
  in
  let coordinator = ref 0 in
  Array.iteri
    (fun i m -> if m > chosen.(!coordinator) then coordinator := i)
    chosen;
  let plans =
    List.init k (fun i ->
        {
          idx = i;
          mapper = chosen.(i);
          mapper_name = Graph.name g chosen.(i);
          radius = radius.(i);
          depth = depth.(i);
          budget = budget.(i);
          owned = owned.(i);
          covered = covered.(i);
        })
  in
  let overlap =
    if comp_nodes = 0 then 1.0
    else
      float_of_int (Array.fold_left ( + ) 0 covered) /. float_of_int comp_nodes
  in
  {
    seed;
    shards = k;
    plans;
    scopes;
    coordinator = !coordinator;
    comp_nodes;
    overlap;
    mode;
  }

let plan ?(seed = 0) ?root ?(responding = fun _ -> true) g ~shards =
  if shards < 1 then Error "shard count must be >= 1"
  else begin
    let n = Graph.num_nodes g in
    let all_hosts = Graph.hosts g in
    let eligible h = responding h && attach_switch g h <> None in
    let base =
      match root with
      | Some r -> if eligible r then Some r else None
      | None -> List.find_opt eligible all_hosts
    in
    match base with
    | None -> Error "no eligible mapper host"
    | Some m0 -> (
      let dist0 = Analysis.bfs_distances g m0 in
      let in_comp v = dist0.(v) < max_int in
      let chosen =
        let cand =
          Array.of_list
            (List.filter (fun h -> h <> m0 && eligible h && in_comp h) all_hosts)
        in
        let len = Array.length cand in
        let others =
          let k = min (shards - 1) len in
          if k <= 0 then []
          else begin
            let rng = Prng.create (seed lxor 0x5A4D) in
            let off = Prng.int rng len in
            List.init k (fun i -> cand.((off + (i * len / k)) mod len))
          end
        in
        Array.of_list (m0 :: others)
      in
      let k = Array.length chosen in
      let owner = ownership g chosen ~in_comp in
      let dist = Array.map (fun m -> Analysis.bfs_distances g m) chosen in
      let small = n <= small_exact_threshold in
      let radius = Array.make k 1 in
      let scopes = Array.init k (fun _ -> Array.make n false) in
      let error = ref None in
      if small then begin
        (* Small graphs: trust balls. The radius covers the own cell
           plus one hop, so every cross-cell wire lies inside its
           owner's ball; anchor widening then grows balls until every
           shard pair shares a responding host. *)
        for v = 0 to n - 1 do
          let o = owner.(v) in
          if o >= 0 && dist.(o).(v) < max_int then
            radius.(o) <- max radius.(o) (dist.(o).(v) + 1)
        done;
        let ecc =
          Array.map
            (fun d ->
              Array.fold_left
                (fun acc x -> if x < max_int then max acc x else acc)
                0 d)
            dist
        in
        let host_kept i h =
          h = chosen.(i)
          ||
          match attach_switch g h with
          | Some s -> dist.(i).(s) <= radius.(i)
          | None -> false
        in
        let shares i j =
          List.exists
            (fun h ->
              responding h && Graph.degree g h > 0 && host_kept i h
              && host_kept j h)
            all_hosts
        in
        let changed = ref true in
        let guard = ref 0 in
        while !changed && !guard < 64 do
          changed := false;
          incr guard;
          for i = 0 to k - 1 do
            for j = i + 1 to k - 1 do
              if not (shares i j) then begin
                if radius.(i) < ecc.(i) then begin
                  radius.(i) <- radius.(i) + 1;
                  changed := true
                end;
                if radius.(j) < ecc.(j) then begin
                  radius.(j) <- radius.(j) + 1;
                  changed := true
                end
              end
            done
          done
        done;
        (* Scopes mirror the balls (the stale-view injector uses them
           to pick wires every involved shard actually maps). *)
        for i = 0 to k - 1 do
          for v = 0 to n - 1 do
            if (not (Graph.is_host g v)) && dist.(i).(v) <= radius.(i) then
              scopes.(i).(v) <- true
          done
        done
      end
      else begin
        (* Large fabrics: ownership-scoped exploration. A shard fully
           expands its own cell plus the one-switch ring around it —
           so every cross-cell wire has both port frames in its
           owner's view — and nothing else. On low-diameter fabrics
           this, not any distance ball, is what makes a shard
           strictly cheaper than the global mapper. *)
        for v = 0 to n - 1 do
          if (not (Graph.is_host g v)) && owner.(v) >= 0 then begin
            scopes.(owner.(v)).(v) <- true;
            List.iter
              (fun (_, (w, _)) ->
                if (not (Graph.is_host g w)) && owner.(w) >= 0 then
                  scopes.(owner.(w)).(v) <- true)
              (Graph.wired_ports g v)
          end
        done;
        (* The mapper's attachment switch is always in scope, even
           when a rival seed claimed it. *)
        Array.iteri
          (fun i m ->
            match attach_switch g m with
            | Some s -> scopes.(i).(s) <- true
            | None -> ())
          chosen;
        (* Anchor threading: Merge_maps joins two views only at a
           shared uniquely-named host. Cell boundaries can be purely
           hostless (core/aggregation switches), so for each shard
           pair without a naturally shared host, designate one and
           thread a switch path to its edge switch into both scopes. *)
        let view_host i h =
          h = chosen.(i)
          || Graph.degree g h > 0
             && responding h
             &&
             match attach_switch g h with
             | Some s -> scopes.(i).(s)
             | None -> false
        in
        let parents = Array.make k None in
        let bfs_of i =
          match parents.(i) with
          | Some p -> p
          | None ->
            let p =
              switch_bfs g (Option.get (attach_switch g chosen.(i)))
            in
            parents.(i) <- Some p;
            p
        in
        let thread i s =
          let sdist, parent = bfs_of i in
          if sdist.(s) = max_int then false
          else begin
            let v = ref s in
            while !v >= 0 do
              scopes.(i).(!v) <- true;
              v := parent.(!v)
            done;
            true
          end
        in
        let anchors =
          List.filter
            (fun h ->
              responding h && Graph.degree g h > 0
              && attach_switch g h <> None
              && in_comp h)
            all_hosts
        in
        (* Seam anchoring. Merge_maps identifies two views' anonymous
           switches only along shared wires reachable from a shared
           named host. A seam — one connected component of the scope
           intersection of two shards — that carries no responding
           host would merge as duplicate switch copies (and a third
           view wired to both copies then binds inconsistently), so
           every hostless seam component gets the switch path to its
           nearest responding host threaded into both scopes. *)
        let has_host v =
          List.exists
            (fun (_, (w, _)) -> Graph.is_host g w && responding w)
            (Graph.wired_ports g v)
        in
        let seam_anchor i j =
          let inter v =
            (not (Graph.is_host g v)) && scopes.(i).(v) && scopes.(j).(v)
          in
          let seen = Array.make n false in
          let threaded = ref false in
          for s0 = 0 to n - 1 do
            if inter s0 && not seen.(s0) then begin
              let comp = ref [] in
              let pinned = ref false in
              let q = Queue.create () in
              seen.(s0) <- true;
              Queue.add s0 q;
              while not (Queue.is_empty q) do
                let v = Queue.take q in
                comp := v :: !comp;
                if has_host v then pinned := true;
                List.iter
                  (fun (_, (w, _)) ->
                    if inter w && not seen.(w) then begin
                      seen.(w) <- true;
                      Queue.add w q
                    end)
                  (Graph.wired_ports g v)
              done;
              if not !pinned then begin
                let bdist = Array.make n max_int in
                let parent = Array.make n (-1) in
                let q = Queue.create () in
                List.iter
                  (fun v ->
                    bdist.(v) <- 0;
                    Queue.add v q)
                  !comp;
                let goal = ref (-1) in
                (try
                   while not (Queue.is_empty q) do
                     let v = Queue.take q in
                     if has_host v then begin
                       goal := v;
                       raise Exit
                     end;
                     List.iter
                       (fun (_, (w, _)) ->
                         if (not (Graph.is_host g w)) && bdist.(w) = max_int
                         then begin
                           bdist.(w) <- bdist.(v) + 1;
                           parent.(w) <- v;
                           Queue.add w q
                         end)
                       (Graph.wired_ports g v)
                   done
                 with Exit -> ());
                if !goal < 0 then begin
                  error :=
                    Some
                      (Printf.sprintf
                         "shards %d and %d: seam component has no \
                          reachable anchor host"
                         i j);
                  raise Exit
                end;
                let v = ref !goal in
                while !v >= 0 do
                  scopes.(i).(!v) <- true;
                  scopes.(j).(!v) <- true;
                  v := parent.(!v)
                done;
                threaded := true
              end
            end
          done;
          !threaded
        in
        (try
           (* Threading for one pair widens scopes and can open a new
              (possibly hostless) seam with a third shard: iterate to
              a fixpoint. Each round only adds scope, so this
              terminates; the guard is belt and braces. *)
           let again = ref true in
           let rounds = ref 0 in
           while !again && !rounds < 8 do
             again := false;
             incr rounds;
             for i = 0 to k - 1 do
               for j = i + 1 to k - 1 do
                 if seam_anchor i j then again := true
               done
             done
           done;
           for i = 0 to k - 1 do
             for j = i + 1 to k - 1 do
               if not (List.exists (fun h -> view_host i h && view_host j h) anchors)
               then begin
                 let best = ref None in
                 List.iter
                   (fun h ->
                     let s = Option.get (attach_switch g h) in
                     let di = dist.(i).(s) and dj = dist.(j).(s) in
                     if di < max_int && dj < max_int then
                       match !best with
                       | Some (c, _) when c <= di + dj -> ()
                       | _ -> best := Some (di + dj, s))
                   anchors;
                 match !best with
                 | None ->
                   error :=
                     Some
                       (Printf.sprintf
                          "shards %d and %d can share no anchor host" i j);
                   raise Exit
                 | Some (_, s) ->
                   if not (thread i s && thread j s) then begin
                     error :=
                       Some
                         (Printf.sprintf
                            "shards %d and %d cannot reach an anchor host"
                            i j);
                     raise Exit
                   end
               end
             done
           done
         with Exit -> ());
        (* The trim radius must keep everything the shard explores. *)
        for i = 0 to k - 1 do
          for v = 0 to n - 1 do
            if scopes.(i).(v) && dist.(i).(v) < max_int then
              radius.(i) <- max radius.(i) (dist.(i).(v) + 1)
          done
        done
      end;
      match !error with
      | Some e -> Error e
      | None ->
        let depth =
          Array.init k (fun i ->
              if small then
                max (radius.(i) + 2)
                  (Core_set.search_depth g ~root:chosen.(i))
              else
                (* Probe paths stay within the scoped region; the
                   margin absorbs window-pruning detours (discovery
                   paths a little longer than the BFS distance). *)
                radius.(i) + 4)
        in
        let budget =
          Array.init k (fun i ->
              if small then unscoped_budget g depth.(i)
              else begin
                (* Scoped switches are fully expanded; switches one
                   ring beyond still get their ports filled in, and
                   on a thin seam-threaded scope that frontier can
                   outweigh the interior. *)
                let frontier = Array.make n false in
                let ports = ref 0 in
                for v = 0 to n - 1 do
                  if scopes.(i).(v) then begin
                    ports := !ports + Graph.degree g v;
                    List.iter
                      (fun (_, (w, _)) ->
                        if
                          (not (Graph.is_host g w))
                          && not scopes.(i).(w)
                        then frontier.(w) <- true)
                      (Graph.wired_ports g v)
                  end
                done;
                for v = 0 to n - 1 do
                  if frontier.(v) then ports := !ports + Graph.degree g v
                done;
                (* Every such port is probed once per replicate of
                   its switch; replicates multiply with both the
                   exploration depth and the switch radix (each
                   expansion seeds up to radix fresh routes). The
                   5/8-radix factor bounds the churn measured on the
                   fat-tree presets (radix 16 and 32, 4 and 8
                   shards) with 1.2-2x headroom. *)
                (5 * Graph.radix g * !ports * depth.(i) / 8) + 64
              end)
        in
        Ok
          (assemble g ~seed
             ~mode:(if small then Oracle else Scoped)
             ~chosen ~dist0 ~owner ~radius ~depth ~budget ~scopes))
  end

let local g ~mappers ~depth ~radius =
  if mappers < 1 then Error "mapper count must be >= 1"
  else
    match spread_mappers g ~count:mappers with
    | [] -> Error "no mapper host"
    | ms ->
      let chosen = Array.of_list ms in
      let k = Array.length chosen in
      let dist0 = Analysis.bfs_distances g chosen.(0) in
      let owner = ownership g chosen ~in_comp:(fun v -> dist0.(v) < max_int) in
      (* The scope is the trust ball: the stale-view injector picks
         wires from it. Exploration itself is unscoped. *)
      let scopes =
        Array.map
          (fun m ->
            let d = Analysis.bfs_distances g m in
            Array.mapi (fun v x -> (not (Graph.is_host g v)) && x <= radius) d)
          chosen
      in
      Ok
        (assemble g ~seed:0 ~mode:Local ~chosen ~dist0 ~owner
           ~radius:(Array.make k radius) ~depth:(Array.make k depth)
           ~budget:(Array.make k (unscoped_budget g depth))
           ~scopes)

let distances g t =
  Array.of_list
    (List.map (fun sp -> Analysis.bfs_distances g sp.mapper) t.plans)

let pp ppf t =
  Format.fprintf ppf
    "plan seed=%d shards=%d comp=%d overlap=%.2f coordinator=%d%s@."
    t.seed t.shards t.comp_nodes t.overlap t.coordinator
    (match t.mode with
    | Oracle -> " (oracle depths)"
    | Scoped -> ""
    | Local -> " (local regions)");
  List.iter
    (fun sp ->
      Format.fprintf ppf
        "  shard %d: mapper=%s owned=%d covered=%d radius=%d depth=%d budget=%d@."
        sp.idx sp.mapper_name sp.owned sp.covered sp.radius sp.depth sp.budget)
    t.plans
