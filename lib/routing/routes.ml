open San_topology
open San_simnet

type generation = unit ref

(* One row of cells per destination: the route from host slot [s] to
   host slot [d] sits at [routes.(d).(s)], slots numbering hosts by
   ascending id, each cell of the store [cells]. A row no compile
   changed is the previous table's row, physically. [Cell.none] marks
   the diagonal and unreachable pairs. *)
type t = {
  rt_graph : Graph.t;
  rt_ud : Updown.t;
  hosts : Graph.node array;
  host_slot : int array; (* node -> slot; -1 for switches *)
  cells : Cell.t;
  routes : int array array;
  (* The compiles' record, for the next table's compile; [None] for
     [rng] and [prefer] tables, which walk pair by pair. *)
  record : Paths.record option;
  generation : generation;
  (* The previous table's generation, when this table was compiled
     against one with the same hosts by name; then [changed] holds the
     index of every pair whose route differs from it. *)
  previous : generation option;
  changed : int array;
  rewalked : int;
}

let graph t = t.rt_graph
let updown t = t.rt_ud
let cells t = t.cells
let generation t = t.generation
let previous_generation t = t.previous
let rewalked t = t.rewalked

let iter_changed t f =
  let nh = Array.length t.hosts in
  Array.iter (fun k -> f t.hosts.(k mod nh) t.hosts.(k / nh)) t.changed

(* Each node of [g] paired with the node of [old] of the same name and
   kind, -1 where there is none or the name is not unique on either
   side: a partial injection, built once. *)
let counterparts old g =
  let owner = Hashtbl.create (Graph.num_nodes old) in
  for o = 0 to Graph.num_nodes old - 1 do
    let name = Graph.name old o in
    Hashtbl.replace owner name (if Hashtbl.mem owner name then -1 else o)
  done;
  let node = Array.make (Graph.num_nodes g) (-1) in
  let taken = Array.make (Graph.num_nodes old) (-1) in
  for n = 0 to Graph.num_nodes g - 1 do
    match Hashtbl.find_opt owner (Graph.name g n) with
    | Some o when o >= 0 && Graph.is_host old o = Graph.is_host g n ->
      if taken.(o) = -1 then begin
        taken.(o) <- n;
        node.(n) <- o
      end
      else begin
        if taken.(o) >= 0 then node.(taken.(o)) <- -1;
        taken.(o) <- -2
      end
    | Some _ | None -> ()
  done;
  node

(* The previous table's rows laid out as rows over [hosts]: the route
   between the counterparts of two hosts, [Cell.none] where either has
   none. [slot.(i)] is host [i]'s counterpart's slot in [old], or -1.
   When every host keeps its slot the rows are the previous table's,
   physically, until a compile writes into one. *)
let previous_rows old slot =
  let nh = Array.length slot in
  let rec same i = i = nh || (slot.(i) = i && same (i + 1)) in
  if nh = Array.length old.hosts && same 0 then Array.copy old.routes
  else
    Array.map
      (fun od ->
        if od < 0 then Array.make nh Cell.none
        else
          let row = old.routes.(od) in
          Array.map (fun os -> if os < 0 then Cell.none else row.(os)) slot)
      slot

let compute ?rng ?prefer ?root ?ignore_hosts ?labeling ?previous g =
  San_obs.Obs.with_span "routes.compute" (fun () ->
      let ud = Updown.build ?root ?ignore_hosts ?labeling g in
      let pt = Paths.compute ud in
      let hosts = Array.of_list (Graph.hosts g) in
      let nh = Array.length hosts in
      let host_slot = Array.make (Graph.num_nodes g) (-1) in
      Array.iteri (fun slot h -> host_slot.(h) <- slot) hosts;
      let rewalked = ref 0 and skipped = ref 0 in
      let changed = ref [] and linked = ref None in
      let fresh () = Array.init nh (fun _ -> Array.make nh Cell.none) in
      (* A table compiled against the previous one keeps its store, so
         kept cells stay readable and equal routes stay equal cells; a
         previous table of another radix, another cell layout, is not
         used. *)
      let previous =
        match (rng, prefer, previous) with
        | None, None, Some ({ record = Some record; _ } as old)
          when Cell.radix old.cells = Graph.radix g ->
          Some (old, record)
        | _ -> None
      in
      let cells =
        match previous with
        | Some (old, _) -> old.cells
        | None -> Cell.create ~radix:(Graph.radix g)
      in
      let routes, record =
        match (rng, prefer) with
        | None, None ->
          (* Start from the previous table's rows, which [compile]
             keeps wherever the walk did not change; a row is copied
             only when a changed cell is stored into it. List the
             changed pairs when both tables have the same hosts. *)
          let routes, prior =
            match previous with
            | Some (old, record) ->
              let node = counterparts old.rt_graph g in
              let slot =
                Array.map
                  (fun h -> if node.(h) < 0 then -1 else old.host_slot.(node.(h)))
                  hosts
              in
              let same_hosts =
                Array.length old.hosts = nh && Array.for_all (fun s -> s >= 0) slot
              in
              if same_hosts then linked := Some old.generation;
              let routes = previous_rows old slot in
              let set d i cell =
                let row = routes.(d) in
                let row =
                  if d < Array.length old.routes && row == old.routes.(d) then begin
                    let copy = Array.copy row in
                    routes.(d) <- copy;
                    copy
                  end
                  else row
                in
                row.(i) <- cell;
                if same_hosts then changed := ((d * nh) + i) :: !changed
              in
              (routes, Some (Paths.prior pt record ~node ~set))
            | None -> (fresh (), None)
          in
          (* Destinations grouped by anchor, each with its row: one
             compile per edge switch, not per host, and none for an
             anchor whose routes provably stayed. *)
          let behind = Array.make (Graph.num_nodes g) [] in
          for d = nh - 1 downto 0 do
            let a = Paths.anchor pt hosts.(d) in
            behind.(a) <- (hosts.(d), d) :: behind.(a)
          done;
          Array.iteri
            (fun anchor dsts ->
              if dsts <> [] then
                match prior with
                | Some p when Paths.reuse p pt ~anchor ~dsts -> incr skipped
                | Some _ | None ->
                  rewalked :=
                    !rewalked
                    + Paths.compile ?prior pt ~cells ~anchor ~dsts ~srcs:hosts
                        ~into:routes)
            behind;
          (routes, Some (Paths.record pt))
        | _ ->
          (* Pair by pair, destination-major so each destination's
             distance vector is computed once, and seeded draws are
             consumed one per hop in walk order. *)
          let routes = fresh () in
          let buf = Array.make (Graph.num_nodes g + 1) 0 in
          Array.iteri
            (fun d dst ->
              Array.iteri
                (fun s src ->
                  if s <> d then
                    match Paths.route_into ?rng ?prefer pt ~src ~dst ~buf with
                    | -1 -> ()
                    | len ->
                      routes.(d).(s) <- Cell.pack cells buf len;
                      incr rewalked)
                hosts)
            hosts;
          (routes, None)
      in
      if San_obs.Obs.on () then begin
        let pairs =
          Array.fold_left
            (Array.fold_left (fun n c -> if c = Cell.none then n else n + 1))
            0 routes
        in
        let unreachable = (nh * (nh - 1)) - pairs in
        San_obs.Obs.count ~by:pairs "routes.pairs";
        San_obs.Obs.count ~by:unreachable "routes.unreachable";
        San_obs.Obs.count ~by:!skipped "routes.anchors_skipped";
        Array.iter
          (Array.iter (fun c ->
               if c <> Cell.none then
                 San_obs.Obs.observe "routes.turns"
                   (float_of_int (Cell.length cells c))))
          routes;
        San_obs.Obs.emit (San_obs.Trace.Route_computed { pairs; unreachable })
      end;
      {
        rt_graph = g;
        rt_ud = ud;
        hosts;
        host_slot;
        cells;
        routes;
        record;
        generation = ref ();
        previous = !linked;
        changed = (if !linked = None then [||] else Array.of_list (List.rev !changed));
        rewalked = !rewalked;
      })

let cell t ~src ~dst =
  let n = Array.length t.host_slot in
  if src < 0 || dst < 0 || src >= n || dst >= n then Cell.none
  else
    let s = t.host_slot.(src) and d = t.host_slot.(dst) in
    if s < 0 || d < 0 then Cell.none else t.routes.(d).(s)

let route t ~src ~dst = Cell.to_route t.cells (cell t ~src ~dst)

(* Every route in (src, dst) order, decoded one cell at a time. *)
let iter t f =
  let nh = Array.length t.hosts in
  for s = 0 to nh - 1 do
    for d = 0 to nh - 1 do
      Option.iter (f t.hosts.(s) t.hosts.(d)) (Cell.to_route t.cells t.routes.(d).(s))
    done
  done

let all t =
  let acc = ref [] in
  iter t (fun src dst r -> acc := (src, dst, r) :: !acc);
  List.rev !acc

let unreachable_pairs t =
  let nh = Array.length t.hosts in
  let acc = ref [] in
  for s = nh - 1 downto 0 do
    for d = nh - 1 downto 0 do
      if s <> d && t.routes.(d).(s) = Cell.none then
        acc := (t.hosts.(s), t.hosts.(d)) :: !acc
    done
  done;
  !acc

type length_stats = { pairs : int; min_len : int; avg_len : float; max_len : int }

let length_stats t =
  let n = ref 0 and mn = ref max_int and mx = ref 0 and sum = ref 0 in
  Array.iter
    (Array.iter (fun c ->
         if c <> Cell.none then begin
           let len = Cell.length t.cells c in
           incr n;
           mn := min !mn len;
           mx := max !mx len;
           sum := !sum + len
         end))
    t.routes;
  if !n = 0 then { pairs = 0; min_len = 0; avg_len = 0.0; max_len = 0 }
  else
    {
      pairs = !n;
      min_len = !mn;
      avg_len = float_of_int !sum /. float_of_int !n;
      max_len = !mx;
    }

let channel_loads t =
  let loads = Hashtbl.create 256 in
  iter t (fun src _ turns ->
      let trace = Worm.eval t.rt_graph ~src ~turns in
      List.iter
        (fun (h : Worm.hop) ->
          let k = h.Worm.exit_end in
          Hashtbl.replace loads k
            (1 + Option.value ~default:0 (Hashtbl.find_opt loads k)))
        trace.Worm.hops);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) loads []
  |> List.sort (fun (k1, a) (k2, b) ->
         match Int.compare b a with 0 -> compare k1 k2 | c -> c)

let verify_delivery ?against t =
  let target = Option.value against ~default:t.rt_graph in
  let translate n =
    if target == t.rt_graph then Some n
    else Graph.host_by_name target (Graph.name t.rt_graph n)
  in
  let problems = ref 0 and first = ref "" in
  let problem msg =
    incr problems;
    if !first = "" then first := Lazy.force msg
  in
  iter t (fun src dst turns ->
      match (translate src, translate dst) with
      | Some s, Some d -> (
        let trace = Worm.eval target ~src:s ~turns in
        match trace.Worm.outcome with
        | Worm.Arrived h when h = d -> ()
        | outcome ->
          problem
            (lazy
              (Format.asprintf "route %s->%s (%a): %a" (Graph.name target s)
                 (Graph.name t.rt_graph dst) Route.pp turns Worm.pp_outcome
                 outcome)))
      | None, _ | _, None ->
        problem
          (lazy (Printf.sprintf "hosts of pair (%d,%d) missing from target" src dst)));
  if !problems = 0 then Ok ()
  else Error (Printf.sprintf "%d bad routes; first: %s" !problems !first)

let verify_updown t =
  let problems = ref 0 in
  let first = ref "" in
  iter t (fun src _ turns ->
      let trace = Worm.eval t.rt_graph ~src ~turns in
      let path = Worm.path_nodes t.rt_graph ~src trace in
      if not (Updown.valid_path t.rt_ud path) then begin
        incr problems;
        if !first = "" then
          first := Format.asprintf "route from %d: %a" src Route.pp turns
      end);
  if !problems = 0 then Ok ()
  else Error (Printf.sprintf "%d non-compliant routes; first: %s" !problems !first)
