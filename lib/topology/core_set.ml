type edge = Graph.wire_end * Graph.wire_end

(* Edge arrays in Graph.wires' canonical order, for Dense's linear-time
   machinery. Parallel wires get distinct ids, which is what keeps them
   off the bridge list. *)
let edge_arrays g =
  let edges = Array.of_list (Graph.wires g) in
  let ne = Array.length edges in
  let edge_u = Array.make ne 0 in
  let edge_v = Array.make ne 0 in
  Array.iteri
    (fun i (((a, _), (b, _)) : edge) ->
      edge_u.(i) <- a;
      edge_v.(i) <- b)
    edges;
  (edges, edge_u, edge_v)

let bridges g =
  let edges, edge_u, edge_v = edge_arrays g in
  let flags = Dense.bridge_flags ~nodes:(Graph.num_nodes g) ~edge_u ~edge_v in
  let acc = ref [] in
  for id = Array.length edges - 1 downto 0 do
    if flags.(id) then acc := edges.(id) :: !acc
  done;
  !acc

let switch_bridges g =
  List.filter
    (fun (((a, _), (b, _)) : edge) ->
      Graph.kind g a = Graph.Switch && Graph.kind g b = Graph.Switch)
    (bridges g)

(* Theorem 1's F, in one O(V+E) pass instead of a BFS per bridge:
   Dense.separation marks every node some switch-switch bridge
   separates, along with its whole side, from all hosts. *)
let separated_set g =
  let edges, edge_u, edge_v = edge_arrays g in
  let in_f, _ =
    Dense.separation ~nodes:(Graph.num_nodes g) ~edge_u ~edge_v
      ~is_host:(Graph.is_host g)
      ~candidate:(fun id ->
        let (a, _), (b, _) = edges.(id) in
        Graph.kind g a = Graph.Switch && Graph.kind g b = Graph.Switch)
      ~whole_components:false
  in
  in_f

let core_nodes g =
  let in_f = separated_set g in
  List.filter (fun v -> not in_f.(v)) (Graph.nodes g)

let core_is_empty_f g = Array.for_all not (separated_set g)

(* Q(v) is a 2-unit min-cost flow out of [v] on a residual network
   whose nodes 0..n-1 mirror the graph, with gadgets t_root = n, t_any
   = n+1 and sink = n+2. A wire's two directed channels are distinct
   resources: the confirming worm travels root->v then v->host and may
   cross a wire once in each direction (the root's own cable does
   exactly that in the first-edge/last-edge case), so each arc carries
   up to one unit per walk — capacity 2. The exception is arcs leaving
   [v]: the two walks must depart v through different wires, or the
   concatenated worm would U-turn there (a turn-0 hop the mapper never
   probes mid-route), so a query lowers them to capacity 1.

   One arena serves every node of a graph: arcs live in flat arrays,
   arc [a] and its residual twin are the pair [a lxor 1], and a query
   blits [orig_cap] back. With every exit of [v] and every entry of the
   sink at capacity 1, each augmentation ships exactly one unit, so a
   query is two shortest-path passes of one search. *)
type arena = {
  n : int;
  head : int array;
  nxt : int array;
  dst : int array;
  cap : int array;
  cost : int array;
  orig_cap : int array;
  mutable m : int;
  dist : int array;
  pot : int array;
  prev : int array; (* arc by which the last pass reached a node *)
  bucket : int array; (* bucket.(d): first queue entry at distance d *)
  entry_node : int array;
  entry_next : int array;
}

let add_arc a ~src ~dst ~cap ~cost =
  let push src dst cap cost =
    let i = a.m in
    a.m <- i + 1;
    a.nxt.(i) <- a.head.(src);
    a.head.(src) <- i;
    a.dst.(i) <- dst;
    a.orig_cap.(i) <- cap;
    a.cost.(i) <- cost
  in
  push src dst cap cost;
  push dst src 0 (-cost)

(* [force_root]: one unit must end at [root] (through t_root), the
   other at any host (through t_any). Otherwise both end at any hosts,
   the fallback that can only overestimate Q(v). *)
let arena g ~root ~force_root =
  let n = Graph.num_nodes g in
  let t_root = n and t_any = n + 1 and sink = n + 2 in
  let hosts = Graph.hosts g in
  let arcs =
    2 * ((2 * Graph.num_wires g) + List.length hosts
         + if force_root then 3 else 0)
  in
  let nn = n + 3 in
  let a =
    {
      n;
      head = Array.make nn (-1);
      nxt = Array.make arcs 0;
      dst = Array.make arcs 0;
      cap = Array.make arcs 0;
      cost = Array.make arcs 0;
      orig_cap = Array.make arcs 0;
      m = 0;
      dist = Array.make nn max_int;
      pot = Array.make nn 0;
      prev = Array.make nn (-1);
      (* A shortest path is simple and its arcs cost at most 1, and
         potentials are non-negative, so no distance exceeds nn. *)
      bucket = Array.make (nn + 1) (-1);
      entry_node = Array.make (arcs + 1) 0;
      entry_next = Array.make (arcs + 1) 0;
    }
  in
  List.iter
    (fun (((u, _), (w, _)) : edge) ->
      add_arc a ~src:u ~dst:w ~cap:2 ~cost:1;
      add_arc a ~src:w ~dst:u ~cap:2 ~cost:1)
    (Graph.wires g);
  if force_root then begin
    add_arc a ~src:root ~dst:t_root ~cap:1 ~cost:0;
    List.iter (fun h -> add_arc a ~src:h ~dst:t_any ~cap:1 ~cost:0) hosts;
    add_arc a ~src:t_root ~dst:sink ~cap:1 ~cost:0;
    add_arc a ~src:t_any ~dst:sink ~cap:1 ~cost:0
  end
  else List.iter (fun h -> add_arc a ~src:h ~dst:sink ~cap:1 ~cost:0) hosts;
  a

(* Dijkstra from [v] over residual arcs, on costs reduced by [pot],
   with a bucket queue (small integer distances) whose stale entries
   are skipped; it stops at the sink and returns the sink's reduced
   distance, or [max_int] when the sink is unreachable. Each settled
   node records its [prev] arc. *)
let shortest a v =
  let sink = a.n + 2 in
  let dist = a.dist and pot = a.pot and bucket = a.bucket in
  Array.fill dist 0 (a.n + 3) max_int;
  dist.(v) <- 0;
  a.entry_node.(0) <- v;
  a.entry_next.(0) <- -1;
  bucket.(0) <- 0;
  let entries = ref 1 and live = ref 1 and cur = ref 0 and top = ref 0 in
  let result = ref max_int in
  while !live > 0 && !result = max_int do
    while bucket.(!cur) < 0 do
      incr cur
    done;
    let e = bucket.(!cur) in
    bucket.(!cur) <- a.entry_next.(e);
    decr live;
    let u = a.entry_node.(e) and du = !cur in
    if du = dist.(u) then
      if u = sink then result := du
      else begin
        let arc = ref a.head.(u) in
        while !arc >= 0 do
          let r = !arc in
          if a.cap.(r) > 0 then begin
            let w = a.dst.(r) in
            let dw = du + a.cost.(r) + pot.(u) - pot.(w) in
            if dw < dist.(w) then begin
              dist.(w) <- dw;
              a.prev.(w) <- r;
              let e = !entries in
              incr entries;
              incr live;
              a.entry_node.(e) <- w;
              a.entry_next.(e) <- bucket.(dw);
              bucket.(dw) <- e;
              if dw > !top then top := dw
            end
          end;
          arc := a.nxt.(r)
        done
      end
  done;
  Array.fill bucket !cur (!top - !cur + 1) (-1);
  !result

(* Pass 1 runs with zero potentials, where every residual cost is 0 or
   1 (nothing has flowed yet) and the search is a 0-1 BFS. Pass 2 runs
   on costs reduced by pass 1's distances capped at the sink's, which
   keeps every residual reduced cost non-negative (arcs on the
   augmented path and their twins reduce to 0); nodes pass 1 could not
   reach stay unreachable. *)
let solve a v =
  let nn = a.n + 3 and sink = a.n + 2 in
  Array.blit a.orig_cap 0 a.cap 0 a.m;
  let arc = ref a.head.(v) in
  while !arc >= 0 do
    if a.cap.(!arc) > 1 then a.cap.(!arc) <- 1;
    arc := a.nxt.(!arc)
  done;
  Array.fill a.pot 0 nn 0;
  let d1 = shortest a v in
  if d1 = max_int then None
  else begin
    let w = ref sink in
    while !w <> v do
      let r = a.prev.(!w) in
      a.cap.(r) <- a.cap.(r) - 1;
      a.cap.(r lxor 1) <- a.cap.(r lxor 1) + 1;
      w := a.dst.(r lxor 1)
    done;
    for u = 0 to nn - 1 do
      a.pot.(u) <- min a.dist.(u) d1
    done;
    (* The true cost of pass 2's path adds pot(sink) - pot(v) = d1. *)
    let d2 = shortest a v in
    if d2 = max_int then None else Some (d1 + d2 + d1)
  end

(* Partially applied, [q_of g ~root] builds the forced-root arena once
   (the fallback's on first need) and answers every [v] from them. *)
let q_of g ~root =
  if not (Graph.is_host g root) then
    invalid_arg "Core_set.q_of: root must be a host";
  let forced = arena g ~root ~force_root:true in
  let fallback = lazy (arena g ~root ~force_root:false) in
  fun v ->
    match solve forced v with
    | Some _ as q -> q
    | None -> solve (Lazy.force fallback) v

let q_bound g ~root =
  let in_f = separated_set g in
  let q = q_of g ~root in
  Graph.fold_nodes g ~init:0 ~f:(fun acc v ->
      if in_f.(v) then acc
      else match q v with Some q -> max acc q | None -> acc)

let search_depth g ~root = q_bound g ~root + Analysis.diameter g + 1
