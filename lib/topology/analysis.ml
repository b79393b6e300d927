(* The one breadth-first search. Sources sit in [queue.(first ..
   last-1)] with [dist] 0, and every node not yet reached has [dist]
   [max_int]. Ports are scanned in place through [Graph.peer], in port
   order, so nothing is allocated. Returns the new tail: [queue.(first ..
   tail-1)] holds the sources and every node they reach, in visiting
   order (nondecreasing distance). *)
let bfs g ~dist ~queue ~first ~last =
  let head = ref first and tail = ref last in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for p = 0 to Graph.ports_of g u - 1 do
      match Graph.peer g u p with
      | Some (w, _) when dist.(w) = max_int ->
        dist.(w) <- du;
        queue.(!tail) <- w;
        incr tail
      | Some _ | None -> ()
    done
  done;
  !tail

let bfs_arrays g =
  let n = Graph.num_nodes g in
  (Array.make n max_int, Array.make n 0)

(* BFS from one source into [dist]/[queue]; returns the tail. *)
let bfs_from g ~dist ~queue src =
  dist.(src) <- 0;
  queue.(0) <- src;
  bfs g ~dist ~queue ~first:0 ~last:1

let bfs_distances g src =
  let dist, queue = bfs_arrays g in
  ignore (bfs_from g ~dist ~queue src);
  dist

let distance g a b =
  let d = (bfs_distances g a).(b) in
  if d = max_int then None else Some d

(* The last node visited is the farthest; resetting just the visited
   nodes leaves [dist] all [max_int] for the next source. *)
let eccentricity_into g ~dist ~queue src =
  let tail = bfs_from g ~dist ~queue src in
  let ecc = dist.(queue.(tail - 1)) in
  for i = 0 to tail - 1 do
    dist.(queue.(i)) <- max_int
  done;
  ecc

let diameter g =
  let dist, queue = bfs_arrays g in
  Graph.fold_nodes g ~init:0 ~f:(fun acc n ->
      max acc (eccentricity_into g ~dist ~queue n))

let sorted_slice queue first tail =
  let a = Array.sub queue first (tail - first) in
  Array.sort compare a;
  Array.to_list a

(* Components are disjoint, so one [dist] marks every node seen and
   each search appends its component to [queue] after the last. *)
let components g =
  let dist, queue = bfs_arrays g in
  let comps = ref [] and last = ref 0 in
  for start = 0 to Graph.num_nodes g - 1 do
    if dist.(start) = max_int then begin
      dist.(start) <- 0;
      queue.(!last) <- start;
      let tail = bfs g ~dist ~queue ~first:!last ~last:(!last + 1) in
      comps := sorted_slice queue !last tail :: !comps;
      last := tail
    end
  done;
  List.rev !comps

let component_of g n =
  let dist, queue = bfs_arrays g in
  sorted_slice queue 0 (bfs_from g ~dist ~queue n)

let is_connected g =
  Graph.num_nodes g <= 1 || List.length (components g) = 1

let farthest_switch_from_hosts g ~ignore =
  let considered_hosts =
    List.filter (fun h -> not (List.mem h ignore)) (Graph.hosts g)
  in
  match (Graph.switches g, considered_hosts) with
  | [], _ | _, [] -> None
  | sws, hs ->
    let dist, queue = bfs_arrays g in
    let last =
      List.fold_left
        (fun i h ->
          dist.(h) <- 0;
          queue.(i) <- h;
          i + 1)
        0 hs
    in
    let (_ : int) = bfs g ~dist ~queue ~first:0 ~last in
    let best =
      List.fold_left
        (fun best s ->
          if dist.(s) = max_int then best
          else
            match best with
            | Some (_, d) when d >= dist.(s) -> best
            | _ -> Some (s, dist.(s)))
        None sws
    in
    Option.map fst best

(* Weighted link ranking: the telemetry layer scores each wire (by
   occupancy, transit counts, route loads, ...) and this orders them
   hottest first, ties broken by the canonical end pair so post-mortem
   renderings are stable across runs. *)
let hottest_links g ~weight =
  Graph.wires g
  |> List.map (fun ends -> (ends, weight ends))
  |> List.sort (fun (ea, wa) (eb, wb) ->
         match compare wb wa with 0 -> compare ea eb | c -> c)
