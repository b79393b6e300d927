(* The reference the suffix compiler is tested against: the default
   route table compiled pair by pair with [Paths.route_into] into a
   source-major dense array — kept literally as [Routes.compute] built
   it before each destination's routes became memoised per-state
   suffixes. Same read-out interface as [San_routing.Routes]; the
   differential test in test_routing.ml runs both on one graph. *)

open San_topology
module Paths = San_routing.Paths
module Updown = San_routing.Updown

(* The route from host slot [s] to host slot [d] sits at
   [routes.(s * nh + d)], slots numbering hosts by ascending id.
   [None] marks the diagonal and unreachable pairs. *)
type t = {
  hosts : Graph.node array;
  host_slot : int array;
  routes : San_simnet.Route.t option array;
}

let compute ?root ?labeling g =
  let pt = Paths.compute (Updown.build ?root ?labeling g) in
  let hosts = Array.of_list (Graph.hosts g) in
  let nh = Array.length hosts in
  let host_slot = Array.make (Graph.num_nodes g) (-1) in
  Array.iteri (fun slot h -> host_slot.(h) <- slot) hosts;
  let routes = Array.make (nh * nh) None in
  let buf = Array.make (Graph.num_nodes g + 1) 0 in
  Array.iteri
    (fun d dst ->
      Array.iteri
        (fun s src ->
          if s <> d then
            match Paths.route_into pt ~src ~dst ~buf with
            | -1 -> ()
            | len ->
              let turns = ref [] in
              for i = len - 1 downto 0 do
                turns := buf.(i) :: !turns
              done;
              routes.((s * nh) + d) <- Some !turns)
        hosts)
    hosts;
  { hosts; host_slot; routes }

let route t ~src ~dst =
  let n = Array.length t.host_slot in
  if src < 0 || dst < 0 || src >= n || dst >= n then None
  else
    let s = t.host_slot.(src) and d = t.host_slot.(dst) in
    if s < 0 || d < 0 then None else t.routes.((s * Array.length t.hosts) + d)

let all t =
  let nh = Array.length t.hosts in
  let acc = ref [] in
  for i = Array.length t.routes - 1 downto 0 do
    match t.routes.(i) with
    | Some r -> acc := (t.hosts.(i / nh), t.hosts.(i mod nh), r) :: !acc
    | None -> ()
  done;
  !acc

let unreachable_pairs t =
  let nh = Array.length t.hosts in
  let acc = ref [] in
  for i = Array.length t.routes - 1 downto 0 do
    if t.routes.(i) = None && i / nh <> i mod nh then
      acc := (t.hosts.(i / nh), t.hosts.(i mod nh)) :: !acc
  done;
  !acc
