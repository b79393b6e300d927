open San_topology

type t = {
  ud_graph : Graph.t;
  ud_root : Graph.node;
  labels : int array;
  ud_relabeled : Graph.node list;
}

let graph t = t.ud_graph
let root t = t.ud_root
let label t n = t.labels.(n)
let relabeled t = t.ud_relabeled

(* Total order on nodes: smaller is closer to the root. The (label, id)
   pair order on two int compares: no tuples, no polymorphic compare. *)
let before t u v =
  let lu = t.labels.(u) and lv = t.labels.(v) in
  lu < lv || (lu = lv && u < v)

let is_up t u v = before t v u

type labeling = Bfs | Dfs

(* Depth-first preorder numbering; unreachable nodes keep max_int. *)
let dfs_labels g root =
  let labels = Array.make (Graph.num_nodes g) max_int in
  let counter = ref 0 in
  let rec visit n =
    if labels.(n) = max_int then begin
      labels.(n) <- !counter;
      incr counter;
      List.iter (fun (_, (v, _)) -> visit v) (Graph.wired_ports g n)
    end
  in
  visit root;
  labels

let build ?root ?(ignore_hosts = []) ?(labeling = Bfs) g =
  let root =
    match root with
    | Some r -> r
    | None -> (
      match Analysis.farthest_switch_from_hosts g ~ignore:ignore_hosts with
      | Some r -> r
      | None -> (
        (* Degenerate maps are legal: a mapper isolated by faults maps
           to a lone host (or host + pendant switch). Any node then
           gives a trivial total order; routing has no pairs to serve. *)
        match (Graph.switches g, Graph.hosts g) with
        | s :: _, _ -> s
        | [], h :: _ -> h
        | [], [] -> invalid_arg "Updown.build: empty graph"))
  in
  let labels =
    match labeling with
    | Bfs -> Analysis.bfs_distances g root
    | Dfs -> dfs_labels g root
  in
  (* Unreachable nodes keep max_int and are simply never routed to. *)
  let t = { ud_graph = g; ud_root = root; labels; ud_relabeled = [] } in
  (* Locally dominant switches: every neighbour strictly before them
     in the order.  Relabel below the neighbourhood minimum so they
     become extra minima (transitable root-like nodes). *)
  let dominant =
    List.filter
      (fun s ->
        s <> root
        && Graph.degree g s > 0
        && List.for_all (fun (_, (v, _)) -> before t v s) (Graph.wired_ports g s))
      (Graph.switches g)
  in
  List.iter
    (fun s ->
      let m =
        List.fold_left
          (fun acc (_, (v, _)) -> min acc labels.(v))
          max_int (Graph.wired_ports g s)
      in
      labels.(s) <- m - 1)
    dominant;
  let t = { t with ud_relabeled = dominant } in
  if San_why.Why.on () then begin
    let root_did =
      San_why.Why.deduce ~rule:"updown_root"
        ~fact:
          (lazy (Printf.sprintf "up*/down* root: %s (%s labeling%s)"
             (Graph.name g root)
             (match labeling with Bfs -> "BFS" | Dfs -> "DFS")
             (match dominant with
             | [] -> ""
             | l ->
               Printf.sprintf ", %d dominant switch%s relabeled"
                 (List.length l)
                 (if List.length l = 1 then "" else "es"))))
        ()
    in
    List.iter
      (fun ((a, pa), (b, pb)) ->
        let from_, to_ =
          if is_up t a b then ((a, pa), (b, pb)) else ((b, pb), (a, pa))
        in
        let key = San_why.Explain.orientation_key g ~from_ ~to_ in
        let did =
          San_why.Why.deduce ~rule:"updown_orient"
            ~fact:
              (lazy (Printf.sprintf "%s is UP (order %d vs %d from the root)" key
                 t.labels.(fst from_)
                 t.labels.(fst to_)))
            ~deps:[ root_did ] ()
        in
        San_why.Why.note_orientation ~key ~did)
      (Graph.wires g)
  end;
  t

let legal_turn t a b c =
  (* Arrived at b from a; continuing to c must not turn down->up. *)
  let came_down = not (is_up t a b) in
  let going_up = is_up t b c in
  not (came_down && going_up)

let valid_path t = function
  | [] | [ _ ] -> true
  | _ :: _ as path ->
    let rec check = function
      | a :: b :: c :: rest -> legal_turn t a b c && check (b :: c :: rest)
      | _ -> true
    in
    check path
