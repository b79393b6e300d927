(* Per-channel fabric counters, keyed by the wire end a worm's head
   exits through (the event simulator's arbitration key). *)

open San_topology

type port_stat = {
  mutable transits : int;
  mutable occupied_ns : float;
  mutable blocked_ns : float;
  mutable collisions : int;
  mutable drops : int;
}

type t = { tbl : (Graph.wire_end, port_stat) Hashtbl.t }

let create () = { tbl = Hashtbl.create 256 }
let clear t = Hashtbl.reset t.tbl

let slot : t option ref = ref None
let install t = slot := Some t
let uninstall () = slot := None
let current () = !slot

let stat t key =
  match Hashtbl.find_opt t.tbl key with
  | Some s -> s
  | None ->
    let s =
      { transits = 0; occupied_ns = 0.0; blocked_ns = 0.0; collisions = 0;
        drops = 0 }
    in
    Hashtbl.add t.tbl key s;
    s

let transit t key =
  let s = stat t key in
  s.transits <- s.transits + 1

let occupied t key ns =
  let s = stat t key in
  s.occupied_ns <- s.occupied_ns +. ns

let blocked t key ns =
  let s = stat t key in
  s.blocked_ns <- s.blocked_ns +. ns

let collision t key =
  let s = stat t key in
  s.collisions <- s.collisions + 1

let drop t key =
  let s = stat t key in
  s.drops <- s.drops + 1

let port_stat t key = Hashtbl.find_opt t.tbl key

let total_transits t =
  Hashtbl.fold (fun _ s acc -> acc + s.transits) t.tbl 0

type link = {
  ends : Graph.wire_end * Graph.wire_end;
  l_transits : int;
  l_occupied_ns : float;
  l_blocked_ns : float;
  l_collisions : int;
  l_drops : int;
  utilization : float;
}

(* A wire's two directed channels are keyed by its two ends (each
   direction exits through one of them); the undirected view sums
   both. *)
let raw_link t (e1, e2) =
  let get k =
    Option.value ~default:
      { transits = 0; occupied_ns = 0.0; blocked_ns = 0.0; collisions = 0;
        drops = 0 }
      (Hashtbl.find_opt t.tbl k)
  in
  let a = get e1 and b = get e2 in
  {
    ends = (if e1 <= e2 then (e1, e2) else (e2, e1));
    l_transits = a.transits + b.transits;
    l_occupied_ns = a.occupied_ns +. b.occupied_ns;
    l_blocked_ns = a.blocked_ns +. b.blocked_ns;
    l_collisions = a.collisions + b.collisions;
    l_drops = a.drops + b.drops;
    utilization = 0.0;
  }

let links t g =
  let raw = List.map (raw_link t) (Graph.wires g) in
  let max_occ = List.fold_left (fun m l -> Float.max m l.l_occupied_ns) 0.0 raw in
  let max_tr = List.fold_left (fun m l -> max m l.l_transits) 0 raw in
  let util l =
    if max_occ > 0.0 then l.l_occupied_ns /. max_occ
    else if max_tr > 0 then float_of_int l.l_transits /. float_of_int max_tr
    else 0.0
  in
  let by_ends =
    List.map (fun l -> (l.ends, { l with utilization = util l })) raw
  in
  (* The hottest-link ordering lives in Analysis so heat queries and
     post-mortem map rendering rank links identically. *)
  Analysis.hottest_links g ~weight:(fun ends ->
      match List.assoc_opt ends by_ends with
      | Some l -> l.utilization
      | None -> 0.0)
  |> List.map (fun (ends, _) -> List.assoc ends by_ends)

let heat t g =
  let by_ends = List.map (fun l -> (l.ends, l.utilization)) (links t g) in
  fun (e1, e2) ->
    let key = if e1 <= e2 then (e1, e2) else (e2, e1) in
    Option.value ~default:0.0 (List.assoc_opt key by_ends)
