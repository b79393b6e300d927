(* Conflicts are typed so a layer above (San_shard's merger) can
   classify a contradiction and locate the offending evidence in the
   absorbed map. *)
type conflict_class =
  | No_anchor
  | Unanchorable
  | Frame_mismatch
  | Port_clash
  | Name_clash
  | Structural

type conflict = {
  cls : conflict_class;
  detail : string;
  b_node : int option;
  b_wire : ((int * int) * (int * int)) option;
}

let class_name = function
  | No_anchor -> "no-anchor"
  | Unanchorable -> "unanchorable"
  | Frame_mismatch -> "frame-mismatch"
  | Port_clash -> "port-clash"
  | Name_clash -> "name-clash"
  | Structural -> "structural"

exception Conflict of conflict

let fail ?node ?wire cls fmt =
  Printf.ksprintf
    (fun s ->
      raise (Conflict { cls; detail = s; b_node = node; b_wire = wire }))
    fmt

(* The union under construction uses offset-tolerant slot tables: node
   [u]'s slot [i] is an arbitrary integer, normalised to real ports at
   export. *)
type unode = {
  u_id : int;
  u_kind : Graph.kind;
  u_name : string;
  slots : (int, int * int) Hashtbl.t; (* slot -> (peer unode id, peer slot) *)
}

type state = {
  mutable nodes : unode array;
  mutable count : int;
  hosts : (string, int) Hashtbl.t;
  radix : int;
}

let new_node st kind name =
  let u =
    { u_id = st.count; u_kind = kind; u_name = name; slots = Hashtbl.create 4 }
  in
  if st.count >= Array.length st.nodes then begin
    let arr = Array.make (max 16 (2 * Array.length st.nodes)) u in
    Array.blit st.nodes 0 arr 0 st.count;
    st.nodes <- arr
  end;
  st.nodes.(st.count) <- u;
  st.count <- st.count + 1;
  if kind = Graph.Host then Hashtbl.replace st.hosts name u.u_id;
  u

let add_uwire ?node ?wire st a ia b ib =
  let ua = st.nodes.(a) and ub = st.nodes.(b) in
  let put u i peer =
    match Hashtbl.find_opt u.slots i with
    | None -> Hashtbl.replace u.slots i peer
    | Some existing ->
      if existing <> peer then
        (* Same peer at a different slot means the two views disagree
           on a port frame; a different peer means two cables claim
           one port. *)
        let cls =
          if fst existing = fst peer then Frame_mismatch else Port_clash
        in
        fail ?node ?wire cls "port conflict at union node %d slot %d" u.u_id i
  in
  put ua ia (b, ib);
  put ub ib (a, ia)

(* Seed the state with map [a] verbatim. *)
let of_graph a =
  let st =
    { nodes = [||]; count = 0; hosts = Hashtbl.create 32; radix = Graph.radix a }
  in
  let id_of = Array.make (Graph.num_nodes a) (-1) in
  List.iter
    (fun n ->
      let u = new_node st (Graph.kind a n) (Graph.name a n) in
      id_of.(n) <- u.u_id)
    (Graph.nodes a);
  List.iter
    (fun ((n1, p1), (n2, p2)) -> add_uwire st id_of.(n1) p1 id_of.(n2) p2)
    (Graph.wires a);
  st

(* Integrate map [b]: anchored propagation with per-node shifts. *)
let integrate st b =
  if Graph.radix b <> st.radix then fail Structural "radix mismatch between maps";
  let n = Graph.num_nodes b in
  let match_of : (int * int) option array = Array.make n None in
  let queue = Queue.create () in
  let bind ?wire v (uid, shift) =
    let u = st.nodes.(uid) in
    if Graph.kind b v <> u.u_kind then
      fail ~node:v ?wire Name_clash
        "kind mismatch binding map node %d to union node %d" v uid;
    (match u.u_kind with
    | Graph.Host ->
      if Graph.name b v <> u.u_name then
        fail ~node:v ?wire Name_clash "host name mismatch: %s vs %s"
          (Graph.name b v) u.u_name
    | Graph.Switch -> ());
    match match_of.(v) with
    | Some (uid', shift') ->
      if uid' <> uid || shift' <> shift then
        fail ~node:v ?wire Frame_mismatch
          "map node %d binds inconsistently (%d@%d vs %d@%d)" v uid' shift'
          uid shift
    | None ->
      match_of.(v) <- Some (uid, shift);
      Queue.add v queue
  in
  (* Anchors: hosts shared by name. *)
  let seeded = ref false in
  List.iter
    (fun h ->
      match Hashtbl.find_opt st.hosts (Graph.name b h) with
      | Some uid ->
        seeded := true;
        bind h (uid, 0)
      | None -> ())
    (Graph.hosts b);
  if not !seeded then fail No_anchor "maps share no host anchor";
  (* Two-phase fixpoint. Identification must never outrun evidence:
     first propagate bindings and record wires between already-bound
     nodes until nothing more follows; only then materialise a single
     fresh node for some unbound neighbour of a bound node, and go
     back to propagating. Creating fresh nodes eagerly would duplicate
     switches that later evidence identifies. *)
  let bound : int list ref = ref [] in
  let drain_bindings () =
    while not (Queue.is_empty queue) do
      let v = Queue.take queue in
      bound := v :: !bound;
      let uid, shift = Option.get match_of.(v) in
      let u = st.nodes.(uid) in
      List.iter
        (fun (p, (w, q)) ->
          let slot = p + shift in
          let wire = ((v, p), (w, q)) in
          match Hashtbl.find_opt u.slots slot with
          | Some (peer_uid, peer_slot) ->
            bind ~wire w (peer_uid, peer_slot - q)
          | None -> (
            match match_of.(w) with
            | Some (wid, wshift) ->
              add_uwire ~node:w ~wire st uid slot wid (q + wshift)
            | None -> () (* deferred to the creation phase *)))
        (Graph.wired_ports b v)
    done
  in
  let create_one () =
    (* Find one bound node with an unbound neighbour across an unknown
       wire; prefer host neighbours (their identity is certain). *)
    let candidate pred =
      List.find_map
        (fun v ->
          let uid, shift = Option.get match_of.(v) in
          let u = st.nodes.(uid) in
          List.find_map
            (fun (p, (w, q)) ->
              if
                match_of.(w) = None
                && (not (Hashtbl.mem u.slots (p + shift)))
                && pred w
              then Some (v, p, uid, p + shift, w, q)
              else None)
            (Graph.wired_ports b v))
        !bound
    in
    match
      (candidate (fun w -> Graph.is_host b w),
       candidate (fun _ -> true))
    with
    | Some c, _ | None, Some c -> (
      let v, p, uid, slot, w, q = c in
      let wire = ((v, p), (w, q)) in
      match Graph.kind b w with
      | Graph.Host -> (
        match Hashtbl.find_opt st.hosts (Graph.name b w) with
        | Some wid ->
          (* The union knows this host but not this wire (the far map
             saw a link this one lacks). *)
          bind ~wire w (wid, 0);
          add_uwire ~node:w ~wire st uid slot wid q;
          true
        | None ->
          let fresh = new_node st Graph.Host (Graph.name b w) in
          bind ~wire w (fresh.u_id, 0);
          add_uwire ~node:w ~wire st uid slot fresh.u_id q;
          true)
      | Graph.Switch ->
        let fresh = new_node st Graph.Switch (Graph.name b w) in
        bind ~wire w (fresh.u_id, 0);
        add_uwire ~node:w ~wire st uid slot fresh.u_id q;
        true)
    | None, None -> false
  in
  let continue = ref true in
  while !continue do
    drain_bindings ();
    continue := create_one ()
  done;
  (* Every b node must have been anchored. *)
  Array.iteri
    (fun v m ->
      if m = None && Graph.degree b v > 0 then
        fail ~node:v Unanchorable
          "map node %d is not connected to any shared anchor" v)
    match_of

let export st =
  let g = Graph.create ~radix:st.radix () in
  let node_of = Array.make st.count (-1) in
  let base = Array.make st.count 0 in
  for i = 0 to st.count - 1 do
    let u = st.nodes.(i) in
    let idxs = Hashtbl.fold (fun k _ acc -> k :: acc) u.slots [] in
    (match idxs with
    | [] -> ()
    | x :: r ->
      let lo = List.fold_left min x r and hi = List.fold_left max x r in
      if hi - lo > st.radix - 1 then
        fail Structural "union node %d: slot span exceeds radix" i;
      base.(i) <- lo);
    node_of.(i) <-
      (match u.u_kind with
      | Graph.Host -> Graph.add_host g ~name:u.u_name
      | Graph.Switch -> Graph.add_switch g ~name:u.u_name ())
  done;
  for i = 0 to st.count - 1 do
    let u = st.nodes.(i) in
    Hashtbl.iter
      (fun slot (peer, pslot) ->
        if (i, slot) <= (peer, pslot) then
          Graph.connect g
            (node_of.(i), slot - base.(i))
            (node_of.(peer), pslot - base.(peer)))
      u.slots
  done;
  g

let union_c a b =
  match
    let st = of_graph a in
    integrate st b;
    export st
  with
  | g -> Ok g
  | exception Conflict c -> Error c
  | exception Invalid_argument m ->
    Error { cls = Structural; detail = m; b_node = None; b_wire = None }
