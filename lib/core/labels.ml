open San_topology
open San_simnet

type vertex = {
  id : int;
  vkind : [ `Host of string | `Switch ];
  probe : Route.t;
  mutable label : int;
  nbrs : (int, edge) Hashtbl.t; (* own frame index -> edge *)
}

and edge = {
  mutable va : vertex;
  mutable ia : int;
  mutable vb : vertex;
  mutable ib : int;
}

type result = {
  map : (Graph.t, string) Stdlib.result;
  tree_vertices : int;
  labels : int;
  host_probes : int;
  switch_probes : int;
}

exception Unresolved of string

(* Re-index a single vertex's frame by [s]. *)
let shift_vertex w s =
  if s <> 0 then begin
    let entries = Hashtbl.fold (fun i e acc -> (i, e) :: acc) w.nbrs [] in
    Hashtbl.reset w.nbrs;
    List.iter
      (fun (i, e) ->
        let i' = i + s in
        if e.va == w && e.ia = i then e.ia <- i'
        else if e.vb == w && e.ib = i then e.ib <- i';
        Hashtbl.replace w.nbrs i' e)
      entries
  end

let run ?(depth = Berkeley.Oracle) net ~mapper =
  let g = Network.graph net in
  if not (Graph.is_host g mapper) then
    invalid_arg "Labels.run: mapper must be a host";
  Network.reset_stats net;
  let depth_used =
    match depth with
    | Berkeley.Oracle -> Core_set.search_depth g ~root:mapper
    | Berkeley.Fixed d -> d
  in
  let next_id = ref 0 in
  let next_label = ref 0 in
  let fresh_label () =
    incr next_label;
    !next_label - 1
  in
  let host_labels : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let label_of_host name =
    match Hashtbl.find_opt host_labels name with
    | Some l -> l
    | None ->
      let l = fresh_label () in
      Hashtbl.replace host_labels name l;
      l
  in
  let vertices = ref [] in
  let mk kind probe label =
    let v = { id = !next_id; vkind = kind; probe; label; nbrs = Hashtbl.create 4 } in
    incr next_id;
    vertices := v :: !vertices;
    v
  in
  let connect v i w j =
    let e = { va = v; ia = i; vb = w; ib = j } in
    if Hashtbl.mem v.nbrs i || Hashtbl.mem w.nbrs j then
      raise (Unresolved "tree slot used twice");
    Hashtbl.replace v.nbrs i e;
    Hashtbl.replace w.nbrs j e
  in
  (* INITIALIZATION: the root host-vertex and its adjacent switch. *)
  let mapper_name = Graph.name g mapper in
  let root_host = mk (`Host mapper_name) [] (label_of_host mapper_name) in
  let root_switch = mk `Switch [] (fresh_label ()) in
  connect root_switch 0 root_host 0;
  (* EXPLORE: breadth-first over probe strings, nothing skipped. *)
  let frontier = Queue.create () in
  Queue.add root_switch frontier;
  let turns =
    List.concat
      (List.init (Graph.radix g - 1) (fun i -> [ i + 1; -(i + 1) ]))
  in
  let continue = ref true in
  while !continue do
    match Queue.take_opt frontier with
    | None -> continue := false
    | Some v when List.length v.probe >= depth_used -> ()
    | Some v ->
      List.iter
        (fun turn ->
          let probe = v.probe @ [ turn ] in
          let sresp, _ = Network.switch_probe net ~src:mapper ~turns:probe in
          if San_why.Why.on () then
            ignore
              (San_why.Why.record_probe ~kind:San_why.Why.Switch_probe
                 ~turns:probe ~resp:(Berkeley.resp_string sresp));
          match sresp with
          | Network.Switch ->
            let child = mk `Switch probe (fresh_label ()) in
            connect v turn child 0;
            Queue.add child frontier
          | Network.Host _ | Network.Nothing -> (
            let hresp, _ = Network.host_probe net ~src:mapper ~turns:probe in
            if San_why.Why.on () then
              ignore
                (San_why.Why.record_probe ~kind:San_why.Why.Host_probe
                   ~turns:probe ~resp:(Berkeley.resp_string hresp));
            match hresp with
            | Network.Host name ->
              let child = mk (`Host name) probe (label_of_host name) in
              connect v turn child 0
            | Network.Switch | Network.Nothing -> ()))
        turns
  done;
  let all = List.rev !vertices in
  (* MERGE: rounds of label deductions until stabilisation (§3.1).
     mergeLabels relabels u2's whole class to u1's label and shifts
     those vertices' frames by j - k. *)
  let other_end e v = if e.va == v then (e.vb, e.ib) else (e.va, e.ia) in
  let merge_labels u1 j u2 k =
    let src = u2.label and tgt = u1.label in
    let s = j - k in
    List.iter
      (fun w ->
        if w.label = src then begin
          w.label <- tgt;
          shift_vertex w s
        end)
      all
  in
  let stabilised = ref false in
  while not !stabilised do
    stabilised := true;
    (* group vertices by label *)
    let by_label = Hashtbl.create 64 in
    List.iter
      (fun v ->
        Hashtbl.replace by_label v.label
          (v :: Option.value ~default:[] (Hashtbl.find_opt by_label v.label)))
      all;
    let deduce () =
      Hashtbl.fold
        (fun _ group found ->
          if found <> None then found
          else
            let rec pairs = function
              | v1 :: rest ->
                let hit =
                  List.find_map
                    (fun v2 ->
                      (* a slot where both have neighbours with
                         different labels *)
                      Hashtbl.fold
                        (fun i e1 acc ->
                          if acc <> None then acc
                          else
                            match Hashtbl.find_opt v2.nbrs i with
                            | None -> None
                            | Some e2 ->
                              let n1, j = other_end e1 v1 in
                              let n2, k = other_end e2 v2 in
                              if n1.label <> n2.label then Some (n1, j, n2, k)
                              else None)
                        v1.nbrs None)
                    rest
                in
                (match hit with Some _ -> hit | None -> pairs rest)
              | [] -> None
            in
            pairs group)
        by_label None
    in
    match deduce () with
    | Some (n1, j, n2, k) ->
      if San_why.Why.on () then
        ignore
          (San_why.Why.deduce ~rule:"label_merge"
             ~fact:
               (lazy (Printf.sprintf
                  "label %d = label %d (shift %d): equal-labelled parents \
                   disagree at a shared slot"
                  n1.label n2.label (j - k)))
             ());
      merge_labels n1 j n2 k;
      stabilised := false
    | None -> ()
  done;
  let distinct_labels =
    List.sort_uniq compare (List.map (fun v -> v.label) all)
  in
  (* PRUNE + export on the quotient M / L. *)
  let map =
    try
      (* Quotient wires, deduplicated: ((label, idx), (label, idx)). *)
      let wire_of e =
        let a = (e.va.label, e.ia) and b = (e.vb.label, e.ib) in
        if a <= b then (a, b) else (b, a)
      in
      let wires = Hashtbl.create 64 in
      List.iter
        (fun v ->
          Hashtbl.iter (fun _ e -> Hashtbl.replace wires (wire_of e) ()) v.nbrs)
        all;
      let kind_of = Hashtbl.create 64 in
      List.iter
        (fun v ->
          match (Hashtbl.find_opt kind_of v.label, v.vkind) with
          | None, k -> Hashtbl.replace kind_of v.label k
          | Some (`Host a), `Host b when a = b -> ()
          | Some `Switch, `Switch -> ()
          | Some _, _ -> raise (Unresolved "label with conflicting kinds"))
        all;
      (* PRUNE: kill every switch class a single switch-switch
         quotient wire separates from all host classes — the same
         separation criterion as Core_set.separated_set (hostless
         trees AND cycles; a pendant class wired to a host stays). *)
      let dead = Hashtbl.create 16 in
      let live_wires () =
        Hashtbl.fold
          (fun (((la, _), (lb, _)) as w) () acc ->
            if Hashtbl.mem dead la || Hashtbl.mem dead lb then acc else w :: acc)
          wires []
      in
      let reach ~avoid start ws =
        let seen = Hashtbl.create 16 in
        let frontier = Queue.create () in
        Hashtbl.replace seen start ();
        Queue.add start frontier;
        while not (Queue.is_empty frontier) do
          let u = Queue.take frontier in
          List.iter
            (fun (((la, _), (lb, _)) as w) ->
              if w <> avoid then
                let far =
                  if la = u then Some lb
                  else if lb = u then Some la
                  else None
                in
                match far with
                | Some f when not (Hashtbl.mem seen f) ->
                  Hashtbl.replace seen f ();
                  Queue.add f frontier
                | _ -> ())
            ws
        done;
        seen
      in
      List.iter
        (fun (((la, _), (lb, _)) as w) ->
          if
            (not (Hashtbl.mem dead la))
            && (not (Hashtbl.mem dead lb))
            && la <> lb
            && Hashtbl.find kind_of la = `Switch
            && Hashtbl.find kind_of lb = `Switch
          then begin
            let ws = live_wires () in
            let try_side start =
              let seen = reach ~avoid:w start ws in
              let hostless =
                Hashtbl.fold
                  (fun l () acc -> acc && Hashtbl.find kind_of l = `Switch)
                  seen true
              in
              if hostless then
                Hashtbl.iter (fun l () -> Hashtbl.replace dead l ()) seen
            in
            try_side la;
            if not (Hashtbl.mem dead la) then try_side lb
          end)
        (live_wires ());
      (* Slot sanity: each (label, idx) carries at most one wire. *)
      let slot_seen = Hashtbl.create 64 in
      List.iter
        (fun (a, b) ->
          List.iter
            (fun endp ->
              if Hashtbl.mem slot_seen endp then
                raise (Unresolved "quotient slot carries two wires");
              Hashtbl.replace slot_seen endp ())
            [ a; b ])
        (live_wires ());
      (* Export with per-class index normalisation. *)
      let out = Graph.create ~radix:(Graph.radix g) () in
      let node_of = Hashtbl.create 64 in
      let base_of = Hashtbl.create 64 in
      let live_classes =
        List.filter (fun l -> not (Hashtbl.mem dead l)) distinct_labels
      in
      List.iter
        (fun l ->
          let idxs =
            List.concat_map
              (fun ((la, ia), (lb, ib)) ->
                (if la = l then [ ia ] else []) @ if lb = l then [ ib ] else [])
              (live_wires ())
          in
          let base = match idxs with [] -> 0 | i :: r -> List.fold_left min i r in
          Hashtbl.replace base_of l base;
          let node =
            match Hashtbl.find kind_of l with
            | `Host name -> Graph.add_host out ~name
            | `Switch -> Graph.add_switch out ~name:(Printf.sprintf "l%d" l) ()
          in
          Hashtbl.replace node_of l node)
        live_classes;
      List.iter
        (fun ((la, ia), (lb, ib)) ->
          Graph.connect out
            (Hashtbl.find node_of la, ia - Hashtbl.find base_of la)
            (Hashtbl.find node_of lb, ib - Hashtbl.find base_of lb))
        (live_wires ());
      Ok out
    with
    | Unresolved m -> Error m
    | Invalid_argument m -> Error m
  in
  {
    map;
    tree_vertices = !next_id;
    labels = List.length distinct_labels;
    host_probes = Network.host_probes net;
    switch_probes = Network.switch_probes net;
  }
