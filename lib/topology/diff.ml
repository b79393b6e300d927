type change =
  | Host_added of string
  | Host_removed of string
  | Switch_added of int
  | Switch_removed of int
  | Link_added of Graph.wire_end * Graph.wire_end
  | Link_removed of Graph.wire_end * Graph.wire_end

let describe g (n, p) =
  if Graph.is_host g n then Graph.name g n
  else
    let nm = Graph.name g n in
    Format.sprintf "%s:%d" (if nm = "" then Printf.sprintf "sw%d" n else nm) p

let pp_change ~old_map ~new_map ppf = function
  | Host_added n -> Format.fprintf ppf "host %s appeared" n
  | Host_removed n -> Format.fprintf ppf "host %s vanished" n
  | Switch_added i -> Format.fprintf ppf "new switch (node %d)" i
  | Switch_removed i -> Format.fprintf ppf "switch gone (was node %d)" i
  | Link_added (a, b) ->
    Format.fprintf ppf "new link %s -- %s" (describe new_map a)
      (describe new_map b)
  | Link_removed (a, b) ->
    Format.fprintf ppf "link lost %s -- %s" (describe old_map a)
      (describe old_map b)

(* Phase 1: align the two maps as far as the evidence agrees, exactly
   like Iso/Merge_maps, but dropping (not failing on) contradictions. *)
let correspond ~old_map ~new_map =
  let n_old = Graph.num_nodes old_map in
  let fwd : (int * int) option array = Array.make n_old None in
  let bwd = Hashtbl.create 64 in
  let queue = Queue.create () in
  let bind o n shift =
    match fwd.(o) with
    | Some _ -> () (* keep the first, evidence-ordered, binding *)
    | None ->
      if not (Hashtbl.mem bwd n) then begin
        fwd.(o) <- Some (n, shift);
        Hashtbl.replace bwd n o;
        Queue.add o queue
      end
  in
  List.iter
    (fun h ->
      match Graph.host_by_name new_map (Graph.name old_map h) with
      | Some h' -> bind h h' 0
      | None -> ())
    (Graph.hosts old_map);
  while not (Queue.is_empty queue) do
    let o = Queue.take queue in
    let n, shift = Option.get fwd.(o) in
    List.iter
      (fun (p, (w_old, q_old)) ->
        match
          try Graph.neighbor new_map (n, p + shift)
          with Invalid_argument _ -> None
        with
        | Some (w_new, q_new) ->
          let kinds_agree =
            match (Graph.kind old_map w_old, Graph.kind new_map w_new) with
            | Graph.Host, Graph.Host ->
              Graph.name old_map w_old = Graph.name new_map w_new
            | Graph.Switch, Graph.Switch -> true
            | _ -> false
          in
          if kinds_agree then bind w_old w_new (q_new - q_old)
        | None -> ())
      (Graph.wired_ports old_map o)
  done;
  (fwd, bwd)

let diff ~old_map ~new_map =
  let fwd, bwd = correspond ~old_map ~new_map in
  let changes = ref [] in
  let add c = changes := c :: !changes in
  (* Hosts by name. *)
  List.iter
    (fun h ->
      if Graph.host_by_name new_map (Graph.name old_map h) = None then
        add (Host_removed (Graph.name old_map h)))
    (Graph.hosts old_map);
  List.iter
    (fun h ->
      if Graph.host_by_name old_map (Graph.name new_map h) = None then
        add (Host_added (Graph.name new_map h)))
    (Graph.hosts new_map);
  (* Switches that never aligned. *)
  List.iter
    (fun s -> if fwd.(s) = None then add (Switch_removed s))
    (Graph.switches old_map);
  List.iter
    (fun s -> if not (Hashtbl.mem bwd s) then add (Switch_added s))
    (Graph.switches new_map);
  (* Wires between matched nodes: one is kept when the other map wires
     the matched ends together, at the same ports up to each end's
     shift. *)
  let wired g a b =
    (try Graph.neighbor g a with Invalid_argument _ -> None) = Some b
  in
  List.iter
    (fun (((a, pa) as ea), ((b, pb) as eb)) ->
      match (fwd.(a), fwd.(b)) with
      | Some (a', sa), Some (b', sb) ->
        if not (wired new_map (a', pa + sa) (b', pb + sb)) then
          add (Link_removed (ea, eb))
      | _ -> ())
    (Graph.wires old_map);
  List.iter
    (fun (((a', pa') as ea), ((b', pb') as eb)) ->
      match (Hashtbl.find_opt bwd a', Hashtbl.find_opt bwd b') with
      | Some a, Some b ->
        let sa = snd (Option.get fwd.(a)) and sb = snd (Option.get fwd.(b)) in
        if not (wired old_map (a, pa' - sa) (b, pb' - sb)) then
          add (Link_added (ea, eb))
      | _ -> ())
    (Graph.wires new_map);
  List.rev !changes

let is_unchanged ~old_map ~new_map = diff ~old_map ~new_map = []
