type handle = {
  label : string;
  cluster_hosts : Graph.node list;
  cluster_switches : Graph.node list;
  roots : Graph.node list;
  utility : Graph.node option;
}

type subcluster_spec = {
  sc_label : string;
  hosts_per_leaf : int list;
  uplinks_per_leaf : int list;
  num_mids : int;
  mid_uplinks : int list;
  num_roots : int;
  utility_host : bool;
}

(* Figure 3 rows.  Interfaces = leaf hosts + utility host:
   A: 33 + 1 = 34, 7 + 4 + 2 = 13 switches, 34 + 21 + 9 = 64 links.
   B: 29 + 1 = 30, 6 + 5 + 3 = 14 switches, 30 + 18 + 17 = 65 links.
   C: 35 + 1 = 36, 7 + 4 + 2 = 13 switches, 36 + 20 + 8 = 64 links. *)
let spec_a =
  {
    sc_label = "A";
    hosts_per_leaf = [ 5; 5; 5; 5; 5; 5; 3 ];
    uplinks_per_leaf = [ 3; 3; 3; 3; 3; 3; 3 ];
    num_mids = 4;
    mid_uplinks = [ 2; 2; 2; 3 ];
    num_roots = 2;
    utility_host = true;
  }

let spec_b =
  {
    sc_label = "B";
    hosts_per_leaf = [ 5; 5; 5; 5; 5; 4 ];
    uplinks_per_leaf = [ 3; 3; 3; 3; 3; 3 ];
    num_mids = 5;
    mid_uplinks = [ 3; 3; 3; 4; 4 ];
    num_roots = 3;
    utility_host = true;
  }

let spec_c =
  {
    sc_label = "C";
    hosts_per_leaf = [ 5; 5; 5; 5; 5; 5; 5 ];
    (* The middle leaf switch lost one uplink ("the third was faulty
       and removed, but never replaced" — Figure 4). *)
    uplinks_per_leaf = [ 3; 3; 3; 2; 3; 3; 3 ];
    num_mids = 4;
    mid_uplinks = [ 2; 2; 2; 2 ];
    num_roots = 2;
    utility_host = true;
  }

let lowest_free_port g n =
  match Graph.free_ports g n with
  | [] ->
    invalid_arg
      (Printf.sprintf "Generators: switch %d (%s) out of ports" n
         (Graph.name g n))
  | p :: _ -> p

let wire g a b =
  Graph.connect g (a, lowest_free_port g a) (b, lowest_free_port g b)

let attach_host g sw ~name =
  let h = Graph.add_host g ~name in
  Graph.connect g (h, 0) (sw, lowest_free_port g sw);
  h

let build_subcluster g spec =
  if List.length spec.hosts_per_leaf <> List.length spec.uplinks_per_leaf then
    invalid_arg "Generators.build_subcluster: leaf list length mismatch";
  if List.length spec.mid_uplinks <> spec.num_mids then
    invalid_arg "Generators.build_subcluster: mid list length mismatch";
  let lbl = spec.sc_label in
  let leaves =
    List.mapi
      (fun i _ -> Graph.add_switch g ~name:(Printf.sprintf "%s-leaf%d" lbl i) ())
      spec.hosts_per_leaf
  in
  let mids =
    List.init spec.num_mids (fun i ->
        Graph.add_switch g ~name:(Printf.sprintf "%s-mid%d" lbl i) ())
  in
  let roots =
    List.init spec.num_roots (fun i ->
        Graph.add_switch g ~name:(Printf.sprintf "%s-root%d" lbl i) ())
  in
  let host_counter = ref 0 in
  let hosts = ref [] in
  List.iter2
    (fun leaf count ->
      for _ = 1 to count do
        let name = Printf.sprintf "%s-h%d" lbl !host_counter in
        incr host_counter;
        hosts := attach_host g leaf ~name :: !hosts
      done)
    leaves spec.hosts_per_leaf;
  (* Leaf uplinks spread round-robin over the mid switches. *)
  let mid_arr = Array.of_list mids in
  let mid_cursor = ref 0 in
  List.iter2
    (fun leaf uplinks ->
      for _ = 1 to uplinks do
        wire g leaf mid_arr.(!mid_cursor mod Array.length mid_arr);
        incr mid_cursor
      done)
    leaves spec.uplinks_per_leaf;
  (* Mid uplinks spread round-robin over the roots. *)
  let root_arr = Array.of_list roots in
  let root_cursor = ref 0 in
  List.iter2
    (fun mid uplinks ->
      for _ = 1 to uplinks do
        wire g mid root_arr.(!root_cursor mod Array.length root_arr);
        incr root_cursor
      done)
    mids (List.map2 (fun _ u -> u) mids spec.mid_uplinks);
  let utility =
    if spec.utility_host then
      Some (attach_host g (List.hd roots) ~name:(Printf.sprintf "%s-util" lbl))
    else None
  in
  let hosts = List.rev !hosts @ Option.to_list utility in
  {
    label = lbl;
    cluster_hosts = hosts;
    cluster_switches = leaves @ mids @ roots;
    roots;
    utility;
  }

let subcluster ?radix spec =
  let g = Graph.create ?radix () in
  let h = build_subcluster g spec in
  (g, h)

let now ?radix specs =
  let g = Graph.create ?radix () in
  let handles = List.map (build_subcluster g) specs in
  let rec link_chain = function
    | a :: (b :: _ as rest) ->
      let pick_root handle i =
        let candidates =
          List.filter (fun r -> Graph.free_ports g r <> []) handle.roots
        in
        match candidates with
        | [] -> invalid_arg "Generators.now: no spare root ports for cross links"
        | l -> List.nth l (i mod List.length l)
      in
      (* Two root-to-root wires join adjacent subclusters. *)
      for i = 0 to 1 do
        wire g (pick_root a i) (pick_root b i)
      done;
      link_chain rest
    | [ _ ] | [] -> ()
  in
  link_chain handles;
  (g, handles)

let now_c () = subcluster spec_c

let now_ca () = now [ spec_c; spec_a ]

let now_cab () = now [ spec_c; spec_a; spec_b ]

let fat_tree ?radix ~leaves ~hosts_per_leaf ~spines () =
  let g = Graph.create ?radix () in
  let spine_sw =
    List.init spines (fun i -> Graph.add_switch g ~name:(Printf.sprintf "spine%d" i) ())
  in
  for l = 0 to leaves - 1 do
    let leaf = Graph.add_switch g ~name:(Printf.sprintf "leaf%d" l) () in
    for h = 0 to hosts_per_leaf - 1 do
      ignore (attach_host g leaf ~name:(Printf.sprintf "h%d-%d" l h))
    done;
    List.iter (fun s -> wire g leaf s) spine_sw
  done;
  g

let hypercube ?(radix = 8) ~dim () =
  if dim + 1 > radix then invalid_arg "Generators.hypercube: dim+1 > radix";
  let g = Graph.create ~radix () in
  let n = 1 lsl dim in
  let sw =
    Array.init n (fun i -> Graph.add_switch g ~name:(Printf.sprintf "cube%d" i) ())
  in
  for i = 0 to n - 1 do
    for b = 0 to dim - 1 do
      let j = i lxor (1 lsl b) in
      if i < j then wire g sw.(i) sw.(j)
    done;
    ignore (attach_host g sw.(i) ~name:(Printf.sprintf "h%d" i))
  done;
  g

let grid ?(radix = 8) ~rows ~cols ~wrap () =
  if rows < 1 || cols < 1 then invalid_arg "Generators.mesh: empty grid";
  let g = Graph.create ~radix () in
  let sw =
    Array.init rows (fun r ->
        Array.init cols (fun c ->
            Graph.add_switch g ~name:(Printf.sprintf "s%d-%d" r c) ()))
  in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then wire g sw.(r).(c) sw.(r).(c + 1)
      else if wrap && cols > 1 then wire g sw.(r).(c) sw.(r).(0);
      if r + 1 < rows then wire g sw.(r).(c) sw.(r + 1).(c)
      else if wrap && rows > 1 then wire g sw.(r).(c) sw.(0).(c);
      ignore (attach_host g sw.(r).(c) ~name:(Printf.sprintf "h%d-%d" r c))
    done
  done;
  g

let mesh ?radix ~rows ~cols () = grid ?radix ~rows ~cols ~wrap:false ()
let torus ?radix ~rows ~cols () = grid ?radix ~rows ~cols ~wrap:true ()

let ring ?radix ~switches ~hosts_per_switch () =
  if switches < 1 then invalid_arg "Generators.ring: need a switch";
  let g = Graph.create ?radix () in
  let sw =
    Array.init switches (fun i ->
        Graph.add_switch g ~name:(Printf.sprintf "r%d" i) ())
  in
  for i = 0 to switches - 1 do
    if switches > 1 then wire g sw.(i) sw.((i + 1) mod switches);
    for h = 0 to hosts_per_switch - 1 do
      ignore (attach_host g sw.(i) ~name:(Printf.sprintf "h%d-%d" i h))
    done
  done;
  g

let star ?radix ~leaves () =
  let g = Graph.create ?radix () in
  let hub = Graph.add_switch g ~name:"hub" () in
  for i = 0 to leaves - 1 do
    let leaf = Graph.add_switch g ~name:(Printf.sprintf "leaf%d" i) () in
    wire g hub leaf;
    ignore (attach_host g leaf ~name:(Printf.sprintf "h%d" i))
  done;
  g

let cube_connected_cycles ?(radix = 8) ~dim () =
  if dim < 3 then invalid_arg "Generators.cube_connected_cycles: dim >= 3";
  if radix < 4 then invalid_arg "Generators.cube_connected_cycles: radix >= 4";
  let g = Graph.create ~radix () in
  let corners = 1 lsl dim in
  let sw =
    Array.init corners (fun w ->
        Array.init dim (fun i ->
            Graph.add_switch g ~name:(Printf.sprintf "ccc%d-%d" w i) ()))
  in
  for w = 0 to corners - 1 do
    for i = 0 to dim - 1 do
      (* cycle edge *)
      wire g sw.(w).(i) sw.(w).((i + 1) mod dim);
      (* hypercube edge, once per pair *)
      let w' = w lxor (1 lsl i) in
      if w < w' then wire g sw.(w).(i) sw.(w').(i);
      ignore (attach_host g sw.(w).(i) ~name:(Printf.sprintf "h%d-%d" w i))
    done
  done;
  g

let shuffle_exchange ?(radix = 8) ~dim () =
  if dim < 2 then invalid_arg "Generators.shuffle_exchange: dim >= 2";
  let g = Graph.create ~radix () in
  let n = 1 lsl dim in
  let sw =
    Array.init n (fun v -> Graph.add_switch g ~name:(Printf.sprintf "se%d" v) ())
  in
  let rot v = ((v lsl 1) land (n - 1)) lor (v lsr (dim - 1)) in
  let seen = Hashtbl.create 64 in
  let once a b =
    let key = if a < b then (a, b) else (b, a) in
    if a <> b && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      wire g sw.(a) sw.(b)
    end
  in
  for v = 0 to n - 1 do
    once v (v lxor 1);
    once v (rot v)
  done;
  for v = 0 to n - 1 do
    ignore (attach_host g sw.(v) ~name:(Printf.sprintf "h%d" v))
  done;
  g

let chain ?radix ~switches () =
  if switches < 1 then invalid_arg "Generators.chain: need a switch";
  let g = Graph.create ?radix () in
  let sw =
    Array.init switches (fun i ->
        Graph.add_switch g ~name:(Printf.sprintf "c%d" i) ())
  in
  for i = 0 to switches - 2 do
    wire g sw.(i) sw.(i + 1)
  done;
  ignore (attach_host g sw.(0) ~name:"h0");
  ignore (attach_host g sw.(0) ~name:"h1");
  g

let pendant_branch () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~name:"core0" () in
  let s1 = Graph.add_switch g ~name:"core1" () in
  wire g s0 s1;
  wire g s0 s1;
  (* doubled link: not a bridge *)
  ignore (attach_host g s0 ~name:"h0");
  ignore (attach_host g s0 ~name:"h1");
  ignore (attach_host g s1 ~name:"h2");
  (* A hostless tail behind a switch-bridge: s1 - t0 - t1. *)
  let t0 = Graph.add_switch g ~name:"tail0" () in
  let t1 = Graph.add_switch g ~name:"tail1" () in
  wire g s1 t0;
  wire g t0 t1;
  g

(* The two degenerate single-interface fabrics of the turn-0
   self-probe ambiguity (fuzz-campaign bug 3): an exploration that
   confirms nothing behind the mapper's cable looks identical in both
   until the self-probe either bounces off the stub switch or dies on
   the unwired cable. *)
let lone_host () =
  let g = Graph.create () in
  ignore (Graph.add_host g ~name:"h0");
  g

let stub_switch () =
  let g = Graph.create () in
  let s = Graph.add_switch g ~name:"s0" () in
  ignore (attach_host g s ~name:"h0");
  g

let random_connected ~rng ~switches ~hosts ~extra_links ?radix () =
  if switches < 1 then invalid_arg "Generators.random_connected: need a switch";
  if hosts < 2 then invalid_arg "Generators.random_connected: need two hosts";
  let g = Graph.create ?radix () in
  let sw =
    Array.init switches (fun i ->
        Graph.add_switch g ~name:(Printf.sprintf "s%d" i) ())
  in
  (* Random spanning tree: attach each new switch to a uniformly random
     earlier one that still has a free port. *)
  for i = 1 to switches - 1 do
    let candidates = ref [] in
    for j = 0 to i - 1 do
      if Graph.free_ports g sw.(j) <> [] then candidates := sw.(j) :: !candidates
    done;
    match !candidates with
    | [] -> invalid_arg "Generators.random_connected: ports exhausted"
    | l -> wire g sw.(i) (List.nth l (San_util.Prng.int rng (List.length l)))
  done;
  (* Extra links between random distinct-port pairs. *)
  let tries = ref (extra_links * 10) in
  let added = ref 0 in
  while !added < extra_links && !tries > 0 do
    decr tries;
    let a = sw.(San_util.Prng.int rng switches) in
    let b = sw.(San_util.Prng.int rng switches) in
    let ok_ports =
      match (Graph.free_ports g a, Graph.free_ports g b) with
      | pa :: _, pb :: _ when a <> b || pa <> pb -> Some (pa, pb)
      | pa :: pb :: _, _ when a = b -> Some (pa, pb)
      | _ -> None
    in
    match ok_ports with
    | Some (pa, pb) when a <> b || pa <> pb ->
      Graph.connect g (a, pa) (b, pb);
      incr added
    | _ -> ()
  done;
  (* Hosts on random switches with spare ports. *)
  for h = 0 to hosts - 1 do
    let candidates =
      Array.to_list sw |> List.filter (fun s -> Graph.free_ports g s <> [])
    in
    match candidates with
    | [] -> invalid_arg "Generators.random_connected: no port left for host"
    | l ->
      let s = List.nth l (San_util.Prng.int rng (List.length l)) in
      ignore (attach_host g s ~name:(Printf.sprintf "h%d" h))
  done;
  g
