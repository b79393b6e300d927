type kind = Host | Switch

type node = int
type port = int
type wire_end = node * port

type info = {
  nkind : kind;
  nname : string;
  peers : wire_end option array; (* indexed by port *)
}

type t = {
  g_radix : int;
  mutable infos : info array;
  mutable count : int;
  mutable wire_count : int;
  mutable edits : int;
  by_name : (string, node) Hashtbl.t;
}

let create ?(radix = 8) () =
  if radix < 1 then invalid_arg "Graph.create: radix must be positive";
  { g_radix = radix; infos = [||]; count = 0; wire_count = 0; edits = 0;
    by_name = Hashtbl.create 64 }

let radix t = t.g_radix
let edits t = t.edits

let grow t info =
  let n = t.count in
  if n >= Array.length t.infos then begin
    let cap = max 8 (2 * Array.length t.infos) in
    let infos =
      Array.init cap (fun i -> if i < n then t.infos.(i) else info)
    in
    t.infos <- infos
  end;
  t.infos.(n) <- info;
  t.count <- n + 1;
  n

let add_host t ~name =
  if name = "" then invalid_arg "Graph.add_host: empty name";
  if Hashtbl.mem t.by_name name then
    invalid_arg ("Graph.add_host: duplicate host name " ^ name);
  let id = grow t { nkind = Host; nname = name; peers = Array.make 1 None } in
  Hashtbl.add t.by_name name id;
  id

let add_switch t ?(name = "") () =
  grow t { nkind = Switch; nname = name; peers = Array.make t.g_radix None }

let check_node t n =
  if n < 0 || n >= t.count then invalid_arg "Graph: no such node"

let info t n =
  check_node t n;
  t.infos.(n)

let kind t n = (info t n).nkind
let is_host t n = (info t n).nkind = Host
let name t n = (info t n).nname
let host_by_name t s = Hashtbl.find_opt t.by_name s

let ports_of t n = Array.length (info t n).peers

let check_port t (n, p) =
  let i = info t n in
  if p < 0 || p >= Array.length i.peers then
    invalid_arg
      (Printf.sprintf "Graph: port %d out of range on node %d" p n)

let connect t ((n1, p1) as e1) ((n2, p2) as e2) =
  check_port t e1;
  check_port t e2;
  if n1 = n2 && p1 = p2 then
    invalid_arg "Graph.connect: wire ends must be distinct";
  let i1 = t.infos.(n1) and i2 = t.infos.(n2) in
  if i1.peers.(p1) <> None then
    invalid_arg (Printf.sprintf "Graph.connect: port (%d,%d) occupied" n1 p1);
  if i2.peers.(p2) <> None then
    invalid_arg (Printf.sprintf "Graph.connect: port (%d,%d) occupied" n2 p2);
  i1.peers.(p1) <- Some e2;
  i2.peers.(p2) <- Some e1;
  t.wire_count <- t.wire_count + 1;
  t.edits <- t.edits + 1

let disconnect t ((n, p) as e) =
  check_port t e;
  match t.infos.(n).peers.(p) with
  | None -> ()
  | Some (n', p') ->
    t.infos.(n).peers.(p) <- None;
    t.infos.(n').peers.(p') <- None;
    t.wire_count <- t.wire_count - 1;
    t.edits <- t.edits + 1

let copy t =
  {
    t with
    infos =
      Array.map (fun i -> { i with peers = Array.copy i.peers }) t.infos;
    by_name = Hashtbl.copy t.by_name;
  }

let induced t ~keep =
  let g = create ~radix:t.g_radix () in
  let id = Array.make t.count (-1) in
  for n = 0 to t.count - 1 do
    if keep n then begin
      let i = t.infos.(n) in
      id.(n) <-
        (match i.nkind with
        | Host -> add_host g ~name:i.nname
        | Switch -> add_switch g ~name:i.nname ())
    end
  done;
  for n = 0 to t.count - 1 do
    if id.(n) >= 0 then
      Array.iteri
        (fun p peer ->
          match peer with
          | Some (n', p')
            when id.(n') >= 0 && (n < n' || (n = n' && p < p')) ->
            connect g (id.(n), p) (id.(n'), p')
          | Some _ | None -> ())
        t.infos.(n).peers
  done;
  g

let num_nodes t = t.count

let count_kind t k =
  let c = ref 0 in
  for i = 0 to t.count - 1 do
    if t.infos.(i).nkind = k then incr c
  done;
  !c

let num_hosts t = count_kind t Host
let num_switches t = count_kind t Switch
let num_wires t = t.wire_count

let neighbor t ((n, p) as e) =
  check_port t e;
  t.infos.(n).peers.(p)

let degree t n =
  let i = info t n in
  Array.fold_left (fun acc p -> if p = None then acc else acc + 1) 0 i.peers

let nodes t = List.init t.count (fun i -> i)

let filter_kind t k =
  List.filter (fun n -> t.infos.(n).nkind = k) (nodes t)

let hosts t = filter_kind t Host
let switches t = filter_kind t Switch

let wires t =
  let acc = ref [] in
  for n = t.count - 1 downto 0 do
    let peers = t.infos.(n).peers in
    for p = Array.length peers - 1 downto 0 do
      match peers.(p) with
      | Some (n', p') when (n, p) < (n', p') -> acc := ((n, p), (n', p')) :: !acc
      | Some _ | None -> ()
    done
  done;
  !acc

let wired_ports t n =
  let i = info t n in
  let acc = ref [] in
  for p = Array.length i.peers - 1 downto 0 do
    match i.peers.(p) with
    | Some peer -> acc := (p, peer) :: !acc
    | None -> ()
  done;
  !acc

let peer t n p = t.infos.(n).peers.(p)

let free_ports t n =
  let i = info t n in
  let acc = ref [] in
  for p = Array.length i.peers - 1 downto 0 do
    if i.peers.(p) = None then acc := p :: !acc
  done;
  !acc

let fold_nodes t ~init ~f =
  let acc = ref init in
  for n = 0 to t.count - 1 do
    acc := f !acc n
  done;
  !acc

let pp_stats ppf t =
  Format.fprintf ppf "%d hosts, %d switches, %d links" (num_hosts t)
    (num_switches t) (num_wires t)
