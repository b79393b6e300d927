(* Dense CSR snapshot of a graph, plus linear-time bridge/separation
   machinery shared by Core_set (actual network) and Model's PRUNE
   (model multigraph). *)

type t = {
  c_radix : int;
  c_nodes : int;
  c_kind : Graph.kind array;
  c_name : string array;
  c_off : int array; (* length c_nodes + 1; channel id = c_off.(n) + port *)
  c_node : int array; (* channel -> owning node *)
  c_peer : int array; (* channel -> far channel, -1 when vacant *)
}

let of_graph g =
  let n = Graph.num_nodes g in
  let c_kind = Array.init n (Graph.kind g) in
  let c_name = Array.init n (Graph.name g) in
  let c_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    c_off.(v + 1) <- c_off.(v) + Graph.ports_of g v
  done;
  let nc = c_off.(n) in
  let c_node = Array.make nc 0 in
  let c_peer = Array.make nc (-1) in
  for v = 0 to n - 1 do
    for p = 0 to Graph.ports_of g v - 1 do
      let c = c_off.(v) + p in
      c_node.(c) <- v;
      (match Graph.neighbor g (v, p) with
      | Some (w, q) -> c_peer.(c) <- c_off.(w) + q
      | None -> ())
    done
  done;
  { c_radix = Graph.radix g; c_nodes = n; c_kind; c_name; c_off; c_node; c_peer }

let num_channels t = t.c_off.(t.c_nodes)

let channel_of t (n, p) =
  if n >= 0 && n < t.c_nodes && p >= 0 && p < t.c_off.(n + 1) - t.c_off.(n) then
    Some (t.c_off.(n) + p)
  else None

let end_of t c =
  if c < 0 || c >= num_channels t then
    invalid_arg (Printf.sprintf "Dense.end_of: channel %d out of range" c)
  else
    let n = t.c_node.(c) in
    (n, c - t.c_off.(n))

let peer t c = t.c_peer.(c)

let to_graph t =
  let g = Graph.create ~radix:t.c_radix () in
  for v = 0 to t.c_nodes - 1 do
    let id =
      match t.c_kind.(v) with
      | Graph.Host -> Graph.add_host g ~name:t.c_name.(v)
      | Graph.Switch ->
        Graph.add_switch g
          ?name:(if t.c_name.(v) = "" then None else Some t.c_name.(v))
          ()
    in
    assert (id = v)
  done;
  for c = 0 to num_channels t - 1 do
    let d = t.c_peer.(c) in
    if d > c then Graph.connect g (end_of t c) (end_of t d)
  done;
  g

(* ------------------------------------------------------------------ *)
(* Multigraph adjacency in CSR form over explicit edge arrays.        *)

let adjacency ~nodes ~edge_u ~edge_v =
  let ne = Array.length edge_u in
  let off = Array.make (nodes + 1) 0 in
  for e = 0 to ne - 1 do
    off.(edge_u.(e) + 1) <- off.(edge_u.(e) + 1) + 1;
    off.(edge_v.(e) + 1) <- off.(edge_v.(e) + 1) + 1
  done;
  for v = 0 to nodes - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let cur = Array.copy off in
  let total = off.(nodes) in
  let adj_e = Array.make total 0 in
  let adj_v = Array.make total 0 in
  for e = 0 to ne - 1 do
    let u = edge_u.(e) and v = edge_v.(e) in
    adj_e.(cur.(u)) <- e;
    adj_v.(cur.(u)) <- v;
    cur.(u) <- cur.(u) + 1;
    adj_e.(cur.(v)) <- e;
    adj_v.(cur.(v)) <- u;
    cur.(v) <- cur.(v) + 1
  done;
  (off, adj_e, adj_v)

(* Iterative Tarjan over the prebuilt adjacency. The entering edge is
   skipped once by id, so each wire of a parallel pair still counts as
   a back edge for the other — parallel cables are never bridges. *)
let bridge_flags_adj ~nodes ~ne (off, adj_e, adj_v) =
  let disc = Array.make nodes (-1) in
  let low = Array.make nodes max_int in
  let is_bridge = Array.make ne false in
  let cursor = Array.make nodes 0 in
  let stack_v = Array.make (max nodes 1) 0 in
  let stack_e = Array.make (max nodes 1) 0 in
  let timer = ref 0 in
  for start = 0 to nodes - 1 do
    if disc.(start) = -1 then begin
      let sp = ref 0 in
      let push v in_e =
        stack_v.(!sp) <- v;
        stack_e.(!sp) <- in_e;
        incr sp;
        disc.(v) <- !timer;
        low.(v) <- !timer;
        incr timer;
        cursor.(v) <- off.(v)
      in
      push start (-1);
      while !sp > 0 do
        let u = stack_v.(!sp - 1) in
        if cursor.(u) < off.(u + 1) then begin
          let k = cursor.(u) in
          cursor.(u) <- k + 1;
          let eid = adj_e.(k) and v = adj_v.(k) in
          if eid = stack_e.(!sp - 1) then () (* don't re-walk the entering wire *)
          else if disc.(v) >= 0 then begin
            if disc.(v) < low.(u) then low.(u) <- disc.(v)
          end
          else push v eid
        end
        else begin
          let in_e = stack_e.(!sp - 1) in
          decr sp;
          if !sp > 0 then begin
            let p = stack_v.(!sp - 1) in
            if low.(u) < low.(p) then low.(p) <- low.(u);
            if low.(u) > disc.(p) then is_bridge.(in_e) <- true
          end
        end
      done
    end
  done;
  is_bridge

let bridge_flags ~nodes ~edge_u ~edge_v =
  let ne = Array.length edge_u in
  bridge_flags_adj ~nodes ~ne (adjacency ~nodes ~edge_u ~edge_v)

let separation ~nodes ~edge_u ~edge_v ~is_host ~candidate ~whole_components =
  let ne = Array.length edge_u in
  let ((off, adj_e, adj_v) as adj) = adjacency ~nodes ~edge_u ~edge_v in
  let is_bridge = bridge_flags_adj ~nodes ~ne adj in
  (* 2-edge-connected components: flood without crossing bridges. *)
  let comp = Array.make (max nodes 1) (-1) in
  let ncomp = ref 0 in
  let q = Queue.create () in
  for s = 0 to nodes - 1 do
    if comp.(s) = -1 then begin
      let c = !ncomp in
      incr ncomp;
      comp.(s) <- c;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let u = Queue.take q in
        for k = off.(u) to off.(u + 1) - 1 do
          let v = adj_v.(k) in
          if (not is_bridge.(adj_e.(k))) && comp.(v) = -1 then begin
            comp.(v) <- c;
            Queue.add v q
          end
        done
      done
    end
  done;
  let nc = max !ncomp 1 in
  let chosts = Array.make nc 0 in
  for v = 0 to nodes - 1 do
    if is_host v then chosts.(comp.(v)) <- chosts.(comp.(v)) + 1
  done;
  (* The bridge forest: one tree per connected component of the input. *)
  let nb = ref 0 in
  for e = 0 to ne - 1 do
    if is_bridge.(e) then incr nb
  done;
  let nb = !nb in
  let bu = Array.make (max nb 1) 0 in
  let bv = Array.make (max nb 1) 0 in
  let borig = Array.make (max nb 1) 0 in
  let bi = ref 0 in
  for e = 0 to ne - 1 do
    if is_bridge.(e) then begin
      bu.(!bi) <- comp.(edge_u.(e));
      bv.(!bi) <- comp.(edge_v.(e));
      borig.(!bi) <- e;
      incr bi
    end
  done;
  let boff, badj_e, badj_v =
    adjacency ~nodes:nc ~edge_u:(Array.sub bu 0 nb) ~edge_v:(Array.sub bv 0 nb)
  in
  (* Root each tree; Euler (tin/tout) numbering gives O(1) subtree
     membership, a reverse-preorder pass gives subtree host counts. *)
  let parent = Array.make nc (-1) in
  let parent_b = Array.make nc (-1) in
  let tree = Array.make nc (-1) in
  let tin = Array.make nc 0 in
  let tout = Array.make nc 0 in
  let order = Array.make nc 0 in
  let opos = ref 0 in
  let cursor = Array.make nc 0 in
  let stack = Array.make nc 0 in
  let ntrees = ref 0 in
  let timer = ref 0 in
  for r = 0 to nc - 1 do
    if tree.(r) = -1 then begin
      let tr = !ntrees in
      incr ntrees;
      let sp = ref 0 in
      let enter v =
        tree.(v) <- tr;
        tin.(v) <- !timer;
        incr timer;
        order.(!opos) <- v;
        incr opos;
        cursor.(v) <- boff.(v);
        stack.(!sp) <- v;
        incr sp
      in
      enter r;
      while !sp > 0 do
        let u = stack.(!sp - 1) in
        if cursor.(u) < boff.(u + 1) then begin
          let k = cursor.(u) in
          cursor.(u) <- k + 1;
          let v = badj_v.(k) in
          if tree.(v) = -1 then begin
            parent.(v) <- u;
            parent_b.(v) <- badj_e.(k);
            enter v
          end
        end
        else begin
          tout.(u) <- !timer - 1;
          decr sp
        end
      done
    end
  done;
  let ntrees = !ntrees in
  let sub = Array.copy chosts in
  for i = nc - 1 downto 0 do
    let c = order.(i) in
    if parent.(c) >= 0 then sub.(parent.(c)) <- sub.(parent.(c)) + sub.(c)
  done;
  let tree_total = Array.make ntrees 0 in
  for c = 0 to nc - 1 do
    if parent.(c) = -1 then tree_total.(tree.(c)) <- sub.(c)
  done;
  let cand_b i = candidate borig.(i) in
  let cmark = Array.make nc false in
  let cedge = Array.make nc (-1) in
  (* Down pass: a candidate bridge whose below-side holds no hosts
     separates that whole subtree from every host. *)
  for i = 0 to nc - 1 do
    let c = order.(i) in
    if parent.(c) >= 0 then begin
      let p = parent.(c) in
      if cmark.(p) then begin
        cmark.(c) <- true;
        cedge.(c) <- cedge.(p)
      end
      else if cand_b parent_b.(c) && sub.(c) = 0 then begin
        cmark.(c) <- true;
        cedge.(c) <- borig.(parent_b.(c))
      end
    end
  done;
  (* Up pass: candidate bridges whose ABOVE-side holds no hosts. When
     the tree has hosts, every such subtree contains them all, so the
     subtrees are nested and the innermost (max tin) bridge's
     complement covers all the others'; on a hostless tree the down
     pass already marked the chosen subtree and this marks the rest. *)
  let best = Array.make ntrees (-1) in
  for c = 0 to nc - 1 do
    if
      parent.(c) >= 0
      && cand_b parent_b.(c)
      && tree_total.(tree.(c)) - sub.(c) = 0
    then begin
      let t = tree.(c) in
      if best.(t) = -1 || tin.(c) > tin.(best.(t)) then best.(t) <- c
    end
  done;
  for c = 0 to nc - 1 do
    let b = best.(tree.(c)) in
    if b >= 0 && (not (tin.(b) <= tin.(c) && tin.(c) <= tout.(b))) && not cmark.(c)
    then begin
      cmark.(c) <- true;
      cedge.(c) <- borig.(parent_b.(b))
    end
  done;
  (* PRUNE semantics: in a hostless connected component ANY candidate
     cable — bridge or not — separates the whole component from all
     hosts, so one candidate edge condemns the entire tree. *)
  if whole_components then begin
    let tree_cand = Array.make ntrees (-1) in
    for e = 0 to ne - 1 do
      if candidate e then begin
        let t = tree.(comp.(edge_u.(e))) in
        if tree_cand.(t) = -1 then tree_cand.(t) <- e
      end
    done;
    for c = 0 to nc - 1 do
      let t = tree.(c) in
      if tree_total.(t) = 0 && tree_cand.(t) >= 0 && not cmark.(c) then begin
        cmark.(c) <- true;
        cedge.(c) <- tree_cand.(t)
      end
    done
  end;
  let in_f = Array.make (max nodes 1) false in
  let sep_edge = Array.make (max nodes 1) (-1) in
  for v = 0 to nodes - 1 do
    in_f.(v) <- cmark.(comp.(v));
    sep_edge.(v) <- cedge.(comp.(v))
  done;
  (in_f, sep_edge)
