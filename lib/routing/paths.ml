open San_topology

(* State encoding: node n in phase Up -> 2n, phase Down -> 2n+1. *)

type t = {
  pt_ud : Updown.t;
  nstates : int;
  cache : (Graph.node, int array) Hashtbl.t;
  (* FIFO of cached destinations, oldest first, for eviction. *)
  order : Graph.node Queue.t;
  cache_limit : int;
  (* Scratch for one walk: [nodes.(i)] is the path's i-th node and
     [exits.(i)] the port it leaves on. A shortest compliant path
     visits each node at most once, so [num_nodes] slots suffice. *)
  nodes : int array;
  exits : int array;
  queue : int array; (* the BFS frontier, reused across destinations *)
  (* The default walk's exit port per state toward [memo_dst], -1 until
     first taken. For a fixed destination a state's exit depends on the
     state alone (it is [dist - 1] hops out), so walks from every source
     share it; the memo is cleared when the destination changes. *)
  memo : int array;
  mutable memo_dst : Graph.node;
}

let updown t = t.pt_ud

let inf = max_int / 4

let state_up n = 2 * n
let state_down n = (2 * n) + 1

let default_cache_limit = 64

let compute ?(cache_limit = default_cache_limit) ud =
  let n = Graph.num_nodes (Updown.graph ud) in
  {
    pt_ud = ud;
    nstates = 2 * n;
    cache = Hashtbl.create 64;
    order = Queue.create ();
    cache_limit = max 1 cache_limit;
    nodes = Array.make (n + 1) 0;
    exits = Array.make (n + 1) 0;
    queue = Array.make (2 * n) 0;
    memo = Array.make (2 * n) (-1);
    memo_dst = -1;
  }

(* Distances to [dst] from every state, by one backward BFS over the
   reversed phase edges. Forward transitions are: an up edge a->b is
   usable only in the Up phase and stays Up; a down edge a->b is usable
   from either phase and lands in Down. Both phases of [dst] seed the
   frontier at 0, so the array directly holds the compliant distance to
   the destination node. *)
let to_dst t dst =
  match Hashtbl.find t.cache dst with
  | dist -> dist
  | exception Not_found ->
    let ud = t.pt_ud in
    let g = Updown.graph ud in
    let dist = Array.make t.nstates inf in
    let queue = t.queue in
    let head = ref 0 and tail = ref 0 in
    let push s d =
      if dist.(s) >= inf then begin
        dist.(s) <- d;
        queue.(!tail) <- s;
        incr tail
      end
    in
    push (state_up dst) 0;
    push (state_down dst) 0;
    while !head < !tail do
      let s = queue.(!head) in
      incr head;
      let b = s / 2 in
      let d = dist.(s) + 1 in
      (* Predecessor states: phases of a neighbor [a] whose one-hop
         transition lands in [s]. Parallel wires repeat a neighbor;
         [push]'s visited guard makes the repeats free. *)
      for p = 0 to Graph.ports_of g b - 1 do
        match Graph.peer g b p with
        | None -> ()
        | Some (a, _) ->
          (* Orientation is only asked about while a phase of [a] this
             hop could reach is still unvisited. *)
          if
            dist.(state_up a) >= inf
            || (s land 1 = 1 && dist.(state_down a) >= inf)
          then
            if Updown.is_up ud a b then begin
              if s land 1 = 0 then push (state_up a) d
            end
            else if s land 1 = 1 then begin
              push (state_up a) d;
              push (state_down a) d
            end
      done
    done;
    if Queue.length t.order >= t.cache_limit then
      Hashtbl.remove t.cache (Queue.pop t.order);
    Hashtbl.add t.cache dst dist;
    Queue.push dst t.order;
    dist

let distance t ~src ~dst =
  let d = (to_dst t dst).(state_up src) in
  if d >= inf then None else Some d

(* The state port [p] of [node] leads to from [state] when that state
   is [want] hops from the destination, else -1. A down edge is usable
   from either phase and enters Down; an up edge only from Up. Ports
   where neither phase of the neighbour is [want] hops out are
   rejected before the orientation is asked. *)
let successor ud (dist : int array) state node (want : int) p =
  match Graph.peer (Updown.graph ud) node p with
  | None -> -1
  | Some (v, _) ->
    if dist.(state_up v) <> want && dist.(state_down v) <> want then -1
    else
      let s =
        if not (Updown.is_up ud node v) then state_down v
        else if state land 1 = 0 then state_up v
        else -1
      in
      if s >= 0 && dist.(s) = want then s else -1

(* The [k]-th port (from 0, in port order) leading one hop closer. *)
let nth_closer ud dist state node want k =
  let k = ref k and p = ref (-1) in
  while !k >= 0 do
    incr p;
    if successor ud dist state node want !p >= 0 then decr k
  done;
  !p

(* The exit port a walk takes at [node]. Default: the first port that
   leads one hop closer — the first shortest continuation, and over
   parallel wires to it the lowest port. [prefer]: the least penalty
   among those ports, exact ties to port order. [rng]: a uniform draw
   over the closer ports, parallel wires counted separately; the wire
   itself is drawn again afterwards by [draw_wires]. *)
let choose_exit ?rng ?prefer ud dist state node want =
  let ports = Graph.ports_of (Updown.graph ud) node in
  match (rng, prefer) with
  | Some rng, _ ->
    let n = ref 0 in
    for p = 0 to ports - 1 do
      if successor ud dist state node want p >= 0 then incr n
    done;
    nth_closer ud dist state node want (San_util.Prng.int rng !n)
  | None, None -> nth_closer ud dist state node want 0
  | None, Some penalty ->
    let best = ref (-1) and best_pen = ref 0.0 in
    for p = 0 to ports - 1 do
      if successor ud dist state node want p >= 0 then begin
        let v =
          match Graph.peer (Updown.graph ud) node p with
          | Some (v, _) -> v
          | None -> assert false
        in
        let pen = penalty node v in
        if !best < 0 || pen < !best_pen then begin
          best := p;
          best_pen := pen
        end
      end
    done;
    !best

(* The default exit of [state], through the memo (which must be on
   [dist]'s destination). *)
let memo_exit t dist state node want =
  let p = t.memo.(state) in
  if p >= 0 then p
  else begin
    let p = nth_closer t.pt_ud dist state node want 0 in
    t.memo.(state) <- p;
    p
  end

(* Walk one shortest compliant path from [src] to [dst] into the
   scratch buffers, returning its hop count, or -1 when there is none.
   [nodes.(hops)] is [dst]. Only the default walk reads and fills the
   exit memo; [rng] and [prefer] walks choose at every hop, so seeded
   draws are consumed one per hop in walk order. *)
let walk ?rng ?prefer t ~src ~dst =
  let dist = to_dst t dst in
  let total = dist.(state_up src) in
  if total >= inf then -1
  else begin
    let ud = t.pt_ud in
    let memo = match (rng, prefer) with None, None -> true | _ -> false in
    if memo && t.memo_dst <> dst then begin
      Array.fill t.memo 0 t.nstates (-1);
      t.memo_dst <- dst
    end;
    let state = ref (state_up src) in
    for i = 0 to total - 1 do
      let node = !state / 2 and want = total - i - 1 in
      let p =
        if memo then memo_exit t dist !state node want
        else choose_exit ?rng ?prefer ud dist !state node want
      in
      t.nodes.(i) <- node;
      t.exits.(i) <- p;
      state := successor ud dist !state node want p
    done;
    t.nodes.(total) <- dst;
    total
  end

(* Uniform spreading over parallel wires: once the node path is fixed,
   one draw per hop over the wires joining its consecutive nodes. *)
let draw_wires rng t hops =
  let g = Updown.graph t.pt_ud in
  let joins u v p =
    match Graph.peer g u p with Some (w, _) -> w = v | None -> false
  in
  for i = 0 to hops - 1 do
    let u = t.nodes.(i) and v = t.nodes.(i + 1) in
    let n = ref 0 in
    for p = 0 to Graph.ports_of g u - 1 do
      if joins u v p then incr n
    done;
    let k = ref (San_util.Prng.int rng !n) and p = ref (-1) in
    while !k >= 0 do
      incr p;
      if joins u v !p then decr k
    done;
    t.exits.(i) <- !p
  done

let route_into ?rng ?prefer t ~src ~dst ~buf =
  let hops = walk ?rng ?prefer t ~src ~dst in
  if hops < 0 then -1
  else begin
    (match rng with Some rng -> draw_wires rng t hops | None -> ());
    (* At each switch the turn is exit port minus entry port; leaving
       a host emits nothing. *)
    let g = Updown.graph t.pt_ud in
    let len = ref 0 and entry = ref 0 in
    for i = 0 to hops - 1 do
      let node = t.nodes.(i) and out = t.exits.(i) in
      if not (Graph.is_host g node) then begin
        buf.(!len) <- out - !entry;
        incr len
      end;
      entry :=
        (match Graph.peer g node out with
        | Some (_, far) -> far
        | None -> assert false)
    done;
    !len
  end

let node_path ?rng ?prefer t ~src ~dst =
  match walk ?rng ?prefer t ~src ~dst with
  | -1 -> None
  | hops -> Some (Array.to_list (Array.sub t.nodes 0 (hops + 1)))
