open San_topology

(* State encoding: node n in phase Up -> 2n, phase Down -> 2n+1. *)

type t = {
  pt_ud : Updown.t;
  nstates : int;
  (* Dense adjacency, built once: node [n]'s ports are the slots
     [first.(n)] to [first.(n + 1) - 1], port order kept. A slot holds
     -1 for an unwired port, else one packed int: the peer node above
     [shift], the far port in the bits below it, and bit 0 set when
     the move to the peer is up. One int array plus the offsets keeps
     a [t] small; the walks read these and never the graph. *)
  first : int array;
  adj : int array;
  shift : int;
  (* Each state's compliant distance to [dist_node] ([inf] where there
     is none); [dist_node] is -1 before the first BFS. Every caller
     walks destination-major or compiles anchor by anchor, so this one
     vector serves [route_into], [distance] and [compile] alike. *)
  dist : int array;
  mutable dist_node : Graph.node;
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
  (* [compile]'s route cell per state toward the destination it is
     compiling, [unset] until first asked for. Allocated on the first
     [compile], so a [t] that only walks never holds it. *)
  mutable suffix : int array;
  (* What [compile] recorded for the next epoch's compile, allocated
     with [suffix]: per anchor compiled, each state's exit toward it
     ([exit_width] bytes per state holding the port plus one, 0 where
     the walks took none); per destination compiled, its anchor and
     the port its cable enters the anchor on (-1 when it is its own
     anchor). *)
  exit_width : int;
  mutable anchor_exits : Bytes.t array;
  mutable dst_anchor : int array;
  mutable dst_q : int array;
  (* [compile]'s clean-state verdicts toward the current anchor, one
     byte per state: [unknown], [clean] or [dirty]. *)
  mutable verdict : Bytes.t;
}

let inf = max_int / 4

let state_up n = 2 * n
let state_down n = (2 * n) + 1

let compute ud =
  let g = Updown.graph ud in
  let n = Graph.num_nodes g in
  let first = Array.make (n + 1) 0 in
  let max_ports = ref 1 in
  for u = 0 to n - 1 do
    let ports = Graph.ports_of g u in
    first.(u + 1) <- first.(u) + ports;
    max_ports := max !max_ports ports
  done;
  (* Far ports take the bits below [shift], above the up bit. *)
  let rec bits b = if 1 lsl b >= !max_ports then b else bits (b + 1) in
  let shift = bits 0 + 1 in
  let adj = Array.make first.(n) (-1) in
  for u = 0 to n - 1 do
    for p = 0 to first.(u + 1) - first.(u) - 1 do
      match Graph.peer g u p with
      | None -> ()
      | Some (v, far) ->
        adj.(first.(u) + p) <-
          (v lsl shift) lor (far lsl 1) lor Bool.to_int (Updown.is_up ud u v)
    done
  done;
  {
    pt_ud = ud;
    nstates = 2 * n;
    first;
    adj;
    shift;
    dist = Array.make (2 * n) inf;
    dist_node = -1;
    nodes = Array.make (n + 1) 0;
    exits = Array.make (n + 1) 0;
    queue = Array.make (2 * n) 0;
    memo = Array.make (2 * n) (-1);
    memo_dst = -1;
    suffix = [||];
    exit_width = (if !max_ports < 0xFF then 1 else 2);
    anchor_exits = [||];
    dst_anchor = [||];
    dst_q = [||];
    verdict = Bytes.empty;
  }

let ports t node = t.first.(node + 1) - t.first.(node)

(* The packed slot of [node]'s port [p], and its fields. *)
let slot t node p = t.adj.(t.first.(node) + p)
let peer_of t e = e lsr t.shift
let far_of t e = (e lsr 1) land ((1 lsl (t.shift - 1)) - 1)

(* Distances to [dst] from every state, written over [t.dist] by one
   backward BFS over the reversed phase edges; the vector is then
   tagged [dst]'s. Forward transitions are: an up edge a->b is usable
   only in the Up phase and stays Up; a down edge a->b is usable from
   either phase and lands in Down. Both phases of [dst] seed the
   frontier at 0, so the array directly holds the compliant distance to
   the destination node. *)
let bfs t dst =
  let dist = t.dist and queue = t.queue in
  Array.fill dist 0 t.nstates inf;
  t.dist_node <- dst;
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
    for i = t.first.(b) to t.first.(b + 1) - 1 do
      let e = t.adj.(i) in
      if e >= 0 then begin
        let a = peer_of t e in
        if
          dist.(state_up a) >= inf
          || (s land 1 = 1 && dist.(state_down a) >= inf)
        then
          (* [a -> b] is up exactly when [b -> a] is not, except on a
             cable from a switch to itself, which is down both ways. *)
          if a <> b && e land 1 = 0 then begin
            if s land 1 = 0 then push (state_up a) d
          end
          else if s land 1 = 1 then begin
            push (state_up a) d;
            push (state_down a) d
          end
      end
    done
  done

(* [dst]'s distance vector, by a BFS unless it is the one held. *)
let to_dst t dst =
  if t.dist_node <> dst then bfs t dst;
  t.dist

let distance t ~src ~dst =
  let d = (to_dst t dst).(state_up src) in
  if d >= inf then None else Some d

(* The state port [p] of [node] leads to from [state] when that state
   is [want] hops from the destination, else -1. A down edge is usable
   from either phase and enters Down; an up edge only from Up. Ports
   where neither phase of the neighbour is [want] hops out are
   rejected before the orientation is read. *)
let successor t (dist : int array) state node (want : int) p =
  let e = slot t node p in
  if e < 0 then -1
  else
    let v = peer_of t e in
    if dist.(state_up v) <> want && dist.(state_down v) <> want then -1
    else
      let s =
        if e land 1 = 0 then state_down v
        else if state land 1 = 0 then state_up v
        else -1
      in
      if s >= 0 && dist.(s) = want then s else -1

(* The [k]-th port (from 0, in port order) leading one hop closer. *)
let nth_closer t dist state node want k =
  let k = ref k and p = ref (-1) in
  while !k >= 0 do
    incr p;
    if successor t dist state node want !p >= 0 then decr k
  done;
  !p

(* The exit port a walk takes at [node]. Default: the first port that
   leads one hop closer — the first shortest continuation, and over
   parallel wires to it the lowest port. [prefer]: the least penalty
   among those ports, exact ties to port order. [rng]: a uniform draw
   over the closer ports, parallel wires counted separately; the wire
   itself is drawn again afterwards by [draw_wires]. *)
let choose_exit ?rng ?prefer t dist state node want =
  match (rng, prefer) with
  | Some rng, _ ->
    let n = ref 0 in
    for p = 0 to ports t node - 1 do
      if successor t dist state node want p >= 0 then incr n
    done;
    nth_closer t dist state node want (San_util.Prng.int rng !n)
  | None, None -> nth_closer t dist state node want 0
  | None, Some penalty ->
    let best = ref (-1) and best_pen = ref 0.0 in
    for p = 0 to ports t node - 1 do
      if successor t dist state node want p >= 0 then begin
        let pen = penalty node (peer_of t (slot t node p)) in
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
    let p = nth_closer t dist state node want 0 in
    t.memo.(state) <- p;
    p
  end

(* Point the exit memo at [dst], clearing it if it held another. *)
let aim_memo t dst =
  if t.memo_dst <> dst then begin
    Array.fill t.memo 0 t.nstates (-1);
    t.memo_dst <- dst
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
    let memo = match (rng, prefer) with None, None -> true | _ -> false in
    if memo then aim_memo t dst;
    let state = ref (state_up src) in
    for i = 0 to total - 1 do
      let node = !state / 2 and want = total - i - 1 in
      let p =
        if memo then memo_exit t dist !state node want
        else choose_exit ?rng ?prefer t dist !state node want
      in
      t.nodes.(i) <- node;
      t.exits.(i) <- p;
      state := successor t dist !state node want p
    done;
    t.nodes.(total) <- dst;
    total
  end

(* Uniform spreading over parallel wires: once the node path is fixed,
   one draw per hop over the wires joining its consecutive nodes. *)
let draw_wires rng t hops =
  let joins u v p =
    let e = slot t u p in
    e >= 0 && peer_of t e = v
  in
  for i = 0 to hops - 1 do
    let u = t.nodes.(i) and v = t.nodes.(i + 1) in
    let n = ref 0 in
    for p = 0 to ports t u - 1 do
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
      entry := far_of t (slot t node out)
    done;
    !len
  end

(* Marks a state whose suffix is not compiled yet: a suffix is always
   a route, never the cell of none. *)
let unset = Cell.none

(* The node whose distance vector serves the routes to host [d]: the
   switch at the far end of [d]'s one cable when the hop from that
   switch to [d] is a down move, else [d] itself. From every state but
   [d]'s own, a shortest path to [d] is one to the switch plus that
   last hop, which is legal from either phase; so each state is one
   hop farther from [d] than from the switch, and the first port
   leading closer is the same toward both. *)
let anchor t d =
  let g = Updown.graph t.pt_ud in
  let e = if Graph.is_host g d then slot t d 0 else -1 in
  if e < 0 then d
  else
    let sw = peer_of t e in
    if Graph.is_host g sw || slot t sw (far_of t e) land 1 = 1 then d else sw

(* The cell of the default walk's turns after it leaves [state],
   toward a destination behind the anchor that [dist] and the memo are
   on: when the next node is the anchor, the anchor's turn onto port
   [q] (the destination's cable), or nothing when [q < 0] and the
   anchor is the destination; else the turn at the next node (its exit
   port minus the port the wire enters on) and then the next state's
   suffix. A host is never an interior node of a shortest path (its
   one port leads back where it came from), so every interior node
   turns. *)
let rec leave t cells dist q state =
  let node = state / 2 and want = dist.(state) - 1 in
  let p = memo_exit t dist state node want in
  let entry = far_of t (slot t node p) in
  if want = 0 then if q < 0 then Cell.empty else Cell.cons cells (q - entry) Cell.empty
  else
    let next = successor t dist state node want p in
    Cell.cons cells
      (memo_exit t dist next (next / 2) (want - 1) - entry)
      (suffix t cells dist q next)

(* [leave], memoised per state: routes toward one destination share
   their tails, and a long route's tail its pool cells. *)
and suffix t cells dist q state =
  let r = t.suffix.(state) in
  if r <> unset then r
  else begin
    let r = leave t cells dist q state in
    t.suffix.(state) <- r;
    r
  end

(* ------------------------------------------------------------------ *)
(* Routes that persist across compiles.                                 *)

type record = {
  r_first : int array;
  r_adj : int array;
  r_shift : int;
  r_width : int;
  r_exits : Bytes.t array;
  r_anchor : int array;
  r_q : int array;
}

(* The previous compile as this graph's compiles reuse it, with the
   wiring diff between the two graphs, made once: [removed] is [Some]
   when the diff is removal-only (every new node has a counterpart with
   as many ports, every wired slot is the same wire under the matching,
   and the other differences are old wires now unwired), holding each
   removed slot as its old node and port, in pairs. *)
type prior = {
  record : record;
  node : int array;
  set : int -> int -> int -> unit;
  removed : int array option;
  same_ids : bool; (* every node is its own counterpart *)
}

(* The wiring never changes after [compute]; the arrays compiles fill
   are copied, so later compiles on [t] leave the record alone. *)
let record t =
  {
    r_first = t.first;
    r_adj = t.adj;
    r_shift = t.shift;
    r_width = t.exit_width;
    r_exits = Array.copy t.anchor_exits;
    r_anchor = Array.copy t.dst_anchor;
    r_q = Array.copy t.dst_q;
  }

(* A recorded exit: the port, or -1 where none was taken. *)
let recorded_exit width b s =
  if width = 1 then Bytes.get_uint8 b s - 1
  else Bytes.get_uint16_le b (2 * s) - 1

let set_exit width b s v =
  if width = 1 then Bytes.set_uint8 b s v else Bytes.set_uint16_le b (2 * s) v

(* Whether the packed slot [e] of this graph is the recorded slot [e']
   under the matching: the peer's counterpart, the far port and the up
   bit. *)
let same_wire t node r e e' =
  e >= 0
  && e' >= 0
  && node.(peer_of t e) = e' lsr r.r_shift
  && far_of t e = (e' lsr 1) land ((1 lsl (r.r_shift - 1)) - 1)
  && e land 1 = e' land 1

let prior t record ~node ~set =
  let r = record and n = t.nstates / 2 in
  (* A port the record's width cannot hold was never recorded. *)
  let top = (1 lsl (8 * r.r_width)) - 1 in
  let removed = ref [] and only = ref true in
  let same_ids = ref (Array.length r.r_first = n + 1) in
  let u = ref 0 in
  while !only && !u < n do
    let o = node.(!u) in
    let ports = ports t !u in
    if o < 0 || r.r_first.(o + 1) - r.r_first.(o) <> ports || ports > top then
      only := false
    else begin
      if o <> !u then same_ids := false;
      for p = 0 to ports - 1 do
        let e = slot t !u p and e' = r.r_adj.(r.r_first.(o) + p) in
        if e >= 0 then (if not (same_wire t node r e e') then only := false)
        else if e' >= 0 then removed := o :: p :: !removed
      done
    end;
    incr u
  done;
  {
    record;
    node;
    set;
    removed = (if !only then Some (Array.of_list !removed) else None);
    same_ids = !same_ids;
  }

(* The exit memo toward the current anchor, packed; a port too wide for
   the width is left out, so it reads back as not taken. *)
let pack_exits t =
  let w = t.exit_width in
  let b = Bytes.make (w * t.nstates) '\000' in
  let top = (1 lsl (8 * w)) - 1 in
  for s = 0 to t.nstates - 1 do
    let v = t.memo.(s) + 1 in
    if v > 0 && v <= top then set_exit w b s v
  done;
  b

(* A recorded exit memo moved to this graph's node ids and width. *)
let carry_exits t p old =
  let r = p.record and w = t.exit_width in
  if p.same_ids && r.r_width = w then old
  else begin
    let b = Bytes.make (w * t.nstates) '\000' in
    for s = 0 to t.nstates - 1 do
      let o = p.node.(s / 2) in
      if o >= 0 then
        let v = recorded_exit r.r_width old ((2 * o) + (s land 1)) + 1 in
        if v > 0 then set_exit w b s v
    done;
    b
  end

let unknown = '\000'
let clean_state = '\001'
let dirty_state = '\002'

(* Whether the default walk from [state] toward the current anchor
   provably emits what the prior compile's walk from its counterpart
   did: the exit is the recorded one, the wire on that port is the same
   (the peer's counterpart, the far port, the up bit), and the next
   state is the anchor or is clean itself. [old] is the prior's exits
   toward the anchor's counterpart. Decided once per state per anchor.
   After a removal-only diff a port still wired holds the same wire,
   and a recorded exit chain that survives keeps its first closer
   ports, so the recorded exit is taken into the memo without scanning
   the ports. *)
let rec clean t dist p old state =
  let v = Bytes.get t.verdict state in
  if v <> unknown then v = clean_state
  else begin
    let node = state / 2 and want = dist.(state) - 1 in
    let o = p.node.(node) in
    let r = p.record in
    let exit =
      if o < 0 then -1 else recorded_exit r.r_width old ((2 * o) + (state land 1))
    in
    let ok =
      exit >= 0
      && (match p.removed with
         | Some _ -> slot t node exit >= 0
         | None ->
           memo_exit t dist state node want = exit
           && same_wire t p.node r (slot t node exit) r.r_adj.(r.r_first.(o) + exit))
      && (want = 0
         ||
         let next = successor t dist state node want exit in
         next >= 0 && clean t dist p old next)
    in
    if ok then t.memo.(state) <- exit;
    Bytes.set t.verdict state (if ok then clean_state else dirty_state);
    ok
  end

(* The record and scratch arrays, allocated on the first compile. *)
let ready t =
  if Array.length t.suffix = 0 then begin
    let n = t.nstates / 2 in
    t.suffix <- Array.make t.nstates unset;
    t.verdict <- Bytes.make t.nstates unknown;
    t.anchor_exits <- Array.make n Bytes.empty;
    t.dst_anchor <- Array.make n (-1);
    t.dst_q <- Array.make n (-1)
  end

(* The port [dst]'s cable enters [anchor] on, -1 when it is its own
   anchor. *)
let cable t ~anchor dst = if dst = anchor then -1 else far_of t (slot t dst 0)

(* Whether [p] recorded [dst] behind the anchor's counterpart, over the
   same cable port. *)
let kept_behind t p ~anchor dst =
  let o = p.node.(dst) in
  o >= 0
  && p.record.r_anchor.(o) = p.node.(anchor)
  && p.record.r_q.(o) = cable t ~anchor dst

(* Removing wires cannot shorten a path, and while the recorded exit
   tree toward the anchor survives, every state on it keeps its
   distance and its first closer port. So when the diff is
   removal-only and no recorded exit is a removed slot, every route
   toward the anchor is the previous one. *)
let reuse p t ~anchor ~dsts =
  match p.removed with
  | None -> false
  | Some removed ->
    let r = p.record in
    let old = r.r_exits.(p.node.(anchor)) in
    let rec intact k =
      k >= Array.length removed
      ||
      let o = removed.(k) and q = removed.(k + 1) in
      recorded_exit r.r_width old (2 * o) <> q
      && recorded_exit r.r_width old ((2 * o) + 1) <> q
      && intact (k + 2)
    in
    Bytes.length old > 0
    && intact 0
    && List.for_all (fun (dst, _) -> kept_behind t p ~anchor dst) dsts
    && begin
         ready t;
         List.iter
           (fun (dst, _) ->
             t.dst_anchor.(dst) <- anchor;
             t.dst_q.(dst) <- cable t ~anchor dst)
           dsts;
         t.anchor_exits.(anchor) <- carry_exits t p old;
         true
       end

(* One BFS from the anchor and one exit memo on it serve every
   destination behind it; each destination then takes one suffix pass.
   A source's route is its Up state's suffix. No other route passes
   through a source host, so its own state is left out of the memo.
   With a [prior], [into] holds the previous rows, and a destination
   whose anchor and cable port are its counterpart's leaves the cell of
   every reachable source with a clean Up state as it is: only the
   other sources are written, through [set]. Without one, no source is
   clean and every pair is written in place. *)
let compile ?prior t ~cells ~anchor ~dsts ~srcs ~into =
  if Array.length t.suffix = 0 then ready t
  else Bytes.fill t.verdict 0 t.nstates unknown;
  let dist = to_dst t anchor in
  aim_memo t anchor;
  let old =
    match prior with
    | Some p when p.node.(anchor) >= 0 -> p.record.r_exits.(p.node.(anchor))
    | Some _ | None -> Bytes.empty
  in
  (* The sources a kept column still writes: the unreachable ones, the
     anchor itself, and those whose Up state is not clean. *)
  let dirty =
    match prior with
    | Some p when Bytes.length old > 0 ->
      let acc = ref [] in
      for i = Array.length srcs - 1 downto 0 do
        let s = state_up srcs.(i) in
        if not (dist.(s) > 0 && dist.(s) < inf && clean t dist p old s) then
          acc := i :: !acc
      done;
      Array.of_list !acc
    | Some _ | None -> [||] (* no column is kept *)
  in
  let rewalked = ref 0 in
  List.iter
    (fun (dst, d) ->
      let q = cable t ~anchor dst in
      t.dst_anchor.(dst) <- anchor;
      t.dst_q.(dst) <- q;
      let keeps =
        match prior with
        | Some p -> Bytes.length old > 0 && kept_behind t p ~anchor dst
        | None -> false
      in
      let row = into.(d) in
      let walked = ref false in
      for k = 0 to (if keeps then Array.length dirty else Array.length srcs) - 1 do
        let i = if keeps then dirty.(k) else k in
        let src = srcs.(i) in
        let cell =
          if src = dst || dist.(state_up src) >= inf then Cell.none
          else begin
            if not !walked then begin
              Array.fill t.suffix 0 t.nstates unset;
              walked := true
            end;
            incr rewalked;
            leave t cells dist q (state_up src)
          end
        in
        (* [cells] holds every cell of [into], so equal cells are equal
           routes; an equal cell is left as it is, and a row no pair
           changes stays the previous table's. *)
        if cell <> row.(i) then
          match prior with Some p -> p.set d i cell | None -> row.(i) <- cell
      done)
    dsts;
  t.anchor_exits.(anchor) <- pack_exits t;
  !rewalked

let node_path ?rng ?prefer t ~src ~dst =
  match walk ?rng ?prefer t ~src ~dst with
  | -1 -> None
  | hops -> Some (Array.to_list (Array.sub t.nodes 0 (hops + 1)))
