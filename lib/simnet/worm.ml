open San_topology

type hop = { exit_end : Graph.wire_end; entry_end : Graph.wire_end }

type outcome =
  | Arrived of Graph.node
  | Illegal_turn of int
  | No_such_wire of int
  | Hit_host_too_soon of int * Graph.node
  | Stranded of Graph.node
  | Unwired_source

type trace = { hops : hop list; outcome : outcome }

type stop =
  | Stop_arrived
  | Stop_illegal_turn
  | Stop_no_such_wire
  | Stop_host_too_soon
  | Stop_stranded
  | Stop_unwired

type walk = {
  mutable route : int array;
  mutable route_len : int;
  mutable mirror : bool;
  mutable radix : int;
  mutable exit_node : int array;
  mutable exit_port : int array;
  mutable entry_node : int array;
  mutable entry_port : int array;
  mutable hop_fill : int array;
  mutable nhops : int;
  mutable stop : stop;
  mutable stop_index : int;
  mutable stop_node : Graph.node;
  mutable fills : int;
  mutable graph : Graph.t;
  mutable edits : int;
  mutable src : Graph.node;
  mutable loaded : bool;
}

(* The graph a walk that was never filled claims to have walked: no
   caller holds it, so nothing resumes from it. *)
let no_graph = Graph.create ~radix:1 ()

let walk () =
  {
    route = Array.make 32 0;
    route_len = 0;
    mirror = false;
    radix = 0;
    exit_node = Array.make 64 0;
    exit_port = Array.make 64 0;
    entry_node = Array.make 64 0;
    entry_port = Array.make 64 0;
    hop_fill = Array.make 64 0;
    nhops = 0;
    stop = Stop_unwired;
    stop_index = 0;
    stop_node = 0;
    fills = 0;
    graph = no_graph;
    edits = 0;
    src = -1;
    loaded = false;
  }

(* An int buffer of at least [n] cells, keeping its contents. *)
let grow a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Copy the turn string into the route buffer, checking the alphabet on
   the way; the loopback mirror adds only 0 and negations, so checking
   the forward half checks the whole route. Returns how many leading
   turns equal the first [old_len] turns the buffer held before. A
   top-level loop, so loading allocates no closure. *)
let rec load w ~radix ~old_len ~shared i = function
  | [] ->
    w.route_len <- i;
    shared
  | a :: rest ->
    if a <= -radix || a >= radix then
      invalid_arg "Worm.eval: turn outside the radix alphabet";
    if i >= Array.length w.route then w.route <- grow w.route (i + 1);
    let shared =
      if shared = i && i < old_len && Array.unsafe_get w.route i = a then i + 1
      else shared
    in
    Array.unsafe_set w.route i a;
    load w ~radix ~old_len ~shared (i + 1) rest

let route_length w = if w.mirror then (2 * w.route_len) + 1 else w.route_len

(* Turn [i] of the route as sent: the buffer itself, or for a loopback
   [a1..ak 0 -ak..-a1] read in place around the bounce. *)
let turn_at w i =
  let k = w.route_len in
  if i < k then Array.unsafe_get w.route i
  else if i = k then 0
  else -Array.unsafe_get w.route ((2 * k) - i)

let finish w stop ~index ~node =
  w.stop <- stop;
  w.stop_index <- index;
  w.stop_node <- node

let push w n p n' p' =
  let j = w.nhops in
  w.exit_node.(j) <- n;
  w.exit_port.(j) <- p;
  w.entry_node.(j) <- n';
  w.entry_port.(j) <- p';
  w.hop_fill.(j) <- w.fills;
  w.nhops <- j + 1

(* The loopback's head has made its [k + 1] outbound crossings and sits
   on a switch at the bounce. The rest of the route retraces them:
   cables are symmetric and every outbound turn was legal, so crossing
   [k + 1 + m] is crossing [k - m] reversed, and the worm arrives home. *)
let reflect w ~total =
  let k = w.route_len in
  for m = 0 to k do
    let j = k - m in
    push w w.entry_node.(j) w.entry_port.(j) w.exit_node.(j) w.exit_port.(j)
  done;
  finish w Stop_arrived ~index:total ~node:w.exit_node.(0)

let rec step w g ~total node in_port idx =
  if idx = total then
    finish w (if Graph.is_host g node then Stop_arrived else Stop_stranded)
      ~index:idx ~node
  else if Graph.is_host g node then finish w Stop_host_too_soon ~index:idx ~node
  else if w.mirror && idx = w.route_len then reflect w ~total
  else
    let out_port = in_port + turn_at w idx in
    if out_port < 0 || out_port >= w.radix then
      finish w Stop_illegal_turn ~index:idx ~node
    else
      match Graph.peer g node out_port with
      | None -> finish w Stop_no_such_wire ~index:idx ~node
      | Some (next, q) ->
        push w node out_port next q;
        step w g ~total next q (idx + 1)

let fill w g ~src ~turns ~mirror =
  if not (Graph.is_host g src) then
    invalid_arg "Worm.eval: source must be a host";
  (* The last walk is still this worm's path over the turns both routes
     share only on the same, unedited wiring from the same host, and
     only if its own turns all loaded. *)
  let resumable =
    w.loaded && w.graph == g && w.edits = Graph.edits g && w.src = src
  in
  let radix = Graph.radix g in
  w.loaded <- false;
  let shared =
    load w ~radix ~old_len:(if resumable then w.route_len else 0) ~shared:0 0
      turns
  in
  w.loaded <- true;
  w.graph <- g;
  w.edits <- Graph.edits g;
  w.src <- src;
  w.mirror <- mirror;
  w.radix <- radix;
  w.fills <- w.fills + 1;
  let total = route_length w in
  if Array.length w.exit_node < total + 1 then begin
    w.exit_node <- grow w.exit_node (total + 1);
    w.exit_port <- grow w.exit_port (total + 1);
    w.entry_node <- grow w.entry_node (total + 1);
    w.entry_port <- grow w.entry_port (total + 1);
    w.hop_fill <- grow w.hop_fill (total + 1)
  end;
  (* Hop 0 is the source's cable and hop [i + 1] the crossing turn [i]
     made, so [shared] common turns fix hops [0..shared], as far as the
     last worm got. The worm steps on from the last hop kept. *)
  let r =
    if not resumable then -1
    else if shared < w.nhops - 1 then shared
    else w.nhops - 1
  in
  if r >= 0 then begin
    w.nhops <- r + 1;
    step w g ~total w.entry_node.(r) w.entry_port.(r) r
  end
  else begin
    w.nhops <- 0;
    match Graph.peer g src 0 with
    | None -> finish w Stop_unwired ~index:0 ~node:src
    | Some (first, q) ->
      push w src 0 first q;
      step w g ~total first q 0
  end

let outcome w =
  match w.stop with
  | Stop_arrived -> Arrived w.stop_node
  | Stop_illegal_turn -> Illegal_turn w.stop_index
  | Stop_no_such_wire -> No_such_wire w.stop_index
  | Stop_host_too_soon -> Hit_host_too_soon (w.stop_index, w.stop_node)
  | Stop_stranded -> Stranded w.stop_node
  | Stop_unwired -> Unwired_source

let hop w j =
  {
    exit_end = (w.exit_node.(j), w.exit_port.(j));
    entry_end = (w.entry_node.(j), w.entry_port.(j));
  }

let trace_of w = { hops = List.init w.nhops (hop w); outcome = outcome w }

let eval g ~src ~turns =
  let w = walk () in
  fill w g ~src ~turns ~mirror:false;
  trace_of w

let path_nodes _g ~src trace =
  src :: List.map (fun h -> fst h.entry_end) trace.hops

let pp_outcome ppf = function
  | Arrived n -> Format.fprintf ppf "arrived at node %d" n
  | Illegal_turn i -> Format.fprintf ppf "illegal turn at index %d" i
  | No_such_wire i -> Format.fprintf ppf "no such wire at index %d" i
  | Hit_host_too_soon (i, n) ->
    Format.fprintf ppf "hit host %d too soon (index %d)" n i
  | Stranded n -> Format.fprintf ppf "stranded at switch %d" n
  | Unwired_source -> Format.fprintf ppf "source host is not wired"
