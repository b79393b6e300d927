open San_topology

module Pool = struct
  (* (turn, suffix cell) -> cell, hashed without the generic C hash. *)
  module Index = Hashtbl.Make (struct
    type t = int * int

    let equal ((a : int), (b : int)) (c, d) = a = c && b = d
    let hash (turn, next) = ((next * 31) + turn) land max_int
  end)

  type t = {
    mutable turn : int array;
    mutable next : int array;
    mutable depth : int array;
    mutable n : int;
    index : int Index.t;
    mutable entries : int;
    mutable turns_total : int;
    mutable max_depth : int;
  }

  let create () =
    {
      turn = Array.make 64 0;
      next = Array.make 64 (-1);
      depth = Array.make 64 0;
      n = 0;
      index = Index.create 64;
      entries = 0;
      turns_total = 0;
      max_depth = 0;
    }

  let grow t =
    let cap = Array.length t.turn in
    if t.n >= cap then begin
      let cap' = 2 * cap in
      let extend a fill =
        let a' = Array.make cap' fill in
        Array.blit a 0 a' 0 cap;
        a'
      in
      t.turn <- extend t.turn 0;
      t.next <- extend t.next (-1);
      t.depth <- extend t.depth 0
    end

  let intern t turn next =
    match Index.find_opt t.index (turn, next) with
    | Some c -> c
    | None ->
      grow t;
      let c = t.n in
      t.n <- c + 1;
      t.turn.(c) <- turn;
      t.next.(c) <- next;
      t.depth.(c) <- 1 + (if next < 0 then 0 else t.depth.(next));
      Index.add t.index (turn, next) c;
      c

  (* Intern [buf.(0 .. len-1)] back to front so the cell chain reads
     the route forward: a cell is the head turn, its [next] the shared
     remainder. *)
  let add_prefix t buf len =
    let idx = ref (-1) in
    for i = len - 1 downto 0 do
      idx := intern t buf.(i) !idx
    done;
    t.entries <- t.entries + 1;
    t.turns_total <- t.turns_total + len;
    if len > t.max_depth then t.max_depth <- len;
    !idx

  let add t turns =
    let arr = Array.of_list turns in
    add_prefix t arr (Array.length arr)

  let write t idx buf =
    let j = ref idx and pos = ref 0 in
    while !j >= 0 do
      buf.(!pos) <- t.turn.(!j);
      incr pos;
      j := t.next.(!j)
    done;
    !pos

  let to_route t idx =
    let rec go j acc = if j < 0 then List.rev acc else go t.next.(j) (t.turn.(j) :: acc) in
    go idx []

  let cells t = t.n
  let entries t = t.entries
  let turns_total t = t.turns_total
  let max_depth t = t.max_depth

  (* Wire model: 3-byte route reference per entry; 4 bytes per cell
     (turn byte + 3-byte suffix reference). The naive comparator is
     Distribute.entry_bytes = 3 + length. *)
  let entry_ref_bytes = 3
  let cell_bytes = 4
  let packed_bytes t = (entry_ref_bytes * t.entries) + (cell_bytes * t.n)
end

(* A table cell: a pool cell index for a route too long to pack,
   [no_route], or [lnot w] for a route packed inline as the word [w]:
   its length in the low [len_bits] bits, then each turn plus [bias]
   in [turn_bits] bits, the first turn lowest. A biased turn is never
   0, so a packed route of one or more turns is a word of at least
   [1 lsl len_bits] and its cell is below [no_route]; the empty route
   packs to 0, the cell -1 the pool gives it. *)
type t = {
  sv_graph : Graph.t;
  sv_ud : Updown.t;
  paths : Paths.t;
  pool : Pool.t;
  prefer : (Graph.node -> Graph.node -> float) option;
  host_slot : int array;
  hosts : Graph.node array;
  (* dst -> per-source-slot cells, [||] when not resident, found with
     one array read and no hashing. [ring] holds the resident
     destinations in the order they came, oldest at [head]; it has
     [cache_limit] slots, fewer when there are fewer hosts. *)
  tables : int array array;
  ring : int array;
  mutable head : int;
  mutable resident : int;
  mutable dst_builds : int;
  scratch : int array; (* one compiled turn string *)
  bias : int;
  turn_bits : int;
  len_bits : int;
  inline_turns : int; (* the longest route packed inline *)
}

let no_route = -2

(* The inline word's layout for a radix: a turn, exit port minus entry
   port, lies in [-(radix - 1), radix - 1], so with [bias = radix] it
   needs [turn_bits] bits to hold up to [2 * radix - 1]. The length
   takes the fewest bits that can count every turn the rest of the 62
   bits of a non-negative word holds. *)
let layout radix =
  let bias = max 1 radix in
  let rec bits b v = if 1 lsl b > v then b else bits (b + 1) v in
  let turn_bits = bits 1 ((2 * bias) - 1) in
  let rec fit len_bits =
    let turns = (62 - len_bits) / turn_bits in
    if turns < 1 lsl len_bits then (len_bits, turns) else fit (len_bits + 1)
  in
  let len_bits, inline_turns = fit 1 in
  (bias, turn_bits, len_bits, inline_turns)

let create ?(cache_limit = 64) ?root ?ignore_hosts ?labeling ?prefer g =
  let ud = Updown.build ?root ?ignore_hosts ?labeling g in
  let hosts = Array.of_list (Graph.hosts g) in
  let host_slot = Array.make (Graph.num_nodes g) (-1) in
  Array.iteri (fun slot h -> host_slot.(h) <- slot) hosts;
  let bias, turn_bits, len_bits, inline_turns = layout (Graph.radix g) in
  {
    sv_graph = g;
    sv_ud = ud;
    paths = Paths.compute ud;
    pool = Pool.create ();
    prefer;
    host_slot;
    hosts;
    tables = Array.make (Graph.num_nodes g) [||];
    ring = Array.make (max 1 (min cache_limit (Array.length hosts))) (-1);
    head = 0;
    resident = 0;
    dst_builds = 0;
    scratch = Array.make (Graph.num_nodes g + 1) 0;
    bias;
    turn_bits;
    len_bits;
    inline_turns;
  }

let graph t = t.sv_graph
let updown t = t.sv_ud
let inline_turns t = t.inline_turns

(* The cell of [buf.(0 .. len-1)], already interned at pool cell
   [idx]. *)
let cell t buf len idx =
  if len > t.inline_turns then idx
  else begin
    let w = ref 0 in
    for i = len - 1 downto 0 do
      w := (!w lsl t.turn_bits) lor (buf.(i) + t.bias)
    done;
    lnot ((!w lsl t.len_bits) lor len)
  end

(* Make [table] [dst]'s, first evicting the oldest resident table when
   the ring is full. *)
let keep t dst table =
  let cap = Array.length t.ring in
  if t.resident < cap then begin
    t.ring.(t.resident) <- dst;
    t.resident <- t.resident + 1
  end
  else begin
    t.tables.(t.ring.(t.head)) <- [||];
    t.ring.(t.head) <- dst;
    t.head <- (t.head + 1) mod cap
  end;
  t.tables.(dst) <- table

let build_table t dst =
  San_obs.Obs.with_span "serve.compile_dst" (fun () ->
      let table = Array.make (Array.length t.hosts) no_route in
      Array.iteri
        (fun slot src ->
          if src <> dst then
            let buf = t.scratch in
            match Paths.route_into ?prefer:t.prefer t.paths ~src ~dst ~buf with
            | -1 -> ()
            | len -> table.(slot) <- cell t buf len (Pool.add_prefix t.pool buf len))
        t.hosts;
      keep t dst table;
      t.dst_builds <- t.dst_builds + 1;
      if San_obs.Obs.on () then San_obs.Obs.count "serve.dst_compiled";
      table)

let[@inline] table_for t dst =
  let table = t.tables.(dst) in
  if Array.length table = 0 then build_table t dst else table

(* Whether [dst] has a table: a host of the graph. *)
let[@inline] serves t dst =
  dst >= 0 && dst < Array.length t.host_slot && t.host_slot.(dst) >= 0

let lookup_into t ~src ~dst ~buf =
  if src < 0 || src >= Array.length t.host_slot || not (serves t dst) then -1
  else
    let slot = t.host_slot.(src) in
    if slot < 0 then -1
    else
      let c = (table_for t dst).(slot) in
      if c >= 0 then Pool.write t.pool c buf
      else if c = no_route then -1
      else begin
        (* Every field up to [inline_turns] is unpacked when [buf] has
           room: a loop of fixed length is predicted, where one of
           [len] turns is not. The fields past [len] are zero and
           leave [-bias] in their slots. *)
        let w = lnot c and bits = t.turn_bits and bias = t.bias in
        let len = w land ((1 lsl t.len_bits) - 1) in
        let n = if Array.length buf >= t.inline_turns then t.inline_turns else len in
        let turns = ref (w lsr t.len_bits) and mask = (1 lsl bits) - 1 in
        for i = 0 to n - 1 do
          buf.(i) <- (!turns land mask) - bias;
          turns := !turns lsr bits
        done;
        len
      end

let max_route_len t = Pool.max_depth t.pool

let lookup t ~src ~dst =
  let buf = Array.make (Graph.num_nodes t.sv_graph + 1) 0 in
  match lookup_into t ~src ~dst ~buf with
  | -1 -> None
  | len -> Some (Array.to_list (Array.sub buf 0 len))

let batch t queries ~buf =
  let served = ref 0 in
  Array.iter
    (fun (src, dst) -> if lookup_into t ~src ~dst ~buf >= 0 then incr served)
    queries;
  !served

let warm t ~dst = if serves t dst then ignore (table_for t dst)

type stats = {
  destinations : int;
  resident : int;
  entries : int;
  pool_cells : int;
  turns_total : int;
  packed_bytes : int;
  naive_bytes : int;
}

let stats t =
  {
    destinations = t.dst_builds;
    resident = t.resident;
    entries = Pool.entries t.pool;
    pool_cells = Pool.cells t.pool;
    turns_total = Pool.turns_total t.pool;
    packed_bytes = Pool.packed_bytes t.pool;
    naive_bytes = (3 * Pool.entries t.pool) + Pool.turns_total t.pool;
  }
