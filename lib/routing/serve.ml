open San_topology

module Pool = Cell.Pool

(* A table holds one {!Cell} per source host slot. *)
type t = {
  sv_graph : Graph.t;
  sv_ud : Updown.t;
  paths : Paths.t;
  cells : Cell.t;
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
}

let create ?(cache_limit = 64) ?prefer g =
  let ud = Updown.build g in
  let hosts = Array.of_list (Graph.hosts g) in
  let host_slot = Array.make (Graph.num_nodes g) (-1) in
  Array.iteri (fun slot h -> host_slot.(h) <- slot) hosts;
  {
    sv_graph = g;
    sv_ud = ud;
    paths = Paths.compute ud;
    cells = Cell.create ~radix:(Graph.radix g);
    prefer;
    host_slot;
    hosts;
    tables = Array.make (Graph.num_nodes g) [||];
    ring = Array.make (max 1 (min cache_limit (Array.length hosts))) (-1);
    head = 0;
    resident = 0;
    dst_builds = 0;
    scratch = Array.make (Graph.num_nodes g + 1) 0;
  }

let inline_turns t = Cell.inline_turns t.cells

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
      let table = Array.make (Array.length t.hosts) Cell.none in
      Array.iteri
        (fun slot src ->
          if src <> dst then
            let buf = t.scratch in
            match Paths.route_into ?prefer:t.prefer t.paths ~src ~dst ~buf with
            | -1 -> ()
            | len -> table.(slot) <- Cell.intern t.cells buf len)
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
    if slot < 0 then -1 else Cell.write t.cells (table_for t dst).(slot) buf

let max_route_len t = Pool.max_depth (Cell.pool t.cells)

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
  let pool = Cell.pool t.cells in
  {
    destinations = t.dst_builds;
    resident = t.resident;
    entries = Pool.entries pool;
    pool_cells = Pool.cells pool;
    turns_total = Pool.turns_total pool;
    packed_bytes = Pool.packed_bytes pool;
    naive_bytes = (3 * Pool.entries pool) + Pool.turns_total pool;
  }
