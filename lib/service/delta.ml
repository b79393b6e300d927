open San_topology
module Smap = Map.Make (String)
module Sset = Set.Make (String)
module D = San_routing.Distribute
module Routes = San_routing.Routes
module Cell = San_routing.Cell
module Pool = Cell.Pool

(* One host's slice, dense: [cells.(j)] is the cell of its route to
   [names.(j)] in the store [store], [Cell.none] where the slice holds
   no entry. [names] is the name-sorted host list of the table the row
   came from, one array shared by every row of that table (and reused
   by later tables with the same hosts), so rows of one generation
   compare position by position. [full] is the slice's naive size, so
   an unchanged slice is never summed again. [gen] names the table the
   row is this host's slice of. *)
type row = {
  names : string array;
  cells : int array;
  store : Cell.t;
  full : int;
  gen : Routes.generation;
}

type tables = row Smap.t

let empty = Smap.empty

(* A fresh table seen along the ledger's destination axis: its hosts
   sorted by name once, [nodes.(j)] named [names.(j)]. *)
type view = {
  table : Routes.t;
  store : Cell.t;
  names : string array;
  nodes : Graph.node array;
}

(* How a source's fresh slice is compared with its installed row. *)
type basis =
  | Fresh  (* no installed row *)
  | Current  (* the row is this table's slice *)
  | Patched  (* the row is the previous table's slice, on these names *)
  | Scanned  (* another generation on these names: pair by pair *)
  | Merged  (* other names: merge-walked by name *)

let basis v = function
  | None -> Fresh
  | Some old when old.gen == Routes.generation v.table -> Current
  | Some old when old.names != v.names -> Merged
  | Some old -> (
    match Routes.previous_generation v.table with
    | Some gen when gen == old.gen -> Patched
    | Some _ | None -> Scanned)

let same_names a b =
  Array.length a = Array.length b && Array.for_all2 String.equal a b

(* Sort the table's hosts by name; when an installed row already holds
   these very names, adopt its array so the new rows share it. *)
let view ~installed table =
  let g = Routes.graph table in
  let nodes = Array.of_list (Graph.hosts g) in
  Array.sort
    (fun a b -> String.compare (Graph.name g a) (Graph.name g b))
    nodes;
  let fresh = Array.map (Graph.name g) nodes in
  let names =
    Smap.fold
      (fun _ (r : row) names ->
        if names == fresh && same_names r.names fresh then r.names else names)
      installed fresh
  in
  { table; store = Routes.cells table; names; nodes }

let cell v ~src j = Routes.cell v.table ~src:v.nodes.(src) ~dst:v.nodes.(j)

(* The naive size of the route of cell [c], read off its length. *)
let entry_bytes store c = D.entry_bytes_of_length (Cell.length store c)

let row_of_view v src ~full =
  {
    names = v.names;
    cells = Array.init (Array.length v.nodes) (cell v ~src);
    store = v.store;
    full;
    gen = Routes.generation v.table;
  }

let hosts t = List.map fst (Smap.bindings t)

let entries_for (t : tables) name =
  match Smap.find_opt name t with
  | None -> []
  | Some row ->
    let acc = ref [] in
    for j = Array.length row.names - 1 downto 0 do
      match Cell.to_route row.store row.cells.(j) with
      | Some turns -> acc := (row.names.(j), turns) :: !acc
      | None -> ()
    done;
    !acc

(* ------------------------------------------------------------------ *)

type kind = Unchanged | Delta of { changed : int; removed : int } | Full

type slice = { owner : string; kind : kind; bytes : int; full_bytes : int }

type plan = {
  slices : slice list;
  delta_bytes : int;
  full_bytes : int;
  unchanged_hosts : int;
}

(* A delta slice carries a 4-byte header (table version + entry count);
   a tombstone is an entry header with zero turns. *)
let delta_header_bytes = 4
let tombstone_bytes = 3

(* The cost of shipping a host's whole slice pooled: routes from one
   source share their up-phase *prefixes*, so we intern them reversed
   and the common heads collapse into pool suffixes. Pays off once
   slices are fabric-sized (~80% of naive on ft-1k); on tiny NOW tables
   the per-entry reference overhead loses, so a header bit selects
   whichever encoding is smaller. The slice's entries are the cells
   [entry j] of [store] for [j < n]. *)
let packed_slice_bytes store n entry =
  let pool = Pool.create () and full_bytes = ref 0 in
  for j = 0 to n - 1 do
    match Cell.to_route store (entry j) with
    | Some turns ->
      full_bytes := !full_bytes + D.entry_bytes turns;
      ignore (Pool.add pool (List.rev turns))
    | None -> ()
  done;
  min !full_bytes (delta_header_bytes + Pool.packed_bytes pool)

(* A complete pooled redistribution: one pool per host slice. *)
let packed_full_bytes table =
  let v = view ~installed:empty table in
  let n = Array.length v.nodes and total = ref 0 in
  for src = 0 to n - 1 do
    total := !total + packed_slice_bytes v.store n (cell v ~src)
  done;
  !total

(* Per-source counters of one plan, indexed like the view: each fresh
   slice's diff against the installed row. [dropped] sums the naive
   size of the installed entries that differ, and [size] that of the
   fresh entries read. *)
type tally = {
  changed : int array;
  changed_bytes : int array;
  removed : int array;
  dropped : int array;
  size : int array;
}

let sum t src v fresh =
  if fresh <> Cell.none then t.size.(src) <- t.size.(src) + entry_bytes v.store fresh

(* The fresh cell [fresh] of the view against the cell [installed] of
   [old]'s store. *)
let count t src v fresh (old : row) installed =
  sum t src v fresh;
  if not (Cell.equal v.store fresh old.store installed) then begin
    if fresh = Cell.none then t.removed.(src) <- t.removed.(src) + 1
    else begin
      t.changed.(src) <- t.changed.(src) + 1;
      t.changed_bytes.(src) <- t.changed_bytes.(src) + entry_bytes v.store fresh
    end;
    if installed <> Cell.none then
      t.dropped.(src) <- t.dropped.(src) + entry_bytes old.store installed
  end

(* Walk [src]'s installed row of another table generation against the
   view, by destination name. *)
let merge_walk t v src (old : row) =
  let no = Array.length old.names and nh = Array.length v.nodes in
  let i = ref 0 and j = ref 0 in
  while !i < no || !j < nh do
    let c =
      if !i >= no then 1
      else if !j >= nh then -1
      else String.compare old.names.(!i) v.names.(!j)
    in
    if c < 0 then begin
      count t src v Cell.none old old.cells.(!i);
      incr i
    end
    else if c > 0 then begin
      count t src v (cell v ~src !j) old Cell.none;
      incr j
    end
    else begin
      count t src v (cell v ~src !j) old old.cells.(!i);
      incr i;
      incr j
    end
  done

(* Each host's view index, by node. *)
let index_of v =
  let index = Array.make (Graph.num_nodes (Routes.graph v.table)) (-1) in
  Array.iteri (fun j n -> index.(n) <- j) v.nodes;
  index

(* [f s j] for every changed pair of the table whose source [s] has a
   patched row; [j] is the destination's view index. *)
let iter_patched v bases f =
  let index = index_of v in
  Routes.iter_changed v.table (fun src dst ->
      let s = index.(src) in
      match bases.(s) with Patched -> f s index.(dst) | _ -> ())

(* Host [src]'s slice from its counters, [None] when the table gives it
   no route. A row of this table keeps its naive size, a patched one
   takes the installed size with the changed entries' sizes swapped,
   and any other the size of the fresh row its comparison read. *)
let slice_of_host t v src installed basis =
  let owner = v.names.(src) in
  let unchanged = t.changed.(src) = 0 && t.removed.(src) = 0 in
  let full_bytes =
    match (basis, installed) with
    | Patched, Some old -> old.full - t.dropped.(src) + t.changed_bytes.(src)
    | Current, Some old -> old.full
    | _ -> t.size.(src)
  in
  if full_bytes = 0 then None
  else
    match installed with
    | None -> Some { owner; kind = Full; bytes = full_bytes; full_bytes }
    | Some _ when unchanged ->
      Some { owner; kind = Unchanged; bytes = 0; full_bytes }
    | Some _ ->
      let changed = t.changed.(src) and removed = t.removed.(src) in
      let delta_bytes =
        delta_header_bytes + t.changed_bytes.(src) + (removed * tombstone_bytes)
      in
      if delta_bytes >= full_bytes then
        Some { owner; kind = Full; bytes = full_bytes; full_bytes }
      else
        Some
          {
            owner;
            kind = Delta { changed; removed };
            bytes = delta_bytes;
            full_bytes;
          }

(* Every host's slice in name order, each with its view index, and
   each host's installed row and basis. A row of this very table is
   unchanged. A row of the previous table (on the same names) differs
   from the fresh slice exactly at the table's changed pairs, so only
   those are read. Against a row of another generation sharing the
   view's names array the fresh table is scanned destination by
   destination, the order [Routes.compute] stores its routes in (one
   destination's routes are contiguous, and share their tails),
   comparing each pair once, and so is the row of a source with no
   installed row (on a cold ledger, every host), summed rather than
   one strided row at a time; a row over other names is merge-walked
   by name. *)
let slices_of_view ~(installed : tables) v =
  let nh = Array.length v.nodes in
  let olds = Array.map (fun name -> Smap.find_opt name installed) v.names in
  let bases = Array.map (basis v) olds in
  let t =
    {
      changed = Array.make nh 0;
      changed_bytes = Array.make nh 0;
      removed = Array.make nh 0;
      dropped = Array.make nh 0;
      size = Array.make nh 0;
    }
  in
  if Array.mem Patched bases then
    iter_patched v bases (fun s j ->
        let old = Option.get olds.(s) in
        count t s v (cell v ~src:s j) old old.cells.(j));
  if Array.exists (function Fresh | Scanned -> true | _ -> false) bases then
    for j = 0 to nh - 1 do
      for src = 0 to nh - 1 do
        match (bases.(src), olds.(src)) with
        | Fresh, _ -> sum t src v (cell v ~src j)
        | Scanned, Some old -> count t src v (cell v ~src j) old old.cells.(j)
        | _ -> ()
      done
    done;
  let acc = ref [] in
  for src = nh - 1 downto 0 do
    (match (bases.(src), olds.(src)) with
    | Merged, Some old -> merge_walk t v src old
    | _ -> ());
    match slice_of_host t v src olds.(src) bases.(src) with
    | Some s -> acc := (src, s) :: !acc
    | None -> ()
  done;
  (!acc, olds, bases)

let plan_of_slices slices =
  {
    slices;
    delta_bytes = List.fold_left (fun a s -> a + s.bytes) 0 slices;
    full_bytes = List.fold_left (fun a (s : slice) -> a + s.full_bytes) 0 slices;
    unchanged_hosts =
      List.fold_left
        (fun a s -> match s.kind with Unchanged -> a + 1 | _ -> a)
        0 slices;
  }

(* One slice per source host; a host with no route at all holds no
   slice. *)
let of_routes table =
  let v = view ~installed:empty table in
  let slices, _, _ = slices_of_view ~installed:empty v in
  List.fold_left
    (fun acc (src, s) -> Smap.add s.owner (row_of_view v src ~full:s.full_bytes) acc)
    empty slices

let plan ~installed table =
  let v = view ~installed table in
  let slices, _, _ = slices_of_view ~installed v in
  plan_of_slices (List.map snd slices)

(* ------------------------------------------------------------------ *)

type report = {
  plan : plan;
  dist : D.report;
  installed : tables;
  sent_bytes : int;
  full_sent_bytes : int;
}

(* The new rows of the delivered slices whose installed row is
   patched and of the table's store: the installed row copied, with the
   changed entries written in, in one pass over the changed pairs. *)
let patched_rows v olds bases ~delivered =
  let rows = Array.make (Array.length v.nodes) [||] in
  Array.iteri
    (fun s old ->
      match (bases.(s), old) with
      | Patched, Some (old : row) when delivered.(s) && old.store == v.store ->
        rows.(s) <- Array.copy old.cells
      | _ -> ())
    olds;
  iter_patched v bases (fun s j ->
      if Array.length rows.(s) > 0 then rows.(s).(j) <- cell v ~src:s j);
  rows

let distribute ?params ?retries ?traffic ~installed table ~actual ~leader =
  let leader_name = Graph.name actual leader in
  let v = view ~installed table in
  let indexed, olds, bases = slices_of_view ~installed v in
  let p = plan_of_slices (List.map snd indexed) in
  let to_ship =
    List.filter
      (fun (_, s) ->
        match s.kind with
        | Unchanged -> false
        | Delta _ | Full -> s.owner <> leader_name)
      indexed
  in
  match
    D.simulate_slices ?params ?retries ?traffic table ~actual ~leader
      ~slices:(List.map (fun (src, s) -> (v.nodes.(src), s.bytes)) to_ship)
  with
  | Error _ as e -> e
  | Ok dist ->
    let map = Routes.graph table in
    let missed =
      Sset.of_list (List.map (fun node -> Graph.name map node) dist.D.missed)
    in
    (* Every slice that needed shipping and arrived (or was the
       leader's own) gets its new row. *)
    let delivered = Array.make (Array.length v.nodes) false in
    List.iter
      (fun (src, s) ->
        match s.kind with
        | Unchanged -> ()
        | Delta _ | Full ->
          delivered.(src) <-
            s.owner = leader_name || not (Sset.mem s.owner missed))
      indexed;
    let patched = patched_rows v olds bases ~delivered in
    let gen = Routes.generation table in
    (* Advance the ledger: a delivered slice installs its new row; an
       unchanged slice keeps its installed entries, now as a row of
       this table; a missed slice keeps its row. *)
    let installed =
      List.fold_left
        (fun acc (src, s) ->
          match (s.kind, olds.(src)) with
          | Unchanged, Some old when old.gen != gen ->
            Smap.add s.owner { old with gen } acc
          | (Delta _ | Full), _ when delivered.(src) ->
            let row =
              if Array.length patched.(src) > 0 then
                {
                  names = v.names;
                  cells = patched.(src);
                  store = v.store;
                  full = s.full_bytes;
                  gen;
                }
              else row_of_view v src ~full:s.full_bytes
            in
            Smap.add s.owner row acc
          | (Unchanged | Delta _ | Full), _ -> acc)
        installed indexed
    in
    let sent_bytes = List.fold_left (fun a (_, s) -> a + s.bytes) 0 to_ship in
    let full_sent_bytes =
      List.fold_left
        (fun a s -> if s.owner = leader_name then a else a + s.full_bytes)
        0 p.slices
    in
    Ok { plan = p; dist; installed; sent_bytes; full_sent_bytes }
