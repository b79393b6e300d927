open San_topology
module Smap = Map.Make (String)
module Sset = Set.Make (String)
module D = San_routing.Distribute
module Routes = San_routing.Routes
module Pool = San_routing.Serve.Pool

(* One host's slice, dense: [routes.(j)] is its route to [names.(j)],
   [None] where the slice holds no entry. [names] is the name-sorted
   host list of the table the row came from, one array shared by every
   row of that table (and reused by later tables with the same hosts),
   so rows of one generation compare position by position. [full] is
   the slice's naive size, so an unchanged slice is never summed
   again. *)
type row = {
  names : string array;
  routes : San_simnet.Route.t option array;
  full : int;
}

type tables = row Smap.t

let empty = Smap.empty

(* A fresh table seen along the ledger's destination axis: its hosts
   sorted by name once, [nodes.(j)] named [names.(j)]. *)
type view = { table : Routes.t; names : string array; nodes : Graph.node array }

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
  { table; names; nodes }

let route v ~src j = Routes.route v.table ~src:v.nodes.(src) ~dst:v.nodes.(j)

(* The naive size of [src]'s fresh slice: one read of its row. *)
let fresh_full v src =
  let full = ref 0 in
  for j = 0 to Array.length v.nodes - 1 do
    match route v ~src j with
    | Some turns -> full := !full + D.entry_bytes turns
    | None -> ()
  done;
  !full

let row_of_view v src ~full =
  {
    names = v.names;
    routes = Array.init (Array.length v.nodes) (route v ~src);
    full;
  }

(* One slice per source host; a host with no route at all holds no
   slice. *)
let of_routes table =
  let v = view ~installed:empty table in
  let acc = ref empty in
  for src = Array.length v.nodes - 1 downto 0 do
    let full = fresh_full v src in
    if full > 0 then acc := Smap.add v.names.(src) (row_of_view v src ~full) !acc
  done;
  !acc

let hosts t = List.map fst (Smap.bindings t)

let entries_for (t : tables) name =
  match Smap.find_opt name t with
  | None -> []
  | Some row ->
    let acc = ref [] in
    for j = Array.length row.names - 1 downto 0 do
      match row.routes.(j) with
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
   whichever encoding is smaller. The slice's entries are [entry j]
   for [j < n]. *)
let packed_slice_bytes n entry =
  let pool = Pool.create () and full_bytes = ref 0 in
  for j = 0 to n - 1 do
    match entry j with
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
    total := !total + packed_slice_bytes n (route v ~src)
  done;
  !total

(* Per-source counters of one plan, indexed like the view: each fresh
   slice's diff against the installed row. *)
type tally = { changed : int array; changed_bytes : int array; removed : int array }

(* Turn-list equality without a closure, stopping at a physically
   shared tail. *)
let rec same_turns a b =
  a == b
  ||
  match (a, b) with
  | (x : int) :: a, y :: b -> x = y && same_turns a b
  | _ -> false

let count t src fresh installed =
  match (fresh, installed) with
  | Some turns, Some old_turns when same_turns turns old_turns -> ()
  | Some turns, _ ->
    t.changed.(src) <- t.changed.(src) + 1;
    t.changed_bytes.(src) <- t.changed_bytes.(src) + D.entry_bytes turns
  | None, Some _ -> t.removed.(src) <- t.removed.(src) + 1
  | None, None -> ()

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
      count t src None old.routes.(!i);
      incr i
    end
    else if c > 0 then begin
      count t src (route v ~src !j) None;
      incr j
    end
    else begin
      count t src (route v ~src !j) old.routes.(!i);
      incr i;
      incr j
    end
  done

(* Host [src]'s slice from its counters, [None] when the table gives it
   no route. An unchanged slice takes its naive size from the installed
   row; only a new or changed slice sums its fresh row. *)
let slice_of_host t v src installed =
  let owner = v.names.(src) in
  let unchanged = t.changed.(src) = 0 && t.removed.(src) = 0 in
  let full_bytes =
    match installed with
    | Some old when unchanged -> old.full
    | Some _ | None -> fresh_full v src
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

(* Every host's slice in name order, each with its view index. The
   fresh table is read destination by destination, the order
   [Routes.compute] compiles and stores its routes in (one
   destination's routes are contiguous, and share their tails), so
   the scan streams through memory: against an installed row sharing
   the view's names array it compares each pair once, counting changes
   position by position. A row of another table generation is
   merge-walked by name. A source with no installed row is left to
   [slice_of_host]. *)
let slices_of_view ~(installed : tables) v =
  let nh = Array.length v.nodes in
  let olds = Array.map (fun name -> Smap.find_opt name installed) v.names in
  let t =
    {
      changed = Array.make nh 0;
      changed_bytes = Array.make nh 0;
      removed = Array.make nh 0;
    }
  in
  for j = 0 to nh - 1 do
    for src = 0 to nh - 1 do
      match olds.(src) with
      | Some old when old.names == v.names ->
        count t src (route v ~src j) old.routes.(j)
      | Some _ | None -> ()
    done
  done;
  let acc = ref [] in
  for src = nh - 1 downto 0 do
    (match olds.(src) with
    | Some old when old.names != v.names -> merge_walk t v src old
    | Some _ | None -> ());
    match slice_of_host t v src olds.(src) with
    | Some s -> acc := (src, s) :: !acc
    | None -> ()
  done;
  !acc

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

let plan ~installed table =
  let v = view ~installed table in
  plan_of_slices (List.map snd (slices_of_view ~installed v))

(* ------------------------------------------------------------------ *)

type report = {
  plan : plan;
  dist : D.report;
  installed : tables;
  sent_bytes : int;
  full_sent_bytes : int;
}

let distribute ?params ?retries ?traffic ~installed table ~actual ~leader =
  let leader_name = Graph.name actual leader in
  let v = view ~installed table in
  let indexed = slices_of_view ~installed v in
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
    (* Advance the ledger for every slice that needed shipping and
       arrived (or was the leader's own); an unchanged slice keeps its
       installed row, which already holds the same entries. *)
    let installed =
      List.fold_left
        (fun acc (src, s) ->
          match s.kind with
          | Unchanged -> acc
          | Delta _ | Full ->
            if s.owner = leader_name || not (Sset.mem s.owner missed) then
              Smap.add s.owner (row_of_view v src ~full:s.full_bytes) acc
            else acc)
        installed indexed
    in
    let sent_bytes = List.fold_left (fun a (_, s) -> a + s.bytes) 0 to_ship in
    let full_sent_bytes =
      List.fold_left
        (fun a s -> if s.owner = leader_name then a else a + s.full_bytes)
        0 p.slices
    in
    Ok { plan = p; dist; installed; sent_bytes; full_sent_bytes }
