(* The reference the dense delta planner is tested against: the
   ledger as a string Map of string Maps, rebuilt per epoch with one
   add per pair, every slice summed afresh and the missed owners
   searched with List.mem — kept literally as it was before the ledger
   moved to name-sorted dense rows. Same planning and distribution
   interface as [San_service.Delta] (its own [tables]); the
   differential tests in test_service.ml run both on one input. *)

open San_topology
module Smap = Map.Make (String)
module D = San_routing.Distribute
module Delta = San_service.Delta

type tables = San_simnet.Route.t Smap.t Smap.t

let empty = Smap.empty

(* One slice per source host, built whole and added once; a host with
   no route at all holds no slice. *)
let of_routes table =
  let g = San_routing.Routes.graph table in
  let hosts = Graph.hosts g in
  List.fold_left
    (fun acc src ->
      let slice =
        List.fold_left
          (fun slice dst ->
            match San_routing.Routes.route table ~src ~dst with
            | Some turns -> Smap.add (Graph.name g dst) turns slice
            | None -> slice)
          Smap.empty hosts
      in
      if Smap.is_empty slice then acc else Smap.add (Graph.name g src) slice acc)
    Smap.empty hosts

let hosts t = List.map fst (Smap.bindings t)

let entries_for t name =
  match Smap.find_opt name t with
  | None -> []
  | Some slice -> Smap.bindings slice

(* ------------------------------------------------------------------ *)

type kind = Delta.kind = Unchanged | Delta of { changed : int; removed : int } | Full

type slice = Delta.slice = {
  owner : string;
  kind : kind;
  bytes : int;
  full_bytes : int;
}

type plan = Delta.plan = {
  slices : slice list;
  delta_bytes : int;
  full_bytes : int;
  unchanged_hosts : int;
}

(* A delta slice carries a 4-byte header (table version + entry count);
   a tombstone is an entry header with zero turns. *)
let delta_header_bytes = 4
let tombstone_bytes = 3

(* The cost of shipping this host's whole slice pooled: routes from
   one source share their up-phase *prefixes*, so we intern them
   reversed and the common heads collapse into pool suffixes. Pays off
   once slices are fabric-sized (~80% of naive on ft-1k); on tiny NOW
   tables the per-entry reference overhead loses, so a header bit
   selects whichever encoding is smaller. *)
let packed_slice_bytes ~full_bytes fresh_slice =
  let pool = San_routing.Serve.Pool.create () in
  Smap.iter
    (fun _ turns -> ignore (San_routing.Serve.Pool.add pool (List.rev turns)))
    fresh_slice;
  min full_bytes
    (delta_header_bytes + San_routing.Serve.Pool.packed_bytes pool)

let slice_full_bytes fresh_slice =
  Smap.fold (fun _ turns acc -> acc + D.entry_bytes turns) fresh_slice 0

(* A complete pooled redistribution of the table. *)
let packed_full_bytes table =
  Smap.fold
    (fun _ fresh_slice acc ->
      let full_bytes = slice_full_bytes fresh_slice in
      acc + packed_slice_bytes ~full_bytes fresh_slice)
    (of_routes table) 0

let slice_of_host ~installed owner fresh_slice =
  let full_bytes = slice_full_bytes fresh_slice in
  match Smap.find_opt owner installed with
  | None -> { owner; kind = Full; bytes = full_bytes; full_bytes }
  | Some old_slice ->
    let changed, changed_bytes =
      Smap.fold
        (fun dst turns ((n, b) as acc) ->
          match Smap.find_opt dst old_slice with
          | Some old_turns when List.equal Int.equal old_turns turns -> acc
          | _ -> (n + 1, b + D.entry_bytes turns))
        fresh_slice (0, 0)
    in
    let removed =
      Smap.fold
        (fun dst _ n -> if Smap.mem dst fresh_slice then n else n + 1)
        old_slice 0
    in
    if changed = 0 && removed = 0 then
      { owner; kind = Unchanged; bytes = 0; full_bytes }
    else
      let delta_bytes =
        delta_header_bytes + changed_bytes + (removed * tombstone_bytes)
      in
      if delta_bytes >= full_bytes then
        { owner; kind = Full; bytes = full_bytes; full_bytes }
      else
        {
          owner;
          kind = Delta { changed; removed };
          bytes = delta_bytes;
          full_bytes;
        }

let plan_fresh ~installed fresh =
  let slices =
    List.map
      (fun (owner, fresh_slice) -> slice_of_host ~installed owner fresh_slice)
      (Smap.bindings fresh)
  in
  {
    slices;
    delta_bytes = List.fold_left (fun a s -> a + s.bytes) 0 slices;
    full_bytes = List.fold_left (fun a (s : slice) -> a + s.full_bytes) 0 slices;
    unchanged_hosts =
      List.length (List.filter (fun s -> s.kind = Unchanged) slices);
  }

let plan ~installed table = plan_fresh ~installed (of_routes table)

(* ------------------------------------------------------------------ *)

type report = {
  plan : plan;
  dist : D.report;
  installed : tables;
  sent_bytes : int;
  full_sent_bytes : int;
}

let distribute ?params ?retries ?traffic ~installed table ~actual ~leader =
  let map = San_routing.Routes.graph table in
  let leader_name = Graph.name actual leader in
  (* The fresh ledger is built once: it feeds the plan and, for the
     delivered hosts, becomes the installed one. *)
  let fresh = of_routes table in
  let p = plan_fresh ~installed fresh in
  let to_ship =
    List.filter (fun s -> s.kind <> Unchanged && s.owner <> leader_name) p.slices
  in
  let unresolved, slices =
    List.partition_map
      (fun s ->
        match Graph.host_by_name map s.owner with
        | Some node -> Either.Right (s.owner, node, s.bytes)
        | None -> Either.Left s.owner)
      to_ship
  in
  (* Owners of the table always resolve in the table's graph; keep the
     partition total anyway. *)
  assert (unresolved = []);
  match
    D.simulate_slices ?params ?retries ?traffic table ~actual ~leader
      ~slices:(List.map (fun (_, node, bytes) -> (node, bytes)) slices)
  with
  | Error _ as e -> e
  | Ok dist ->
    let missed_names =
      List.map (fun node -> Graph.name map node) dist.D.missed
    in
    let delivered_or_local name =
      name = leader_name || not (List.mem name missed_names)
    in
    (* Advance the ledger for every slice that needed shipping and
       arrived (or was the leader's own); unchanged slices are already
       current by definition. *)
    let installed =
      Smap.fold
        (fun owner fresh_slice acc ->
          if delivered_or_local owner then Smap.add owner fresh_slice acc
          else acc)
        fresh installed
    in
    let sent_bytes =
      List.fold_left (fun a (_, _, bytes) -> a + bytes) 0 slices
    in
    let full_sent_bytes =
      List.fold_left
        (fun a s -> if s.owner = leader_name then a else a + s.full_bytes)
        0 p.slices
    in
    Ok { plan = p; dist; installed; sent_bytes; full_sent_bytes }
