open San_topology

let restrict_silent graph silent =
  List.filter (fun n -> Graph.host_by_name graph n <> None) silent

let drop_node (c : Fuzz_gen.case) v =
  (* The induced subfabric keeps port numbers, radix and names, so the
     shrunk fabric is a true subfabric and every port-sensitive bug
     survives the shrink. *)
  let graph = Graph.induced c.Fuzz_gen.graph ~keep:(fun u -> u <> v) in
  { c with Fuzz_gen.graph; silent = restrict_silent graph c.Fuzz_gen.silent }

let drop_wire (c : Fuzz_gen.case) (e, _) =
  let graph = Graph.copy c.Fuzz_gen.graph in
  Graph.disconnect graph e;
  { c with Fuzz_gen.graph }

let unsilence (c : Fuzz_gen.case) name =
  { c with Fuzz_gen.silent = List.filter (( <> ) name) c.Fuzz_gen.silent }

let drop_schedule_entry (c : Fuzz_gen.case) i =
  { c with
    Fuzz_gen.schedule =
      List.filteri (fun j _ -> j <> i) c.Fuzz_gen.schedule }

(* Reduction moves, biggest first: drop a schedule entry (cheapest to
   re-check and often the whole cause under load properties), drop a
   switch (and all its wires), drop a host, drop a single wire, wake a
   silent host. *)
let candidates (c : Fuzz_gen.case) =
  let g = c.Fuzz_gen.graph in
  List.mapi (fun i _ () -> drop_schedule_entry c i) c.Fuzz_gen.schedule
  @ List.map (fun s () -> drop_node c s) (Graph.switches g)
  @ List.map (fun h () -> drop_node c h) (Graph.hosts g)
  @ List.map (fun w () -> drop_wire c w) (Graph.wires g)
  @ List.map (fun n () -> unsilence c n) c.Fuzz_gen.silent

(* Greedy: take the first candidate that still fails and restart from
   it; stop at a local minimum or when the budget runs out. *)
let shrink ~fails ~budget case =
  let tries = ref 0 in
  let rec go case =
    let rec first = function
      | [] -> case
      | cand :: rest ->
        if !tries >= budget then case
        else begin
          incr tries;
          let c = cand () in
          if fails c then go c else first rest
        end
    in
    first (candidates case)
  in
  let shrunk = go case in
  (shrunk, !tries)
