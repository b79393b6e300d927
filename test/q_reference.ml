(* The reference Core_set.q_of is tested against: Q(v) built literally
   as a 2-unit min-cost flow, a fresh network per node with a source
   arc into [v], solved by Flow's Bellman–Ford augmentations. Network
   layout: nodes 0..n-1 mirror the graph; n = sink-for-root, n+1 =
   sink-for-any-host, n+2 = supersink, n+3 = source. [force_root]
   sends one unit to the root and one to any host; without it both go
   to any hosts (q_of's fallback when the forced flow is infeasible). *)

open San_topology

let flow g ~root ~force_root v =
  let n = Graph.num_nodes g in
  let t_root = n and t_any = n + 1 and sink = n + 2 and source = n + 3 in
  let f = Flow.create (n + 4) in
  (* Capacity 2 per directed channel, except 1 on arcs leaving [v]: the
     two walks must depart v through different wires. *)
  List.iter
    (fun ((a, _), (b, _)) ->
      Flow.add_arc f ~src:a ~dst:b ~cap:(if a = v then 1 else 2) ~cost:1;
      Flow.add_arc f ~src:b ~dst:a ~cap:(if b = v then 1 else 2) ~cost:1)
    (Graph.wires g);
  if force_root then begin
    Flow.add_arc f ~src:root ~dst:t_root ~cap:1 ~cost:0;
    List.iter
      (fun h -> Flow.add_arc f ~src:h ~dst:t_any ~cap:1 ~cost:0)
      (Graph.hosts g);
    Flow.add_arc f ~src:t_root ~dst:sink ~cap:1 ~cost:0;
    Flow.add_arc f ~src:t_any ~dst:sink ~cap:1 ~cost:0
  end
  else
    List.iter
      (fun h -> Flow.add_arc f ~src:h ~dst:sink ~cap:1 ~cost:0)
      (Graph.hosts g);
  Flow.add_arc f ~src:source ~dst:v ~cap:2 ~cost:0;
  Flow.min_cost_flow f ~source ~sink ~amount:2
