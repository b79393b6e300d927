let node_id g n =
  if Graph.is_host g n then Printf.sprintf "h_%d" n else Printf.sprintf "sw_%d" n

let node_label g n =
  if Graph.is_host g n then Graph.name g n
  else
    let base = Graph.name g n in
    if base = "" then Printf.sprintf "sw%d" n else base

(* Utilization in [0,1] to a cool-to-hot HSV sweep (blue through red)
   and a widening pen, Graphviz's numeric color syntax. *)
let heat_attrs u =
  let u = Float.max 0.0 (Float.min 1.0 u) in
  Printf.sprintf ", color=\"%.3f 1.000 0.800\", penwidth=%.2f"
    (0.666 *. (1.0 -. u))
    (1.0 +. (4.0 *. u))

let to_string ?(graph_name = "network") ?heat g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "graph \"%s\" {\n" graph_name);
  Buffer.add_string buf "  node [fontsize=10];\n";
  List.iter
    (fun n ->
      let shape = if Graph.is_host g n then "ellipse" else "box" in
      Buffer.add_string buf
        (Printf.sprintf "  %s [label=\"%s\", shape=%s];\n" (node_id g n)
           (node_label g n) shape))
    (Graph.nodes g);
  List.iter
    (fun (((a, pa), (b, pb)) as wire) ->
      let extra =
        match heat with None -> "" | Some f -> heat_attrs (f wire)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s -- %s [taillabel=\"%d\", headlabel=\"%d\"%s];\n"
           (node_id g a) (node_id g b) pa pb extra))
    (Graph.wires g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_file ?graph_name g path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?graph_name g))
