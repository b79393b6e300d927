(** Graphviz DOT export of network maps, in the spirit of the paper's
    Figures 4 and 5 (hosts as plain nodes, switches as record nodes
    exposing their port numbers). *)

val to_string :
  ?graph_name:string ->
  ?heat:(Graph.wire_end * Graph.wire_end -> float) ->
  Graph.t ->
  string
(** Render the network as an undirected DOT graph. Wires carry
    tail/head port labels; switches are boxes labelled with their
    cosmetic name (or [sw<id>]). When [heat] is given, each wire (ends
    in {!Graph.wires}' canonical order) is colored on a cool-to-hot
    sweep and widened by its utilization in [0,1] — the post-mortem
    fabric heat map. *)

val to_file : ?graph_name:string -> Graph.t -> string -> unit
(** [to_file g path] writes the DOT text (no heat) to [path]. *)
