open San_topology
module Why = San_why.Why

type view = {
  v_idx : int;
  v_map : Graph.t;
  v_epoch : int;
  v_finished_ns : float;
  v_probe : int option;
  v_mapper : string;
}

type resolution = {
  r_winner : int;
  r_loser : int;
  r_class : string;
  r_action : string;
  r_detail : string;
  r_did : int;
}

type outcome = {
  map : (Graph.t, string) result;
  resolutions : resolution list;
  dropped_views : int list;
}

(* A view that keeps contradicting the accumulated map is wrong in a
   way trimming cannot fix; bound the retries and discard it. *)
let max_resolutions_per_view = 16

let resolve views =
  let order =
    List.stable_sort
      (fun a b ->
        match compare b.v_epoch a.v_epoch with
        | 0 -> (
          match compare b.v_finished_ns a.v_finished_ns with
          | 0 -> compare a.v_idx b.v_idx
          | c -> c)
        | c -> c)
      views
  in
  match order with
  | [] ->
    { map = Error "no shard views to merge"; resolutions = []; dropped_views = [] }
  | first :: rest ->
    let fresh_epoch = first.v_epoch in
    let resolutions = ref [] in
    let dropped = ref [] in
    let acc = ref first.v_map in
    (* Winner attribution: the freshest contributor to the accumulated
       map — the side whose evidence survives the resolution. *)
    let lead = first in
    let record ~loser ~cls ~action ~detail =
      let probes = List.filter_map Fun.id [ lead.v_probe; loser.v_probe ] in
      let did =
        Why.deduce ~rule:"shard.resolve"
          ~fact:
            (lazy
              (Printf.sprintf
                 "merge conflict (%s): shard %d/%s (epoch %d) overrides shard \
                  %d/%s (epoch %d): %s — %s"
                 cls lead.v_idx lead.v_mapper lead.v_epoch loser.v_idx
                 loser.v_mapper loser.v_epoch action detail))
          ~probes ()
      in
      resolutions :=
        {
          r_winner = lead.v_idx;
          r_loser = loser.v_idx;
          r_class = cls;
          r_action = action;
          r_detail = detail;
          r_did = did;
        }
        :: !resolutions
    in
    let try_view v =
      let cur = ref v.v_map in
      let budget = ref max_resolutions_per_view in
      let rec go () =
        match Merge_maps.union_c !acc !cur with
        | Ok g -> `Merged g
        | Error c ->
          if c.Merge_maps.cls = Merge_maps.No_anchor then `Defer
          else begin
            let cls =
              if v.v_epoch < fresh_epoch then "stale-view"
              else Merge_maps.class_name c.Merge_maps.cls
            in
            decr budget;
            if !budget < 0 then begin
              record ~loser:v ~cls ~action:"dropped-view"
                ~detail:("resolution budget exhausted: " ^ c.Merge_maps.detail);
              `Dropped
            end
            else begin
              match c.Merge_maps.b_wire with
              | Some ((a, pa), (b, pb)) ->
                let action =
                  Printf.sprintf "dropped-wire %s.%d-%s.%d" (Graph.name !cur a)
                    pa (Graph.name !cur b) pb
                in
                record ~loser:v ~cls ~action ~detail:c.Merge_maps.detail;
                let m = Graph.copy !cur in
                Graph.disconnect m (a, pa);
                cur := m;
                go ()
              | None -> (
                match c.Merge_maps.b_node with
                | Some bn ->
                  let action =
                    Printf.sprintf "dropped-node %s" (Graph.name !cur bn)
                  in
                  record ~loser:v ~cls ~action ~detail:c.Merge_maps.detail;
                  cur := Graph.induced !cur ~keep:(fun u -> u <> bn);
                  go ()
                | None ->
                  record ~loser:v ~cls ~action:"dropped-view"
                    ~detail:c.Merge_maps.detail;
                  `Dropped)
            end
          end
      in
      go ()
    in
    (* Freshest-first with deferral on missing anchors; shard counts
       are small, so the simple requeue loop is fine here (the
       anchor-indexed fast path lives in Merge_maps.union_all). *)
    let rec loop pending stuck progressed =
      match (pending, stuck) with
      | [], [] -> ()
      | [], s ->
        if progressed then loop (List.rev s) [] false
        else
          List.iter
            (fun v ->
              record ~loser:v ~cls:"no-anchor" ~action:"dropped-view"
                ~detail:"shares no host anchor with the merged map";
              dropped := v.v_idx :: !dropped)
            (List.rev s)
      | v :: more, s -> (
        match try_view v with
        | `Merged g ->
          acc := g;
          loop more s true
        | `Defer -> loop more (v :: s) progressed
        | `Dropped ->
          dropped := v.v_idx :: !dropped;
          loop more s progressed)
    in
    loop rest [] false;
    {
      map = Ok !acc;
      resolutions = List.rev !resolutions;
      dropped_views = List.rev !dropped;
    }
