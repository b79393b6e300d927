type edge_view = {
  ev_eid : int;
  ev_a : int;
  ev_pa : int;
  ev_b : int;
  ev_pb : int;
  ev_did : int;
}

type t = {
  parent : (int, int) Hashtbl.t; (* absorbed canonical -> kept canonical *)
  shift : (int, int) Hashtbl.t; (* slot_kept = slot_absorbed + shift *)
  dead : (int, unit) Hashtbl.t; (* final canonicals of pruned classes *)
  bases : (int, int) Hashtbl.t;
  r_members : (int, int list) Hashtbl.t;
  r_edges : edge_view list;
}

let rec resolve parent shift v =
  match Hashtbl.find_opt parent v with
  | None -> (v, 0)
  | Some p ->
    let r, s = resolve parent shift p in
    (r, Hashtbl.find shift v + s)

let find t v = resolve t.parent t.shift v
let live t v = not (Hashtbl.mem t.dead (fst (find t v)))
let members t c = Option.value ~default:[] (Hashtbl.find_opt t.r_members c)

let build snap =
  let parent = Hashtbl.create 64 and shift = Hashtbl.create 64 in
  List.iter
    (fun (m : Why.merge_rec) ->
      (* [kept]/[absorbed] were canonical when recorded, so each vid is
         absorbed at most once and the chains terminate. *)
      Hashtbl.replace parent m.Why.absorbed m.Why.kept;
      Hashtbl.replace shift m.Why.absorbed m.Why.shift)
    (Why.merges snap);
  let dead = Hashtbl.create 16 in
  List.iter
    (fun (vid, _) ->
      Hashtbl.replace dead (fst (resolve parent shift vid)) ())
    (Why.pruned snap);
  (* Live edges in final canonical frames. *)
  let raw =
    List.filter_map
      (fun (e : Why.edge_rec) ->
        if Why.edge_dead snap ~eid:e.Why.eid then None
        else begin
          let ca, sa = resolve parent shift e.Why.e_a in
          let cb, sb = resolve parent shift e.Why.e_b in
          if Hashtbl.mem dead ca || Hashtbl.mem dead cb then None
          else
            Some
              ( e.Why.eid,
                ca,
                e.Why.e_sa + sa,
                cb,
                e.Why.e_sb + sb,
                e.Why.e_did )
        end)
      (Why.edges snap)
  in
  let bases = Hashtbl.create 64 in
  let touch c slot =
    match Why.vertex_kind snap ~vid:c with
    | Some (`Host _) | None -> ()
    | Some `Switch -> (
      match Hashtbl.find_opt bases c with
      | Some b when b <= slot -> ()
      | _ -> Hashtbl.replace bases c slot)
  in
  List.iter
    (fun (_, ca, sa, cb, sb, _) ->
      touch ca sa;
      touch cb sb)
    raw;
  let base_of c = Option.value ~default:0 (Hashtbl.find_opt bases c) in
  let r_edges =
    List.map
      (fun (eid, ca, sa, cb, sb, did) ->
        {
          ev_eid = eid;
          ev_a = ca;
          ev_pa = sa - base_of ca;
          ev_b = cb;
          ev_pb = sb - base_of cb;
          ev_did = did;
        })
      raw
  in
  let r_members = Hashtbl.create 64 in
  List.iter
    (fun vid ->
      let c, _ = resolve parent shift vid in
      Hashtbl.replace r_members c
        (vid :: Option.value ~default:[] (Hashtbl.find_opt r_members c)))
    (Why.vertices snap);
  let sorted =
    Hashtbl.fold (fun c l acc -> (c, List.sort compare l) :: acc) r_members []
  in
  List.iter (fun (c, l) -> Hashtbl.replace r_members c l) sorted;
  { parent; shift; dead; bases; r_members; r_edges }

let live_edges t = t.r_edges

let edge_at t ~a ~pa ~b ~pb =
  List.find_opt
    (fun e ->
      (e.ev_a = a && e.ev_pa = pa && e.ev_b = b && e.ev_pb = pb)
      || (e.ev_a = b && e.ev_pa = pb && e.ev_b = a && e.ev_pb = pa))
    t.r_edges

let vid_of_map_switch name =
  if String.length name >= 2 && name.[0] = 'm' then
    int_of_string_opt (String.sub name 1 (String.length name - 1))
  else None
