open San_topology

type action =
  | Cut_links of int
  | Flap_link of int
  | Isolate_switch
  | Add_link
  | Kill_host of string
  | Kill_leader
  | Revive_host of string
  | Storm of { links : int; hosts : int }
  | Upgrade_switch of int
  | Partition of int
  | Flap_storm of { count : int; down : int }

type t = (int * action) list

let empty = []
let of_list l = l
let actions_at t epoch = List.filter_map
    (fun (e, a) -> if e = epoch then Some a else None)
    t

let last_epoch t = List.fold_left (fun acc (e, _) -> max acc e) (-1) t

let parse_action s =
  let kind, arg =
    match String.index_opt s '=' with
    | None -> (s, None)
    | Some i ->
      ( String.sub s 0 i,
        Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let int_arg ~default =
    match arg with
    | None -> Ok default
    | Some a -> (
      match int_of_string_opt a with
      | Some n when n > 0 -> Ok n
      | _ -> Error (Printf.sprintf "%s: positive count expected, got %S" kind a))
  in
  (* Compound args are 'x'-separated ("storm=2x3") because the comma
     already separates schedule entries. *)
  let pair_arg ~default:(d1, d2) =
    match arg with
    | None -> Ok (d1, d2)
    | Some a -> (
      let parts = String.split_on_char 'x' a in
      match List.map int_of_string_opt parts with
      | [ Some n ] when n > 0 -> Ok (n, d2)
      | [ Some n; Some m ] when n > 0 && m >= 0 -> Ok (n, m)
      | _ -> Error (Printf.sprintf "%s: expected N or NxM, got %S" kind a))
  in
  match kind with
  | "cut" -> Result.map (fun n -> Cut_links n) (int_arg ~default:1)
  | "flap" -> Result.map (fun n -> Flap_link n) (int_arg ~default:2)
  | "isolate" -> Ok Isolate_switch
  | "add" -> Ok Add_link
  | "kill-leader" -> Ok Kill_leader
  | "kill" -> (
    match arg with
    | Some h -> Ok (Kill_host h)
    | None -> Error "kill needs a host: kill=HOST (or use kill-leader)")
  | "revive" -> (
    match arg with
    | Some h -> Ok (Revive_host h)
    | None -> Error "revive needs a host: revive=HOST")
  | "storm" ->
    Result.map
      (fun (links, hosts) -> Storm { links; hosts })
      (pair_arg ~default:(2, 1))
  | "upgrade" -> Result.map (fun d -> Upgrade_switch d) (int_arg ~default:2)
  | "partition" -> Result.map (fun d -> Partition d) (int_arg ~default:3)
  | "flapstorm" ->
    Result.map
      (fun (count, down) -> Flap_storm { count; down = max 1 down })
      (pair_arg ~default:(3, 2))
  | _ ->
    Error
      (kind
     ^ ": unknown action (cut[=N], flap[=EPOCHS], isolate, add, kill=HOST, \
        kill-leader, revive=HOST, storm[=LINKSxHOSTS], upgrade[=EPOCHS], \
        partition[=EPOCHS], flapstorm[=NxEPOCHS])")

let parse s =
  let entries =
    List.filter (fun e -> e <> "") (String.split_on_char ',' (String.trim s))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest -> (
      match String.index_opt e ':' with
      | None -> Error (e ^ ": expected EPOCH:ACTION")
      | Some i -> (
        let epoch = String.sub e 0 i in
        let action = String.sub e (i + 1) (String.length e - i - 1) in
        match int_of_string_opt (String.trim epoch) with
        | None -> Error (epoch ^ ": epoch number expected")
        | Some n when n < 0 -> Error (epoch ^ ": epoch must be >= 0")
        | Some n -> (
          match parse_action (String.trim action) with
          | Ok a -> go ((n, a) :: acc) rest
          | Error err -> Error err)))
  in
  go [] entries

(* Round-trips through [parse]: fuzz counterexamples print their
   schedule in exactly the syntax that replays it. *)
let action_to_string = function
  | Cut_links 1 -> "cut"
  | Cut_links n -> Printf.sprintf "cut=%d" n
  | Flap_link d -> Printf.sprintf "flap=%d" d
  | Isolate_switch -> "isolate"
  | Add_link -> "add"
  | Kill_host h -> "kill=" ^ h
  | Kill_leader -> "kill-leader"
  | Revive_host h -> "revive=" ^ h
  | Storm { links; hosts } -> Printf.sprintf "storm=%dx%d" links hosts
  | Upgrade_switch d -> Printf.sprintf "upgrade=%d" d
  | Partition d -> Printf.sprintf "partition=%d" d
  | Flap_storm { count; down } -> Printf.sprintf "flapstorm=%dx%d" count down

let to_string t =
  String.concat ","
    (List.map (fun (e, a) -> Printf.sprintf "%d:%s" e (action_to_string a)) t)

(* ------------------------------------------------------------------ *)
(* Scenario presets: the adversarial scripts of ROADMAP item 3, scaled
   to however many epochs the run has. *)

let scenario_names = [ "storm"; "rolling"; "partition"; "flaps" ]

let scenario ?(epochs = 12) name =
  let mid = max 2 (epochs / 2) in
  let late = max 3 (epochs - 3) in
  match name with
  | "storm" ->
    (* Two failure storms with a recovery window between them, then a
       new cable so the remap also sees growth. *)
    Ok
      [
        (2, Storm { links = 2; hosts = 1 });
        (mid, Storm { links = 1; hosts = 2 });
        (late, Add_link);
      ]
  | "rolling" ->
    (* A rolling switch upgrade: one switch pulled every other epoch,
       each back two epochs later — the fleet is never whole. *)
    let rec pulls e acc =
      if e >= late then List.rev acc
      else pulls (e + 2) ((e, Upgrade_switch 2) :: acc)
    in
    Ok (pulls 2 [])
  | "partition" ->
    (* Split the fabric, kill the leader while it is split, heal. *)
    Ok [ (2, Partition 3); (3, Kill_leader) ]
  | "flaps" ->
    (* Link flapping at scale: overlapping flap storms, so some links
       come back while others go down. *)
    Ok
      [
        (1, Flap_storm { count = 3; down = 2 });
        (mid, Flap_storm { count = 2; down = 2 });
        (late, Flap_storm { count = 2; down = 1 });
      ]
  | _ ->
    Error
      (Printf.sprintf "%s: unknown scenario (%s)" name
         (String.concat ", " scenario_names))

(* Random schedules for the fuzzer: every action the grammar offers
   except named kills (the generator does not know host names; leader
   kills cover the daemon-death axis). Deterministic in [rng]. *)
let gen ~rng ~epochs =
  let pick_action () =
    match San_util.Prng.int rng 9 with
    | 0 -> Cut_links (1 + San_util.Prng.int rng 2)
    | 1 -> Flap_link (1 + San_util.Prng.int rng 3)
    | 2 -> Isolate_switch
    | 3 -> Add_link
    | 4 -> Kill_leader
    | 5 ->
      Storm
        {
          links = 1 + San_util.Prng.int rng 2;
          hosts = San_util.Prng.int rng 2;
        }
    | 6 -> Upgrade_switch (1 + San_util.Prng.int rng 3)
    | 7 -> Partition (1 + San_util.Prng.int rng 3)
    | _ ->
      Flap_storm
        {
          count = 1 + San_util.Prng.int rng 3;
          down = 1 + San_util.Prng.int rng 2;
        }
  in
  let entries = ref [] in
  for e = 1 to epochs do
    if San_util.Prng.int rng 100 < 30 then
      entries := (e, pick_action ()) :: !entries
  done;
  List.rev !entries

(* ------------------------------------------------------------------ *)

let random_switch_wire ~rng g =
  let ws =
    List.filter
      (fun ((a, _), (b, _)) -> not (Graph.is_host g a || Graph.is_host g b))
      (Graph.wires g)
  in
  match ws with
  | [] -> None
  | _ -> Some (fst (List.nth ws (San_util.Prng.int rng (List.length ws))))

let describe_end g (n, p) =
  let nm = Graph.name g n in
  Printf.sprintf "(%s, port %d)"
    (if nm = "" then "switch " ^ string_of_int n else nm)
    p

let rec apply_action world ~rng ~leader ~epoch = function
  | Cut_links n ->
    let g = World.graph world in
    let before = Graph.num_wires g in
    World.set_graph world (Faults.remove_random_links ~rng g ~count:n);
    let cut = before - Graph.num_wires (World.graph world) in
    [ Printf.sprintf "cut %d switch link%s" cut (if cut = 1 then "" else "s") ]
  | Flap_link down -> (
    let g = World.graph world in
    match random_switch_wire ~rng g with
    | None -> [ "flap: no switch link to cut" ]
    | Some e -> (
      match Faults.flap_link g e with
      | None -> [ "flap: chosen port was vacant" ]
      | Some (degraded, restore) ->
        World.set_graph world degraded;
        let label = Printf.sprintf "restored flapped link at %s" (describe_end g e) in
        World.defer world ~at_epoch:(epoch + down) ~label restore;
        [ Printf.sprintf "flapped link at %s (down %d epochs)" (describe_end g e) down ]))
  | Isolate_switch -> (
    let g = World.graph world in
    let wired = List.filter (fun s -> Graph.degree g s > 0) (Graph.switches g) in
    match wired with
    | [] -> [ "isolate: no wired switch" ]
    | _ ->
      let sw = List.nth wired (San_util.Prng.int rng (List.length wired)) in
      World.set_graph world (Faults.isolate_switch g sw);
      [ Printf.sprintf "isolated switch %d" sw ])
  | Add_link -> (
    match Faults.add_random_link ~rng (World.graph world) with
    | None -> [ "add: no two free switch ports" ]
    | Some g ->
      World.set_graph world g;
      [ "added a switch link" ])
  | Kill_host h ->
    World.kill_host world h;
    [ Printf.sprintf "killed daemon on %s" h ]
  | Kill_leader ->
    World.kill_host world leader;
    [ Printf.sprintf "killed daemon on leader %s" leader ]
  | Revive_host h ->
    World.revive_host world h;
    [ Printf.sprintf "revived daemon on %s" h ]
  | Storm { links; hosts } ->
    (* A correlated failure burst: cables and daemons in one epoch. *)
    let cut_notes =
      if links > 0 then apply_action world ~rng ~leader ~epoch (Cut_links links)
      else []
    in
    let g = World.graph world in
    let victims = ref [] in
    for _ = 1 to hosts do
      match World.responding_hosts world with
      | [] -> ()
      | up ->
        let h =
          Graph.name g (List.nth up (San_util.Prng.int rng (List.length up)))
        in
        World.kill_host world h;
        victims := h :: !victims
    done;
    cut_notes
    @ (match !victims with
      | [] -> []
      | vs ->
        [ Printf.sprintf "storm killed daemon%s on %s"
            (if List.length vs = 1 then "" else "s")
            (String.concat ", " (List.rev vs)) ])
  | Upgrade_switch down -> (
    (* Pull a whole switch for maintenance and re-plug the same wires
       [down] epochs later. Ports re-wired in the meantime make the
       re-plug a per-wire no-op (due_repairs drops it with a note). *)
    let g = World.graph world in
    let wired = List.filter (fun s -> Graph.degree g s > 0) (Graph.switches g) in
    match wired with
    | [] -> [ "upgrade: no wired switch" ]
    | _ ->
      let sw = List.nth wired (San_util.Prng.int rng (List.length wired)) in
      let plugs =
        List.map (fun (p, peer) -> ((sw, p), peer)) (Graph.wired_ports g sw)
      in
      World.set_graph world (Faults.isolate_switch g sw);
      let label = Printf.sprintf "re-plugged upgraded switch %d" sw in
      World.defer world ~at_epoch:(epoch + down) ~label (fun g' ->
          let g' = Graph.copy g' in
          List.iter (fun (a, b) -> Graph.connect g' a b) plugs;
          g');
      [ Printf.sprintf "pulled switch %d for upgrade (%d wires, back in %d \
                        epochs)" sw (List.length plugs) down ])
  | Partition down -> (
    (* Split the switches into two halves by BFS from a random seed and
       cut every switch-to-switch wire crossing the frontier; heal by
       re-plugging the recorded cross wires. *)
    let g = World.graph world in
    let switches = Graph.switches g in
    if List.length switches < 2 then [ "partition: fewer than two switches" ]
    else begin
      let seed = List.nth switches (San_util.Prng.int rng (List.length switches)) in
      let half = (List.length switches + 1) / 2 in
      let side = Hashtbl.create 16 in
      Hashtbl.replace side seed ();
      let queue = Queue.create () in
      Queue.add seed queue;
      while Hashtbl.length side < half && not (Queue.is_empty queue) do
        let s = Queue.pop queue in
        List.iter
          (fun (_, (n, _)) ->
            if
              (not (Graph.is_host g n))
              && (not (Hashtbl.mem side n))
              && Hashtbl.length side < half
            then begin
              Hashtbl.replace side n ();
              Queue.add n queue
            end)
          (Graph.wired_ports g s)
      done;
      let crossing =
        List.filter
          (fun ((a, _), (b, _)) ->
            (not (Graph.is_host g a))
            && (not (Graph.is_host g b))
            && Hashtbl.mem side a <> Hashtbl.mem side b)
          (Graph.wires g)
      in
      match crossing with
      | [] -> [ "partition: no crossing wire to cut" ]
      | _ ->
        let g' = Graph.copy g in
        List.iter (fun (e, _) -> Graph.disconnect g' e) crossing;
        World.set_graph world g';
        let label =
          Printf.sprintf "healed partition (%d wires)" (List.length crossing)
        in
        World.defer world ~at_epoch:(epoch + down) ~label (fun gh ->
            let gh = Graph.copy gh in
            List.iter (fun (a, b) -> Graph.connect gh a b) crossing;
            gh);
        [ Printf.sprintf "partitioned the fabric: cut %d crossing wire%s \
                          (heal in %d epochs)"
            (List.length crossing)
            (if List.length crossing = 1 then "" else "s")
            down ]
    end)
  | Flap_storm { count; down } ->
    (* Many independent flaps at once; each repairs on its own timer. *)
    let flapped = ref 0 in
    let notes = ref [] in
    for _ = 1 to count do
      let g = World.graph world in
      match random_switch_wire ~rng g with
      | None -> ()
      | Some e -> (
        match Faults.flap_link g e with
        | None -> ()
        | Some (degraded, restore) ->
          World.set_graph world degraded;
          incr flapped;
          let label =
            Printf.sprintf "restored storm-flapped link at %s" (describe_end g e)
          in
          World.defer world ~at_epoch:(epoch + down) ~label restore;
          notes := describe_end g e :: !notes)
    done;
    if !flapped = 0 then [ "flapstorm: no switch link to flap" ]
    else
      [ Printf.sprintf "flap storm: %d link%s down %d epochs (%s)" !flapped
          (if !flapped = 1 then "" else "s")
          down
          (String.concat ", " (List.rev !notes)) ]

let apply t world ~rng ~leader ~epoch =
  let repaired = World.due_repairs world ~epoch in
  repaired
  @ List.concat_map (apply_action world ~rng ~leader ~epoch) (actions_at t epoch)
