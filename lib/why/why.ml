(* Process-wide provenance ledger.

   Mirrors the Obs switchboard idiom: one mutable global, one boolean
   gate. Entries live in a growable array so appends and id lookups
   are O(1); the side-record lists are consed newest-first and
   reversed at capture time. *)

module J = San_util.Json

type probe_kind = Host_probe | Switch_probe

type entry =
  | Probe of { kind : probe_kind; turns : int list; resp : string }
  | Axiom of { fact : string Lazy.t }
  | Deduced of {
      rule : string;
      fact : string Lazy.t;
      probes : int list;
      deps : int list;
    }

type merge_rec = { kept : int; absorbed : int; shift : int; m_did : int }
type edge_rec = { eid : int; e_a : int; e_sa : int; e_b : int; e_sb : int; e_did : int }

type ledger = {
  mutable cells : entry array;
  mutable n : int;
  mutable l_merges : merge_rec list; (* newest first *)
  mutable l_edges : edge_rec list;
  mutable l_prunes : (int * int) list;
  dead_eids : (int, unit) Hashtbl.t;
  births : (int, int) Hashtbl.t; (* vid -> did *)
  kinds : (int, [ `Host of string | `Switch ]) Hashtbl.t;
  orients : (string, int) Hashtbl.t;
  (* probe -> did, built lazily at capture time: hashing an int-list
     key on every probe is measurable on the mapper hot path, and only
     snapshots (Blame) ever look probes up by turns *)
  mutable turn_index : (probe_kind * int list, int) Hashtbl.t option;
  edge_index : (int, int) Hashtbl.t; (* eid -> did *)
  mutable l_root_retraction : int option;
  mutable l_root_confirmation : (int * int) option; (* root vid, did *)
  mutable l_last_probe : int option;
}

let fresh () =
  {
    cells = [||];
    n = 0;
    l_merges = [];
    l_edges = [];
    l_prunes = [];
    dead_eids = Hashtbl.create 64;
    births = Hashtbl.create 64;
    kinds = Hashtbl.create 64;
    orients = Hashtbl.create 64;
    turn_index = None;
    edge_index = Hashtbl.create 64;
    l_root_retraction = None;
    l_root_confirmation = None;
    l_last_probe = None;
  }

let enabled = ref false
let set_enabled b = enabled := b
let on () = !enabled

let current = ref (fresh ())
let preserve = ref false
let reset () = if not !preserve then current := fresh ()

(* Sharded runs drive several mapper models in one process and need
   their evidence in one ledger; Model.create's defensive reset would
   wipe the previous shard's probes between runs. *)
let with_preserve f =
  let prev = !preserve in
  preserve := true;
  Fun.protect ~finally:(fun () -> preserve := prev) f

let dummy = Axiom { fact = lazy "" }

let append e =
  let l = !current in
  if l.n >= Array.length l.cells then begin
    let cap = max 64 (2 * Array.length l.cells) in
    let a = Array.make cap dummy in
    Array.blit l.cells 0 a 0 l.n;
    l.cells <- a
  end;
  l.cells.(l.n) <- e;
  l.n <- l.n + 1;
  l.n - 1

let record_probe ~kind ~turns ~resp =
  if not !enabled then -1
  else begin
    let did = append (Probe { kind; turns; resp }) in
    !current.l_last_probe <- Some did;
    did
  end

let record_axiom ~fact =
  if not !enabled then -1 else append (Axiom { fact })

let deduce ~rule ~fact ?(probes = []) ?(deps = []) () =
  if not !enabled then -1
  else begin
    let did = append (Deduced { rule; fact; probes; deps }) in
    (* Forcing the fact for a trace event only pays off when somebody
       is streaming; the passive ring is covered by the ledger tail. *)
    if San_obs.Trace.has_sinks San_obs.Obs.tracer then
      San_obs.Obs.emit
        (San_obs.Trace.Deduction { did; rule; fact = Lazy.force fact });
    did
  end

let last_probe () = if not !enabled then None else !current.l_last_probe

let edge_did ~eid =
  if not !enabled then None else Hashtbl.find_opt !current.edge_index eid

let birth_of ~vid =
  if not !enabled then None else Hashtbl.find_opt !current.births vid

let note_vertex ~vid ~kind ~did =
  if !enabled then begin
    let l = !current in
    if not (Hashtbl.mem l.births vid) then Hashtbl.replace l.births vid did;
    Hashtbl.replace l.kinds vid kind
  end

let note_edge ~eid ~a ~sa ~b ~sb ~did =
  if !enabled then begin
    !current.l_edges <-
      { eid; e_a = a; e_sa = sa; e_b = b; e_sb = sb; e_did = did }
      :: !current.l_edges;
    Hashtbl.replace !current.edge_index eid did
  end

let note_edge_dead ~eid =
  if !enabled then Hashtbl.replace !current.dead_eids eid ()

let note_merge ~kept ~absorbed ~shift ~did =
  if !enabled then
    !current.l_merges <- { kept; absorbed; shift; m_did = did } :: !current.l_merges

let note_prune ~vid ~did =
  if !enabled then !current.l_prunes <- (vid, did) :: !current.l_prunes

let note_root_retraction ~did =
  if !enabled then !current.l_root_retraction <- Some did

let note_root_confirmation ~vid ~did =
  if !enabled then !current.l_root_confirmation <- Some (vid, did)

let note_orientation ~key ~did =
  if !enabled then Hashtbl.replace !current.orients key did

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type snapshot = ledger

let capture () =
  let l = !current in
  {
    cells = Array.sub l.cells 0 l.n;
    n = l.n;
    l_merges = l.l_merges;
    l_edges = l.l_edges;
    l_prunes = l.l_prunes;
    dead_eids = Hashtbl.copy l.dead_eids;
    births = Hashtbl.copy l.births;
    kinds = Hashtbl.copy l.kinds;
    orients = Hashtbl.copy l.orients;
    turn_index = None;
    edge_index = Hashtbl.copy l.edge_index;
    l_root_retraction = l.l_root_retraction;
    l_root_confirmation = l.l_root_confirmation;
    l_last_probe = l.l_last_probe;
  }

let size s = s.n
let entry s did = if did >= 0 && did < s.n then Some s.cells.(did) else None

let entries s = List.init s.n (fun i -> (i, s.cells.(i)))

let merges s = List.rev s.l_merges
let edges s = List.rev s.l_edges
let edge_dead s ~eid = Hashtbl.mem s.dead_eids eid
let pruned s = List.rev s.l_prunes
let vertex_birth s ~vid = Hashtbl.find_opt s.births vid
let vertex_kind s ~vid = Hashtbl.find_opt s.kinds vid
let vertices s = List.sort compare (Hashtbl.fold (fun v _ acc -> v :: acc) s.births [])
let root_confirmation s = s.l_root_confirmation
let orientation s ~key = Hashtbl.find_opt s.orients key
let probe_by_turns s ~kind ~turns =
  let idx =
    match s.turn_index with
    | Some idx -> idx
    | None ->
      let idx = Hashtbl.create (max 256 s.n) in
      for did = 0 to s.n - 1 do
        match s.cells.(did) with
        | Probe { kind; turns; _ } -> Hashtbl.replace idx (kind, turns) did
        | _ -> ()
      done;
      s.turn_index <- Some idx;
      idx
  in
  Hashtbl.find_opt idx (kind, turns)

let tail s ~n =
  let lo = max 0 (s.n - n) in
  List.init (s.n - lo) (fun i -> (lo + i, s.cells.(lo + i)))

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let kind_to_string = function Host_probe -> "host" | Switch_probe -> "switch"

let kind_of_string = function
  | "host" -> Some Host_probe
  | "switch" -> Some Switch_probe
  | _ -> None

let entry_to_json did e =
  let ints l = J.Arr (List.map J.int l) in
  let fields =
    match e with
    | Probe { kind; turns; resp } ->
      [
        ("kind", J.Str "probe");
        ("probe", J.Str (kind_to_string kind));
        ("turns", ints turns);
        ("resp", J.Str resp);
      ]
    | Axiom { fact } ->
      [ ("kind", J.Str "axiom"); ("fact", J.Str (Lazy.force fact)) ]
    | Deduced { rule; fact; probes; deps } ->
      [
        ("kind", J.Str "deduced");
        ("rule", J.Str rule);
        ("fact", J.Str (Lazy.force fact));
        ("probes", ints probes);
        ("deps", ints deps);
      ]
  in
  J.Obj (("did", J.int did) :: fields)

let entry_of_json j =
  let str k = Option.bind (J.member k j) J.to_str in
  let int k = Option.bind (J.member k j) J.to_int in
  let ints k =
    Option.map
      (List.filter_map J.to_int)
      (Option.bind (J.member k j) J.to_arr)
  in
  match (int "did", str "kind") with
  | Some did, Some "probe" -> (
    match (Option.bind (str "probe") kind_of_string, ints "turns", str "resp")
    with
    | Some kind, Some turns, Some resp ->
      Some (did, Probe { kind; turns; resp })
    | _ -> None)
  | Some did, Some "axiom" ->
    Option.map
      (fun fact -> (did, Axiom { fact = Lazy.from_val fact }))
      (str "fact")
  | Some did, Some "deduced" -> (
    match (str "rule", str "fact") with
    | Some rule, Some fact ->
      let probes = Option.value ~default:[] (ints "probes") in
      let deps = Option.value ~default:[] (ints "deps") in
      Some (did, Deduced { rule; fact = Lazy.from_val fact; probes; deps })
    | _ -> None)
  | _ -> None

let pp_turns ppf turns =
  Format.fprintf ppf "[%s]" (String.concat ";" (List.map string_of_int turns))

let pp_entry ppf (did, e) =
  match e with
  | Probe { kind; turns; resp } ->
    Format.fprintf ppf "d%d probe %s %a -> %s" did (kind_to_string kind)
      pp_turns turns resp
  | Axiom { fact } -> Format.fprintf ppf "d%d axiom: %s" did (Lazy.force fact)
  | Deduced { rule; fact; probes; deps } ->
    Format.fprintf ppf "d%d [%s] %s%s" did rule (Lazy.force fact)
      (match probes @ deps with
      | [] -> ""
      | l ->
        Printf.sprintf " <- %s"
          (String.concat "," (List.map (Printf.sprintf "d%d") l)))
