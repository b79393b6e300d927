open San_topology
module Why = San_why.Why

exception Inconsistent of string

let fail fmt = Printf.ksprintf (fun s -> raise (Inconsistent s)) fmt

type vid = int
type vkind = Vhost of string | Vswitch

type edge = {
  eid : int;
  mutable ea : vid; (* always a canonical vertex *)
  mutable ia : int; (* slot in ea's frame *)
  mutable eb : vid;
  mutable ib : int;
  mutable e_dead : bool;
}

(* Slots live in a dense array rather than a hashtable: the window
   narrowing in [add_edge]/[do_merge] proves every occupied slot of a
   switch lies in [-(radix-1), radix-1] (a slot outside that range
   empties the feasible-offset window first), so index [slot + base]
   with base = radix-1 = length/2 always fits. Every vertex starts
   with the one slot 0 (base 0), all a host ever uses and all a fresh
   switch has; a switch grows to the full 2*radix-1 slots when an edge
   first lands elsewhere. Most vertices are absorbed, or never wired
   past their entry cable, before that: the replicate wavefront holds
   tens of thousands of such switches at once on a radix-32 fabric.

   Two bitmasks per canonical vertex summarise its slots, one bit per
   slot index, [word_bits] bits to a word: [live] (the slot holds a
   live edge) and [dirty] (an edge joined the slot while it was wired:
   it may hold two live edges, or dead copies to drop). They sit in
   one int array, the live words then the dirty words: one word each
   up to radix 32 (63 slots), more above.
   The merge loop visits only dirty slots and a merge re-homes only
   live ones; absorbed vertices drop both arrays. *)
type vertex = {
  v_kind : vkind;
  v_rprobe : San_simnet.Route.t;
      (* creating probe, last turn first: shares its parent's tail *)
  v_plen : int; (* length of v_rprobe *)
  mutable parent : vid; (* union-find; self when canonical *)
  mutable pshift : int; (* own slot + pshift = parent slot *)
  mutable slots : edge list array; (* canonical vertices only *)
  mutable masks : int array; (* live words, then dirty words *)
  mutable flags : int; (* explored_flag lor dead_flag *)
  mutable wlo : int; (* feasible actual entry-port offset window *)
  mutable whi : int;
}

let explored_flag = 1
let dead_flag = 2
let is_dead xv = xv.flags land dead_flag <> 0
let s_base xv = Array.length xv.slots / 2

type t = {
  m_radix : int;
  mutable verts : vertex array;
  mutable nverts : int;
  host_names : (string, vid) Hashtbl.t;
  mergelist : vid Queue.t;
  mutable n_edges_created : int;
  mutable n_edges_live : int;
  mutable n_verts_live : int;
  m_root_host : vid;
  m_root_switch : vid;
}

let radix t = t.m_radix
let root_host t = t.m_root_host
let root_switch t = t.m_root_switch

let vertex t v =
  if v < 0 || v >= t.nverts then fail "no vertex %d" v;
  t.verts.(v)

(* Union-find root with full path compression, in two allocation-free
   passes: the first walks to the root summing [pshift], the second
   points every vertex on the chain straight at the root with its total
   shift. Afterwards [v] is the root or a direct child of it, so its own
   [pshift] is its frame shift. Absorb chains can be as long as the
   number of merges, so neither pass recurses. *)
let compress t v =
  let r = ref v and total = ref 0 in
  while t.verts.(!r).parent <> !r do
    let x = t.verts.(!r) in
    total := !total + x.pshift;
    r := x.parent
  done;
  let root = !r in
  let cur = ref v and rem = ref !total in
  while !cur <> root do
    let x = t.verts.(!cur) in
    let next = x.parent and s = x.pshift in
    x.parent <- root;
    x.pshift <- !rem;
    rem := !rem - s;
    cur := next
  done;
  root

(* Most lookups hit a root or a vertex already pointing at one, and
   return without writing. *)
let find t v =
  let p = t.verts.(v).parent in
  if p = v || t.verts.(p).parent = p then p else compress t v

let canonical = find

let frame_shift t v =
  let root = find t v in
  if root = v then 0 else t.verts.(v).pshift

(* ---------- slot bitmasks ---------- *)

(* Bits per mask word: every bit of an OCaml int, the sign bit (62)
   included. A range mask is built by shifting -1, never from
   [1 lsl 63]. *)
let word_bits = 63

let mask_words nslots = (nslots + word_bits - 1) / word_bits

(* Bits a..b of a word, 0 <= a <= b < word_bits. *)
let range_bits a b = (-1) lsl a land ((-1) lsr (word_bits - 1 - b))

(* Index of the lowest set bit of a non-zero word. *)
let lowest_bit x =
  let x = ref x and n = ref 0 in
  if !x land 0xFFFFFFFF = 0 then begin n := 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then !n + 1 else !n

(* Word offsets of the two masks inside a vertex's mask array. *)
let live_off = 0
let dirty_off masks = Array.length masks / 2

let bit_test masks off idx =
  masks.(off + (idx / word_bits)) land (1 lsl (idx mod word_bits)) <> 0

let bit_set masks off idx =
  let w = off + (idx / word_bits) in
  masks.(w) <- masks.(w) lor (1 lsl (idx mod word_bits))

let bit_clear masks off idx =
  let w = off + (idx / word_bits) in
  masks.(w) <- masks.(w) land lnot (1 lsl (idx mod word_bits))

let alloc t kind rprobe =
  let id = t.nverts in
  let vx =
    {
      v_kind = kind;
      v_rprobe = rprobe;
      v_plen = List.length rprobe;
      parent = id;
      pshift = 0;
      slots = [| [] |];
      masks = [| 0; 0 |];
      flags = 0;
      wlo = 0;
      whi = t.m_radix - 1;
    }
  in
  if id >= Array.length t.verts then begin
    let cap = max 16 (2 * Array.length t.verts) in
    let a = Array.make cap vx in
    Array.blit t.verts 0 a 0 id;
    t.verts <- a
  end;
  t.verts.(id) <- vx;
  t.nverts <- id + 1;
  t.n_verts_live <- t.n_verts_live + 1;
  id

let narrow_window t v vx i =
  match vx.v_kind with
  | Vhost name -> if i <> 0 then fail "host %s wired at slot %d" name i
  | Vswitch ->
    vx.wlo <- max vx.wlo (-i);
    vx.whi <- min vx.whi (t.m_radix - 1 - i);
    if vx.wlo > vx.whi then
      fail "switch vertex %d: slot %d leaves no feasible port offset" v i

(* Reads tolerate any slot (out of range = vacant): probe planning asks
   about arbitrary turns in shifted frames. Writes must be in range —
   the window narrowing guarantees it, so a violation is a real
   inconsistency, not a storage concern. *)
let slot_get xv i =
  let idx = i + s_base xv in
  if idx < 0 || idx >= Array.length xv.slots then [] else xv.slots.(idx)

let live_slot_edges l = List.filter (fun e -> not e.e_dead) l

(* Allocation-free slot tests: any live edge, any dead one, and at
   least two live (a conflict the merge loop must resolve). *)
let rec has_live = function
  | [] -> false
  | e :: rest -> (not e.e_dead) || has_live rest

let rec has_dead = function
  | [] -> false
  | e :: rest -> e.e_dead || has_dead rest

let rec two_live = function
  | [] -> false
  | e :: rest -> if e.e_dead then two_live rest else has_live rest

(* Widen a switch's single slot 0 to the full frame. *)
let grow t xv =
  let nslots = (2 * t.m_radix) - 1 and base = t.m_radix - 1 in
  let slots = Array.make nslots [] in
  slots.(base) <- xv.slots.(0);
  let masks = Array.make (2 * mask_words nslots) 0 in
  if bit_test xv.masks live_off 0 then bit_set masks live_off base;
  if bit_test xv.masks (dirty_off xv.masks) 0 then
    bit_set masks (dirty_off masks) base;
  xv.slots <- slots;
  xv.masks <- masks

(* Add a live edge to slot [i] of canonical [v]. Returns true when the
   slot already held a live edge: it now holds two, a conflict, so the
   slot is marked dirty and the caller queues [v]. *)
let slot_add t v xv i e =
  (match xv.v_kind with
  | Vswitch -> if i <> 0 && Array.length xv.slots = 1 then grow t xv
  | Vhost _ -> ());
  let idx = i + s_base xv in
  if idx < 0 || idx >= Array.length xv.slots then
    fail "vertex %d: slot %d escapes the radix window" v i;
  xv.slots.(idx) <- e :: xv.slots.(idx);
  if bit_test xv.masks live_off idx then begin
    bit_set xv.masks (dirty_off xv.masks) idx;
    true
  end
  else begin
    bit_set xv.masks live_off idx;
    false
  end

(* Attach a fresh edge between two canonical (vertex, slot) ends and
   queue any slot conflict it creates. *)
let add_edge t va ia vb ib =
  let xa = vertex t va and xb = vertex t vb in
  if va = vb && ia = ib then fail "edge from slot (%d,%d) to itself" va ia;
  let e =
    { eid = t.n_edges_created; ea = va; ia; eb = vb; ib; e_dead = false }
  in
  t.n_edges_created <- t.n_edges_created + 1;
  t.n_edges_live <- t.n_edges_live + 1;
  narrow_window t va xa ia;
  narrow_window t vb xb ib;
  if slot_add t va xa ia e then Queue.add va t.mergelist;
  if slot_add t vb xb ib e then Queue.add vb t.mergelist

(* Move the live edges of [absorb]'s slot [i] to [keep]'s slot
   [i + shift]. A top-level function rather than a closure: a merge
   visits every live slot, and must not allocate per slot. Each edge
   lands in a given keep slot once: a self-edge of [absorb] is visited
   from both of its slots but moves a different end each time, and an
   edge already at the target slot would join the slot to itself. *)
let rec rehome t ~keep ~absorb xk i ~shift = function
  | [] -> ()
  | e :: rest ->
    if not e.e_dead then begin
      let tgt = i + shift in
      if e.ea = absorb && e.ia = i then begin
        e.ea <- keep;
        e.ia <- tgt
      end;
      if e.eb = absorb && e.ib = i then begin
        e.eb <- keep;
        e.ib <- tgt
      end;
      if e.ea = e.eb && e.ia = e.ib then
        fail "merge wires slot (%d,%d) to itself" e.ea e.ia;
      if slot_add t keep xk tgt e then Queue.add keep t.mergelist
    end;
    rehome t ~keep ~absorb xk i ~shift rest

(* Merge canonical [absorb] into canonical [keep]; [shift] converts
   absorb-frame slots into keep-frame slots. [why], when provenance is
   on, produces the ledger entry justifying the identification. *)
let do_merge ?why t ~keep ~absorb ~shift =
  if keep = absorb then begin
    if shift <> 0 then
      fail "vertex %d deduced equal to itself at shift %d" keep shift
  end
  else begin
    let xk = vertex t keep and xa = vertex t absorb in
    if is_dead xk || is_dead xa then fail "merge involving a pruned vertex";
    (match (xk.v_kind, xa.v_kind) with
    | Vswitch, Vswitch -> ()
    | Vhost n1, Vhost n2 ->
      if n1 <> n2 then fail "hosts %s and %s deduced equal" n1 n2
    | Vhost n, Vswitch | Vswitch, Vhost n ->
      fail "host %s deduced equal to a switch" n);
    xk.flags <- xk.flags lor (xa.flags land explored_flag);
    (* Offsets: o_keep = o_absorb - shift. *)
    xk.wlo <- max xk.wlo (xa.wlo - shift);
    xk.whi <- min xk.whi (xa.whi - shift);
    if xk.wlo > xk.whi then
      fail "merging %d into %d leaves no feasible port offset" absorb keep;
    (* Re-home every edge of [absorb], live slots in ascending order;
       the absorbed vertex's slot array and masks are dropped outright
       so long-dead replicates cost no memory on data-center-scale runs
       (only canonical vertices carry slots). *)
    let a_slots = xa.slots and a_masks = xa.masks in
    let a_base = Array.length a_slots / 2 in
    xa.slots <- [||];
    xa.masks <- [||];
    for w = 0 to (Array.length a_masks / 2) - 1 do
      let live = ref a_masks.(w) in
      while !live <> 0 do
        let idx = (w * word_bits) + lowest_bit !live in
        live := !live land (!live - 1);
        rehome t ~keep ~absorb xk (idx - a_base) ~shift a_slots.(idx)
      done
    done;
    xa.parent <- keep;
    xa.pshift <- shift;
    t.n_verts_live <- t.n_verts_live - 1;
    if Why.on () then begin
      let did =
        match why with
        | Some f -> f ()
        | None ->
          Why.deduce ~rule:"merge"
            ~fact:
              (lazy (Printf.sprintf "v%d = v%d (shift %d)" keep absorb shift))
            ()
      in
      Why.note_merge ~kept:keep ~absorbed:absorb ~shift ~did
    end;
    if San_obs.Obs.on () then begin
      San_obs.Obs.count "mapper.merges";
      San_obs.Obs.emit
        (San_obs.Trace.Replicate_merged { kept = keep; absorbed = absorb })
    end;
    Queue.add keep t.mergelist
  end

(* Clear the live bit of an end whose slot has no live edge left. Ends
   are canonical: a duplicate wire killed by [dedup_slot] leaves its
   kept copy in both slots, an edge killed by pruning leaves none. *)
let end_killed t v i =
  let xv = t.verts.(v) in
  if not (has_live (slot_get xv i)) then
    bit_clear xv.masks live_off (i + s_base xv)

let kill_edge t e =
  if not e.e_dead then begin
    e.e_dead <- true;
    t.n_edges_live <- t.n_edges_live - 1;
    end_killed t e.ea e.ia;
    end_killed t e.eb e.ib;
    Why.note_edge_dead ~eid:e.eid
  end

(* Two edges are one wire when they join the same pair of slots. *)
let same_wire e f =
  (e.ea = f.ea && e.ia = f.ia && e.eb = f.eb && e.ib = f.ib)
  || (e.ea = f.eb && e.ia = f.ib && e.eb = f.ea && e.ib = f.ia)

let rec has_wire e = function
  | [] -> false
  | f :: rest -> same_wire e f || has_wire e rest

(* The live edges of a slot in slot order, each wire once: a later copy
   of a wire (the same actual cable found twice) is killed. Conflicting
   slots hold a handful of edges, so a linear scan beats hashing. *)
let rec dedup_slot t kept = function
  | [] -> List.rev kept
  | e :: rest ->
    if e.e_dead then dedup_slot t kept rest
    else if has_wire e kept then begin
      kill_edge t e;
      dedup_slot t kept rest
    end
    else dedup_slot t (e :: kept) rest

(* Resolve dirty slot [idx] of canonical [c]: deduplicate it and, if
   two distinct cables remain, fire the slot-conflict deduction.
   Returns true if a merge fired; the slot then stays dirty (its two
   edges are now one wire, which the next visit deduplicates). A slot
   with at most one live edge can neither conflict nor hold a
   duplicate: it only sheds its dead edges, which keeps later scans of
   it short — without that, the edges killed on a much-replicated wire
   pile up in the slot at its other end. *)
let resolve_slot t c xc idx =
  let i = idx - s_base xc in
  let l = xc.slots.(idx) in
  if not (two_live l) then begin
    if has_dead l then xc.slots.(idx) <- live_slot_edges l;
    false
  end
  else begin
    let deduped = dedup_slot t [] l in
    xc.slots.(idx) <- deduped;
    match deduped with
    | e1 :: e2 :: _ ->
      let other e =
        if e.ea = c && e.ia = i then (e.eb, e.ib)
        else if e.eb = c && e.ib = i then (e.ea, e.ia)
        else fail "edge %d not anchored at slot (%d,%d)" e.eid c i
      in
      let w1, j1 = other e1 and w2, j2 = other e2 in
      (* An actual port has a single cable: the two far ends are
         replicates, aligned so that slot j2 becomes slot j1. *)
      let why =
        if Why.on () then
          Some
            (fun () ->
              Why.deduce ~rule:"d1_slot_conflict"
                ~fact:
                  (lazy (Printf.sprintf
                     "v%d = v%d (shift %d): slot (%d,%d) carries both cables"
                     w1 w2 (j1 - j2) c i))
                ~deps:
                  (List.filter_map
                     (fun e -> Why.edge_did ~eid:e.eid)
                     [ e1; e2 ])
                ())
        else None
      in
      do_merge ?why t ~keep:w1 ~absorb:w2 ~shift:(j1 - j2);
      true
    | [ _ ] | [] -> false
  end

(* Process one canonical vertex: resolve its dirty slots, lowest
   first, up to the first that fires a merge. Returns true if one
   fired (the caller re-queues [c], whose later dirty slots stay
   marked). Only a merge adds edges, and it ends the pass, so the mask
   read at the start is the set of slots still to visit; every slot
   holding two live edges is among them, so the first conflict fired
   is the first in slot order. *)
let process_vertex t c =
  let xc = vertex t c in
  let masks = xc.masks in
  let nw = Array.length masks / 2 in
  let fired = ref false and w = ref 0 in
  while (not !fired) && !w < nw do
    let dirty = ref masks.(nw + !w) in
    while (not !fired) && !dirty <> 0 do
      let idx = (!w * word_bits) + lowest_bit !dirty in
      dirty := !dirty land (!dirty - 1);
      if resolve_slot t c xc idx then fired := true
      else bit_clear masks nw idx
    done;
    incr w
  done;
  !fired

let run_merge_loop t =
  while not (Queue.is_empty t.mergelist) do
    let v = Queue.take t.mergelist in
    let c = find t v in
    let xc = vertex t c in
    if not (is_dead xc) then
      if process_vertex t c then Queue.add c t.mergelist
  done

let enqueue t v = Queue.add (find t v) t.mergelist

let create ~mapper_name ~radix =
  if radix < 2 then invalid_arg "Model.create: radix too small";
  let t =
    {
      m_radix = radix;
      verts = [||];
      nverts = 0;
      host_names = Hashtbl.create 64;
      mergelist = Queue.create ();
      n_edges_created = 0;
      n_edges_live = 0;
      n_verts_live = 0;
      m_root_host = 0;
      m_root_switch = 1;
    }
  in
  let h = alloc t (Vhost mapper_name) [] in
  let s = alloc t Vswitch [] in
  assert (h = 0 && s = 1);
  Hashtbl.replace t.host_names mapper_name h;
  (* The mapper's single cable necessarily leads to a switch; the
     probe enters that switch at its frame's slot 0. *)
  add_edge t s 0 h 0;
  if Why.on () then begin
    Why.reset ();
    let dh =
      Why.record_axiom
        ~fact:
          (lazy (Printf.sprintf "v%d is the mapper host %s itself" h mapper_name))
    in
    Why.note_vertex ~vid:h ~kind:(`Host mapper_name) ~did:dh;
    let ds =
      Why.record_axiom
        ~fact:
          (lazy (Printf.sprintf
             "v%d: a switch assumed behind the mapper's single cable" s))
    in
    Why.note_vertex ~vid:s ~kind:`Switch ~did:ds;
    let de =
      Why.record_axiom
        ~fact:
          (lazy (Printf.sprintf "cable %s.0 -- v%d slot 0 (the mapper's own cable)"
             mapper_name s))
    in
    Why.note_edge ~eid:0 ~a:s ~sa:0 ~b:h ~sb:0 ~did:de
  end;
  t

let add_switch_vertex t ~parent ~turn ~rev_probe =
  let p = find t parent in
  let s = frame_shift t parent in
  let child = alloc t Vswitch rev_probe in
  add_edge t p (turn + s) child 0;
  if Why.on () then begin
    let did =
      Why.deduce ~rule:"switch_reached"
        ~fact:
          (lazy (Printf.sprintf "a switch (v%d) answers behind turn %d of v%d" child
             turn p))
        ~probes:(Option.to_list (Why.last_probe ()))
        ()
    in
    Why.note_vertex ~vid:child ~kind:`Switch ~did;
    Why.note_edge
      ~eid:(t.n_edges_created - 1)
      ~a:p ~sa:(turn + s) ~b:child ~sb:0 ~did
  end;
  run_merge_loop t;
  child

let add_host_vertex t ~parent ~turn ~rev_probe ~name =
  let p = find t parent in
  let s = frame_shift t parent in
  let child = alloc t (Vhost name) rev_probe in
  add_edge t p (turn + s) child 0;
  if Why.on () then begin
    let did =
      Why.deduce ~rule:"host_reached"
        ~fact:
          (lazy (Printf.sprintf "host %s (v%d) answers behind turn %d of v%d" name
             child turn p))
        ~probes:(Option.to_list (Why.last_probe ()))
        ()
    in
    Why.note_vertex ~vid:child ~kind:(`Host name) ~did;
    Why.note_edge
      ~eid:(t.n_edges_created - 1)
      ~a:p ~sa:(turn + s) ~b:child ~sb:0 ~did
  end;
  (match Hashtbl.find_opt t.host_names name with
  | None -> Hashtbl.replace t.host_names name child
  | Some old ->
    let oc = find t old in
    let cc = find t child in
    if oc <> cc then begin
      let why =
        if Why.on () then
          Some
            (fun () ->
              Why.deduce ~rule:"d2_same_host"
                ~fact:
                  (lazy (Printf.sprintf "v%d = v%d: both are host %s" oc cc name))
                ~deps:
                  (List.filter_map (fun v -> Why.birth_of ~vid:v) [ old; child ])
                ())
        else None
      in
      do_merge ?why t ~keep:oc ~absorb:cc ~shift:0
    end);
  run_merge_loop t;
  child

let kind t v = (vertex t v).v_kind
let probe_string t v = List.rev (vertex t v).v_rprobe
let rev_probe t v = (vertex t v).v_rprobe
let probe_length t v = (vertex t v).v_plen
let is_explored t v = (vertex t (canonical t v)).flags land explored_flag <> 0

let set_explored t v =
  let xc = vertex t (canonical t v) in
  xc.flags <- xc.flags lor explored_flag

let is_live t v = not (is_dead (vertex t (canonical t v)))

let slot_occupied t v i =
  let xc = vertex t (find t v) in
  let idx = i + s_base xc in
  idx >= 0 && idx < Array.length xc.slots && bit_test xc.masks live_off idx

let turn_slot t v turn = turn + frame_shift t v

(* The slots turns +-1..+-(radix-1) address from frame [shift] (turn 0,
   slot [shift], excluded), cut to those the offset window admits —
   within the full frame, since the window keeps wlo, whi in
   [0, radix-1] — minus the live ones. A class still at its single
   slot 0 is counted directly; a full frame is tested word by word. *)
let has_open_turn t c ~shift =
  let xc = vertex t c in
  let r1 = t.m_radix - 1 in
  let lo = max (-xc.whi) (shift - r1) and hi = min (r1 - xc.wlo) (shift + r1) in
  if Array.length xc.slots = 1 then
    let taken_self = if lo <= shift && shift <= hi then 1 else 0
    and taken_0 =
      if shift <> 0 && lo <= 0 && 0 <= hi && bit_test xc.masks live_off 0
      then 1
      else 0
    in
    hi - lo + 1 - taken_self - taken_0 > 0
  else begin
    let lo = lo + r1 and hi = hi + r1 and self = shift + r1 in
    let found = ref false and w = ref (lo / word_bits) in
    while (not !found) && !w * word_bits <= hi do
      let first = !w * word_bits in
      let a = max lo first - first
      and b = min hi (first + word_bits - 1) - first in
      let m = range_bits a b land lnot xc.masks.(live_off + !w) in
      let m =
        if self >= first && self < first + word_bits then
          m land lnot (1 lsl (self - first))
        else m
      in
      found := m <> 0;
      incr w
    done;
    !found
  end

let rec first_live = function
  | [] -> None
  | e :: rest -> if e.e_dead then first_live rest else Some e

let neighbor_end_via t v ~slot =
  let c = find t v in
  match first_live (slot_get (vertex t c) slot) with
  | None -> None
  | Some e ->
    let far, fslot =
      if e.ea = c && e.ia = slot then (e.eb, e.ib) else (e.ea, e.ia)
    in
    (* Express the far slot in [far]'s own vid frame so it stays
       meaningful if the class is re-framed by later merges. *)
    Some (far, fslot - frame_shift t far)

let neighbor_via t v ~turn =
  Option.map fst (neighbor_end_via t v ~slot:(turn_slot t v turn))

let offset_window t v =
  let xc = vertex t (find t v) in
  (xc.wlo, xc.whi)

let window_admits t v ~slot =
  let xc = vertex t (find t v) in
  xc.wlo + slot <= t.m_radix - 1 && xc.whi + slot >= 0

let live_canonicals t =
  let acc = ref [] in
  for v = t.nverts - 1 downto 0 do
    let xv = t.verts.(v) in
    if xv.parent = v && not (is_dead xv) then acc := v :: !acc
  done;
  !acc

(* Every live edge once, newest first (the order the export and the
   prune ledger follow), each taken at its [ea] end. The model keeps no
   list of all edges: the replicate edges that merging kills are
   referenced only by stale slot lists, so most of them are freed
   while the map is still being explored. *)
let live_edge_list t =
  let acc = ref [] in
  for v = 0 to t.nverts - 1 do
    let xv = t.verts.(v) in
    if xv.parent = v && not (is_dead xv) then
      let base = s_base xv in
      Array.iteri
        (fun idx l ->
          let i = idx - base in
          List.iter
            (fun e ->
              if (not e.e_dead) && e.ea = v && e.ia = i then acc := e :: !acc)
            l)
        xv.slots
  done;
  List.sort (fun e f -> Int.compare f.eid e.eid) !acc

let incident_edges t c =
  let xc = vertex t (canonical t c) in
  let tbl = Hashtbl.create 8 in
  Array.iter
    (List.iter (fun e -> if not e.e_dead then Hashtbl.replace tbl e.eid e))
    xc.slots;
  Hashtbl.fold (fun _ e acc -> e :: acc) tbl []

let degree t v = List.length (incident_edges t v)

(* Delete canonical [v] with its edges; a dead vertex keeps empty
   masks. *)
let kill_vertex t v xv =
  List.iter (kill_edge t) (incident_edges t v);
  xv.flags <- xv.flags lor dead_flag;
  Array.fill xv.masks 0 (Array.length xv.masks) 0;
  t.n_verts_live <- t.n_verts_live - 1

let kill_root_switch t =
  let c = canonical t t.m_root_switch in
  let xc = vertex t c in
  if not (is_dead xc) then begin
    kill_vertex t c xc;
    if Why.on () then begin
      let did =
        Why.deduce ~rule:"root_retraction"
          ~fact:
            (lazy (Printf.sprintf
               "assumed root switch v%d retracted: the turn-0 self-probe \
                found no switch on the mapper's cable" c))
          ~probes:(Option.to_list (Why.last_probe ()))
          ()
      in
      Why.note_prune ~vid:c ~did;
      Why.note_root_retraction ~did
    end
  end

(* PRUNE removes Theorem 1's F: every region that one switch-switch
   cable separates from all hosts.  The pseudo-code's degree<=1
   formulation only removes hostless *trees*; separation also covers
   hostless cycles and self-cabled pendants behind a bridge, and — the
   other direction — keeps a pendant switch whose single cable leads
   to a host (a mapper isolated with its switch after faults).

   The model is a multigraph on canonical vids (edge endpoints are kept
   canonical by [do_merge]), so Dense.separation applies directly: one
   O(V+E) pass instead of a BFS per cable, which is what lets PRUNE run
   on 10k-host fabrics. [whole_components] captures the hostless-cycle
   case: there any switch-switch cable, bridge or not, separates the
   entire component from all hosts. The pass runs over the live classes
   only, numbered in vid order: absorbed replicates carry no edges and
   on large fabrics outnumber the live classes by orders of magnitude. *)
let prune t =
  let live = live_edge_list t in
  if live <> [] then begin
    let nodes = Array.of_list (live_canonicals t) in
    let index = Hashtbl.create (Array.length nodes) in
    Array.iteri (fun i v -> Hashtbl.replace index v i) nodes;
    let earr = Array.of_list live in
    let edge_u = Array.map (fun e -> Hashtbl.find index e.ea) earr in
    let edge_v = Array.map (fun e -> Hashtbl.find index e.eb) earr in
    let is_switch v =
      match (vertex t v).v_kind with Vswitch -> true | Vhost _ -> false
    in
    let in_f, sep =
      Dense.separation ~nodes:(Array.length nodes) ~edge_u ~edge_v
        ~is_host:(fun i -> not (is_switch nodes.(i)))
        ~candidate:(fun id ->
          let e = earr.(id) in
          e.ea <> e.eb && is_switch e.ea && is_switch e.eb)
        ~whole_components:true
    in
    (* One ledger entry per condemned region, citing the separating
       cable, as the per-edge formulation produced. *)
    let groups = Hashtbl.create 8 in
    for i = Array.length nodes - 1 downto 0 do
      if in_f.(i) then
        Hashtbl.replace groups sep.(i)
          (nodes.(i) :: Option.value ~default:[] (Hashtbl.find_opt groups sep.(i)))
    done;
    let keys = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) groups []) in
    List.iter
      (fun key ->
        let vids = Hashtbl.find groups key in
        let did =
          if Why.on () then
            Why.deduce ~rule:"prune"
              ~fact:
                (lazy (Printf.sprintf
                   "region {%s} hangs off one switch-switch cable with \
                    no host inside: separated from N-F (Theorem 1)"
                   (String.concat "," (List.map (Printf.sprintf "v%d") vids))))
              ~deps:(Option.to_list (Why.edge_did ~eid:earr.(key).eid))
              ()
          else -1
        in
        List.iter
          (fun v ->
            let xv = vertex t v in
            if not (is_dead xv) then begin
              kill_vertex t v xv;
              Why.note_prune ~vid:v ~did
            end)
          vids)
      keys
  end

let known_hosts t = Hashtbl.length t.host_names
let created_vertices t = t.nverts
let live_vertices t = t.n_verts_live
let created_edges t = t.n_edges_created
let live_edges t = t.n_edges_live

let to_graph t =
  let g = Graph.create ~radix:t.m_radix () in
  let node_of = Hashtbl.create 64 in
  let base_of = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let xv = vertex t v in
      let base = s_base xv in
      let used_slots = ref [] in
      (* Every slot must have settled to at most one edge. *)
      Array.iteri
        (fun idx l ->
          match live_slot_edges l with
          | [] -> ()
          | [ _ ] -> used_slots := (idx - base) :: !used_slots
          | _ ->
            fail "unresolved replicates at slot (%d,%d): explore deeper" v
              (idx - base))
        xv.slots;
      let used_slots = !used_slots in
      let node =
        match xv.v_kind with
        | Vhost name ->
          if used_slots <> [ 0 ] && used_slots <> [] then
            fail "host %s uses slots other than 0" name;
          Graph.add_host g ~name
        | Vswitch ->
          (match used_slots with
          | [] -> ()
          | _ ->
            let lo = List.fold_left min max_int used_slots in
            let hi = List.fold_left max min_int used_slots in
            if hi - lo > t.m_radix - 1 then
              fail "switch vertex %d: slot span %d..%d exceeds radix" v lo hi;
            Hashtbl.replace base_of v lo);
          Graph.add_switch g ~name:(Printf.sprintf "m%d" v) ()
      in
      Hashtbl.replace node_of v node)
    (live_canonicals t);
  let base v = Option.value ~default:0 (Hashtbl.find_opt base_of v) in
  List.iter
    (fun e ->
      let na = Hashtbl.find node_of e.ea and nb = Hashtbl.find node_of e.eb in
      Graph.connect g (na, e.ia - base e.ea) (nb, e.ib - base e.eb))
    (live_edge_list t);
  g

let export t =
  prune t;
  match to_graph t with g -> Ok g | exception Inconsistent m -> Error m

let check_invariants t =
  try
    List.iter
      (fun v ->
        let xv = vertex t v in
        if xv.wlo > xv.whi then fail "vertex %d: empty offset window" v;
        let nslots = Array.length xv.slots in
        if Array.length xv.masks <> 2 * mask_words nslots then
          fail "vertex %d: %d mask words for %d slots" v
            (Array.length xv.masks) nslots;
        (* No live bit past the last slot. *)
        Array.iteri
          (fun w word ->
            if w < Array.length xv.masks / 2 then
              for b = 0 to word_bits - 1 do
                if word land (1 lsl b) <> 0 && (w * word_bits) + b >= nslots
                then fail "vertex %d: live bit %d past its slots" v b
              done)
          xv.masks;
        Array.iteri
          (fun idx l ->
            let i = idx - s_base xv in
            if has_live l <> bit_test xv.masks live_off idx then
              fail "vertex %d: live bit of slot %d disagrees with its edges" v i;
            if two_live l && not (bit_test xv.masks (dirty_off xv.masks) idx)
            then fail "vertex %d: slot %d holds two live edges, not dirty" v i;
            List.iter
              (fun e ->
                if not e.e_dead then begin
                  let anchored =
                    (e.ea = v && e.ia = i) || (e.eb = v && e.ib = i)
                  in
                  if not anchored then
                    fail "edge %d listed at slot (%d,%d) but anchored elsewhere"
                      e.eid v i
                end)
              l)
          xv.slots)
      (live_canonicals t);
    (* Edges are found through their [ea] slot, so a live edge missing
       from it shows up as a counter mismatch. *)
    let live_count = ref 0 in
    List.iter
      (fun e ->
        incr live_count;
        let check_end (v, i) =
          let xv = vertex t v in
          if xv.parent <> v then fail "edge %d endpoint %d not canonical" e.eid v;
          if is_dead xv then fail "edge %d endpoint %d is dead" e.eid v;
          if not (List.memq e (slot_get xv i)) then
            fail "edge %d missing from slot (%d,%d)" e.eid v i
        in
        check_end (e.ea, e.ia);
        check_end (e.eb, e.ib))
      (live_edge_list t);
    if !live_count <> t.n_edges_live then
      fail "live edge counter %d vs actual %d" t.n_edges_live !live_count;
    if List.length (live_canonicals t) <> t.n_verts_live then
      fail "live vertex counter mismatch";
    for v = 0 to t.nverts - 1 do
      let xv = t.verts.(v) in
      if (xv.parent <> v || is_dead xv) && Array.exists (( <> ) 0) xv.masks
      then fail "absorbed or dead vertex %d carries slot bits" v
    done;
    Ok ()
  with Inconsistent m -> Error m
