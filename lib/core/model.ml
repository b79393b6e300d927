open San_topology
module Why = San_why.Why
module Int_ring = San_util.Int_ring

exception Inconsistent of string

let fail fmt = Printf.ksprintf (fun s -> raise (Inconsistent s)) fmt

type vid = int
type vkind = Vhost of string | Vswitch

(* Storage. The model is int columns, so creating, merging, re-homing
   or killing a replicate allocates no block for the collector to trace,
   promote or barrier-check: a radix-32 map creates over a thousand
   vertices per live class.

   Every switch frame is the full [-(radix-1), radix-1]: slot [i] is
   index [i + r1], r1 = radix-1. The window narrowing in
   [add_edge]/[do_merge] proves every occupied slot lies in that range
   (a slot outside it empties the feasible-offset window first).

   - Vertex [v] is a record of [vw] ints (fields [f_*] below): its
     union-find parent and shift, flags and kind, offset window, probe
     length, the head of its edges, then two slot bitmasks, one bit per
     slot index, [word_bits] bits to a word: [live] (the slot holds a
     live edge) and [dirty] (an edge joined the slot while it was
     wired: it may hold two live edges). One word each up to radix 32
     (63 slots), more above. The merge loop visits only dirty slots and
     a merge re-homes only live ones.
   - Edge [e] has two ends, [2e] (its first vertex) and [2e+1]. An end
     is two ints: the packed (vertex, slot index) it is attached at and
     the next end in the same list. A killed edge is unlinked from both
     lists at once and its ends set to -1, so every list holds exactly
     the live edges there, newest first.
   - A vertex starts with one list for all its slots, which is all a
     replicate needs: most are absorbed, or never wired past two slots,
     before anything else. On its third live slot the vertex takes a
     segment of per-slot list heads ([nslots] ints) from a shared pool;
     an absorbed or killed vertex hands its segment back for reuse.
   - Records live in fixed chunks of [chunk_len], so the columns grow
     without copying; chunks are large enough to be allocated straight
     into the major heap. The creating probe, a [Route.t] shared with
     the parent's, is the one pointer column. *)

let chunk_bits = 8
let chunk_len = 1 lsl chunk_bits
let chunk_mask = chunk_len - 1

(* Segments per pool chunk. *)
let seg_bits = 6
let seg_mask = (1 lsl seg_bits) - 1

(* Fields of a vertex record. [f_meta] is the flags plus the kind
   shifted left by 2: 0 for a switch, k+1 for the host named
   [names.(k)]. [f_head] is the vertex's single list head when >= -1
   (-1: empty), or [-2 - s] when the vertex holds segment [s]. *)
let f_parent = 0 (* self when canonical *)
let f_shift = 1 (* own slot + shift = parent slot *)
let f_meta = 2
let f_wlo = 3 (* feasible actual entry-port offset window *)
let f_whi = 4
let f_plen = 5 (* length of the creating probe *)
let f_head = 6
let f_masks = 7 (* live words, then dirty words *)

let explored_flag = 1
let dead_flag = 2

(* Bits per mask word: every bit of an OCaml int, the sign bit (62)
   included. A range mask is built by shifting -1, never from
   [1 lsl 63]. *)
let word_bits = 63

type t = {
  m_radix : int;
  r1 : int;
  nslots : int; (* 2 * radix - 1 *)
  sbits : int; (* bits of a slot index in a packed end *)
  mw : int; (* words per mask *)
  vw : int; (* ints per vertex record *)
  mutable verts : int array array;
  mutable probes : San_simnet.Route.t array array;
  mutable nverts : int;
  mutable edges : int array array;
  mutable segs : int array array;
  mutable nsegs : int;
  mutable free_seg : int; (* free segments, linked through slot index 0 *)
  tails : int array; (* per slot index, -1 between segment moves *)
  mutable names : string array;
  host_names : (string, vid) Hashtbl.t;
  mergelist : Int_ring.t;
  mutable n_edges_created : int;
  mutable n_edges_live : int;
  mutable n_verts_live : int;
  m_root_host : vid;
  m_root_switch : vid;
}

let radix t = t.m_radix
let root_host t = t.m_root_host
let root_switch t = t.m_root_switch

(* ---------- columns ---------- *)

(* The spine access is bounds-checked; the offset inside a chunk is
   then in range by construction. *)
let[@inline] vget t v f =
  Array.unsafe_get t.verts.(v lsr chunk_bits) (((v land chunk_mask) * t.vw) + f)

let[@inline] vset t v f x =
  Array.unsafe_set t.verts.(v lsr chunk_bits) (((v land chunk_mask) * t.vw) + f) x

(* End [x]'s packed (vertex, slot index), or -1 once its edge is dead. *)
let[@inline] end_at t x =
  Array.unsafe_get t.edges.(x lsr (chunk_bits + 1))
    (2 * (x land ((2 * chunk_len) - 1)))

let[@inline] set_end t x p =
  Array.unsafe_set t.edges.(x lsr (chunk_bits + 1))
    (2 * (x land ((2 * chunk_len) - 1)))
    p

let[@inline] next t x =
  Array.unsafe_get t.edges.(x lsr (chunk_bits + 1))
    ((2 * (x land ((2 * chunk_len) - 1))) + 1)

let[@inline] set_next t x y =
  Array.unsafe_set t.edges.(x lsr (chunk_bits + 1))
    ((2 * (x land ((2 * chunk_len) - 1))) + 1)
    y

let[@inline] seg_get t s idx =
  Array.unsafe_get t.segs.(s lsr seg_bits) (((s land seg_mask) * t.nslots) + idx)

let[@inline] seg_set t s idx x =
  Array.unsafe_set t.segs.(s lsr seg_bits) (((s land seg_mask) * t.nslots) + idx) x

let[@inline] pack t v idx = (v lsl t.sbits) lor idx
let[@inline] vid_of t p = p lsr t.sbits
let[@inline] idx_of t p = p land ((1 lsl t.sbits) - 1)

(* [spine] with [chunk] at position [i], the spine doubled if full. *)
let add_chunk spine i chunk =
  let spine =
    if i < Array.length spine then spine
    else begin
      let s = Array.make (Int.max 4 (2 * i)) [||] in
      Array.blit spine 0 s 0 i;
      s
    end
  in
  spine.(i) <- chunk;
  spine

(* ---------- union-find ---------- *)

(* Union-find root with full path compression, in two allocation-free
   passes: the first walks to the root summing shifts, the second
   points every vertex on the chain straight at the root with its total
   shift. Afterwards [v] is the root or a direct child of it, so its own
   shift is its frame shift. Absorb chains can be as long as the
   number of merges, so neither pass recurses. *)
let compress t v =
  let r = ref v and total = ref 0 in
  while vget t !r f_parent <> !r do
    total := !total + vget t !r f_shift;
    r := vget t !r f_parent
  done;
  let root = !r in
  let cur = ref v and rem = ref !total in
  while !cur <> root do
    let nx = vget t !cur f_parent and s = vget t !cur f_shift in
    vset t !cur f_parent root;
    vset t !cur f_shift !rem;
    rem := !rem - s;
    cur := nx
  done;
  root

(* Most lookups hit a root or a vertex already pointing at one, and
   return without writing. *)
let[@inline] find t v =
  let p = vget t v f_parent in
  if p = v || vget t p f_parent = p then p else compress t v

let[@inline] check t v = if v < 0 || v >= t.nverts then fail "no vertex %d" v

let canonical t v =
  check t v;
  find t v

let frame_shift t v =
  let root = canonical t v in
  if root = v then 0 else vget t v f_shift

let[@inline] is_dead t v = vget t v f_meta land dead_flag <> 0
let[@inline] host_code t v = vget t v f_meta lsr 2
let[@inline] is_switch t v = host_code t v = 0
let host_name t v = t.names.(host_code t v - 1)

(* ---------- slot bitmasks ---------- *)

let live_off = 0
let dirty_off t = t.mw

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

let[@inline] mask_word t v off w = vget t v (f_masks + off + w)

let[@inline] bit_test t v off idx =
  mask_word t v off (idx / word_bits) land (1 lsl (idx mod word_bits)) <> 0

let[@inline] bit_set t v off idx =
  let f = f_masks + off + (idx / word_bits) in
  vset t v f (vget t v f lor (1 lsl (idx mod word_bits)))

let[@inline] bit_clear t v off idx =
  let f = f_masks + off + (idx / word_bits) in
  vset t v f (vget t v f land lnot (1 lsl (idx mod word_bits)))

let clear_masks t v =
  for w = 0 to (2 * t.mw) - 1 do
    vset t v (f_masks + w) 0
  done

(* Whether at least two slots are live. *)
let two_live_slots t v =
  let n = ref 0 and w = ref 0 in
  while !n < 2 && !w < t.mw do
    let m = mask_word t v live_off !w in
    if m <> 0 then n := !n + if m land (m - 1) = 0 then 1 else 2;
    incr w
  done;
  !n >= 2

(* ---------- edge lists ---------- *)

(* The first end at slot index [idx] from end [x] on, in a list that
   may hold other slots' ends (a vertex without a segment); -1 if none.
   In a segment's list every end is at [idx], so this returns [x]. *)
let rec first_at t x idx =
  if x < 0 || idx_of t (end_at t x) = idx then x else first_at t (next t x) idx

(* The first live edge end at slot index [idx] of canonical [v], and
   the one after end [x]. *)
let[@inline] slot_first t v idx =
  let h = vget t v f_head in
  if h >= -1 then first_at t h idx else seg_get t (-2 - h) idx

let[@inline] slot_next t x idx =
  let y = next t x in
  if y < 0 || idx_of t (end_at t y) = idx then y else first_at t (next t y) idx

let take_segment t =
  if t.free_seg >= 0 then begin
    let s = t.free_seg in
    t.free_seg <- seg_get t s 0;
    seg_set t s 0 (-1);
    s
  end
  else begin
    let s = t.nsegs in
    if s land seg_mask = 0 then
      t.segs <-
        add_chunk t.segs (s lsr seg_bits)
          (Array.make ((seg_mask + 1) * t.nslots) (-1));
    t.nsegs <- s + 1;
    s
  end

(* Hand back [v]'s segment, whose heads the caller has emptied; the
   vertex is left with an empty single list. *)
let release_segment t v =
  let h = vget t v f_head in
  if h < -1 then begin
    let s = -2 - h in
    seg_set t s 0 t.free_seg;
    t.free_seg <- s
  end;
  vset t v f_head (-1)

(* Give [v] a segment: its single list is split into per-slot lists,
   each keeping its order. The list holds at most two slots. *)
let to_segment t v =
  let s = take_segment t in
  let x = ref (vget t v f_head) in
  while !x >= 0 do
    let nx = next t !x in
    let idx = idx_of t (end_at t !x) in
    let tl = t.tails.(idx) in
    if tl < 0 then seg_set t s idx !x else set_next t tl !x;
    t.tails.(idx) <- !x;
    x := nx
  done;
  for w = 0 to t.mw - 1 do
    let live = ref (mask_word t v live_off w) in
    while !live <> 0 do
      let idx = (w * word_bits) + lowest_bit !live in
      live := !live land (!live - 1);
      set_next t t.tails.(idx) (-1);
      t.tails.(idx) <- -1
    done
  done;
  vset t v f_head (-2 - s)

(* Add end [x], already attached at slot [i] of canonical [v], to the
   front of its list. Returns true when the slot already held a live
   edge: it now holds two, a conflict, so the slot is marked dirty and
   the caller queues [v]. *)
let slot_add t v i x =
  let idx = i + t.r1 in
  if idx < 0 || idx >= t.nslots then
    fail "vertex %d: slot %d escapes the radix window" v i;
  let live = bit_test t v live_off idx in
  if (not live) && vget t v f_head >= -1 && two_live_slots t v then
    to_segment t v;
  let h = vget t v f_head in
  if h >= -1 then begin
    set_next t x h;
    vset t v f_head x
  end
  else begin
    let s = -2 - h in
    set_next t x (seg_get t s idx);
    seg_set t s idx x
  end;
  if live then begin
    bit_set t v (dirty_off t) idx;
    true
  end
  else begin
    bit_set t v live_off idx;
    false
  end

(* Take end [x] out of the list of slot index [idx] of [v]. *)
let unlink t v idx x =
  let h = vget t v f_head in
  let first = if h >= -1 then h else seg_get t (-2 - h) idx in
  if first = x then begin
    if h >= -1 then vset t v f_head (next t x) else seg_set t (-2 - h) idx (next t x)
  end
  else begin
    let p = ref first in
    while next t !p <> x do
      p := next t !p
    done;
    set_next t !p (next t x)
  end

let alloc t code rprobe =
  let id = t.nverts in
  if id land chunk_mask = 0 then begin
    let c = id lsr chunk_bits in
    t.verts <- add_chunk t.verts c (Array.make (chunk_len * t.vw) 0);
    t.probes <- add_chunk t.probes c (Array.make chunk_len [])
  end;
  vset t id f_parent id;
  vset t id f_shift 0;
  vset t id f_meta (code lsl 2);
  vset t id f_wlo 0;
  vset t id f_whi (t.m_radix - 1);
  vset t id f_plen (List.length rprobe);
  vset t id f_head (-1);
  t.probes.(id lsr chunk_bits).(id land chunk_mask) <- rprobe;
  t.nverts <- id + 1;
  t.n_verts_live <- t.n_verts_live + 1;
  id

let narrow_window t v i =
  if is_switch t v then begin
    let wlo = Int.max (vget t v f_wlo) (-i)
    and whi = Int.min (vget t v f_whi) (t.m_radix - 1 - i) in
    vset t v f_wlo wlo;
    vset t v f_whi whi;
    if wlo > whi then
      fail "switch vertex %d: slot %d leaves no feasible port offset" v i
  end
  else if i <> 0 then fail "host %s wired at slot %d" (host_name t v) i

(* Attach a fresh edge between two canonical (vertex, slot) ends and
   queue any slot conflict it creates. *)
let add_edge t va ia vb ib =
  if va = vb && ia = ib then fail "edge from slot (%d,%d) to itself" va ia;
  let e = t.n_edges_created in
  if e land chunk_mask = 0 then
    t.edges <-
      add_chunk t.edges (e lsr chunk_bits) (Array.make (4 * chunk_len) (-1));
  t.n_edges_created <- e + 1;
  t.n_edges_live <- t.n_edges_live + 1;
  narrow_window t va ia;
  narrow_window t vb ib;
  (* The slot indices are checked by [slot_add] before they are read
     back; an out-of-range one fails there. *)
  set_end t (2 * e) (pack t va (ia + t.r1));
  set_end t ((2 * e) + 1) (pack t vb (ib + t.r1));
  if slot_add t va ia (2 * e) then Int_ring.add t.mergelist va;
  if slot_add t vb ib ((2 * e) + 1) then Int_ring.add t.mergelist vb

(* Move end [x] of [absorb] to [keep], [shift] slots on. Each end lands
   in a given keep slot once: a self-edge of [absorb] is visited at
   each of its ends, and an edge whose other end is already at the
   target slot would join the slot to itself. *)
let rehome t ~keep ~shift x =
  let tgt = idx_of t (end_at t x) + shift in
  if tgt < 0 || tgt >= t.nslots then
    fail "vertex %d: slot %d escapes the radix window" keep (tgt - t.r1);
  set_end t x (pack t keep tgt);
  if end_at t (x lxor 1) = end_at t x then
    fail "merge wires slot (%d,%d) to itself" keep (tgt - t.r1);
  if slot_add t keep (tgt - t.r1) x then Int_ring.add t.mergelist keep

(* Merge canonical [absorb] into canonical [keep]; [shift] converts
   absorb-frame slots into keep-frame slots. [why], when provenance is
   on, produces the ledger entry justifying the identification. *)
let do_merge ?why t ~keep ~absorb ~shift =
  if keep = absorb then begin
    if shift <> 0 then
      fail "vertex %d deduced equal to itself at shift %d" keep shift
  end
  else begin
    if is_dead t keep || is_dead t absorb then
      fail "merge involving a pruned vertex";
    (match (host_code t keep, host_code t absorb) with
    | 0, 0 -> ()
    | n1, n2 when n1 > 0 && n2 > 0 ->
      if n1 <> n2 then
        fail "hosts %s and %s deduced equal" (host_name t keep)
          (host_name t absorb)
    | _ ->
      fail "host %s deduced equal to a switch"
        (host_name t (if is_switch t keep then absorb else keep)));
    vset t keep f_meta
      (vget t keep f_meta lor (vget t absorb f_meta land explored_flag));
    (* Offsets: o_keep = o_absorb - shift. *)
    let wlo = Int.max (vget t keep f_wlo) (vget t absorb f_wlo - shift)
    and whi = Int.min (vget t keep f_whi) (vget t absorb f_whi - shift) in
    vset t keep f_wlo wlo;
    vset t keep f_whi whi;
    if wlo > whi then
      fail "merging %d into %d leaves no feasible port offset" absorb keep;
    (* Re-home every live edge of [absorb]: from a segment, live slots
       in ascending order, emptying each head; from a single list, in
       its order. Either way each slot's edges keep their order, which
       is all a target slot sees. Then the absorbed vertex gives up its
       segment and bits. *)
    let h = vget t absorb f_head in
    if h >= -1 then begin
      let x = ref h in
      while !x >= 0 do
        let nx = next t !x in
        rehome t ~keep ~shift !x;
        x := nx
      done
    end
    else begin
      let s = -2 - h in
      for w = 0 to t.mw - 1 do
        let live = ref (mask_word t absorb live_off w) in
        while !live <> 0 do
          let idx = (w * word_bits) + lowest_bit !live in
          live := !live land (!live - 1);
          let x = ref (seg_get t s idx) in
          seg_set t s idx (-1);
          while !x >= 0 do
            let nx = next t !x in
            rehome t ~keep ~shift !x;
            x := nx
          done
        done
      done
    end;
    release_segment t absorb;
    clear_masks t absorb;
    vset t absorb f_parent keep;
    vset t absorb f_shift shift;
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
    Int_ring.add t.mergelist keep
  end

(* Kill edge [e]: both ends leave their lists, and a slot left with no
   live edge loses its live bit. Ends are canonical: a duplicate wire
   killed by [dedup_slot] leaves its kept copy in both slots, an edge
   killed by pruning leaves none. *)
let kill_edge t e =
  if end_at t (2 * e) >= 0 then begin
    t.n_edges_live <- t.n_edges_live - 1;
    for x = 2 * e to (2 * e) + 1 do
      let p = end_at t x in
      let v = vid_of t p and idx = idx_of t p in
      unlink t v idx x;
      if slot_first t v idx < 0 then bit_clear t v live_off idx
    done;
    set_end t (2 * e) (-1);
    set_end t ((2 * e) + 1) (-1);
    Why.note_edge_dead ~eid:e
  end

(* Whether an end before [x] in its slot's list (from [y] on) is the
   same wire, i.e. has the same far end. *)
let rec copy_before t y x idx =
  y <> x
  && (end_at t (y lxor 1) = end_at t (x lxor 1) || copy_before t (slot_next t y idx) x idx)

(* Kill every later copy of a wire in slot index [idx] of [c] (the
   same actual cable found twice). Conflicting slots hold a handful of
   edges, so a linear scan beats hashing. *)
let dedup_slot t c idx =
  let x = ref (slot_first t c idx) in
  while !x >= 0 do
    let nx = slot_next t !x idx in
    if copy_before t (slot_first t c idx) !x idx then kill_edge t (!x lsr 1);
    x := nx
  done

(* Resolve dirty slot [idx] of canonical [c]: deduplicate it and, if
   two distinct cables remain, fire the slot-conflict deduction.
   Returns true if a merge fired; the slot then stays dirty (its two
   edges are now one wire, which the next visit deduplicates). *)
let resolve_slot t c idx =
  let first = slot_first t c idx in
  if first < 0 || slot_next t first idx < 0 then false
  else begin
    dedup_slot t c idx;
    let x1 = slot_first t c idx in
    let x2 = slot_next t x1 idx in
    if x2 < 0 then false
    else begin
      let i = idx - t.r1 in
      let f1 = end_at t (x1 lxor 1) and f2 = end_at t (x2 lxor 1) in
      let w1 = vid_of t f1 and j1 = idx_of t f1 - t.r1 in
      let w2 = vid_of t f2 and j2 = idx_of t f2 - t.r1 in
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
                     (fun x -> Why.edge_did ~eid:(x lsr 1))
                     [ x1; x2 ])
                ())
        else None
      in
      do_merge ?why t ~keep:w1 ~absorb:w2 ~shift:(j1 - j2);
      true
    end
  end

(* Process one canonical vertex: resolve its dirty slots, lowest
   first, up to the first that fires a merge. Returns true if one
   fired (the caller re-queues [c], whose later dirty slots stay
   marked). Only a merge adds edges, and it ends the pass, so the mask
   read at the start is the set of slots still to visit; every slot
   holding two live edges is among them, so the first conflict fired
   is the first in slot order. *)
let process_vertex t c =
  let fired = ref false and w = ref 0 in
  while (not !fired) && !w < t.mw do
    let dirty = ref (mask_word t c (dirty_off t) !w) in
    while (not !fired) && !dirty <> 0 do
      let idx = (!w * word_bits) + lowest_bit !dirty in
      dirty := !dirty land (!dirty - 1);
      if resolve_slot t c idx then fired := true
      else bit_clear t c (dirty_off t) idx
    done;
    incr w
  done;
  !fired

let run_merge_loop t =
  while not (Int_ring.is_empty t.mergelist) do
    let c = find t (Int_ring.pop t.mergelist) in
    if not (is_dead t c) then
      if process_vertex t c then Int_ring.add t.mergelist c
  done

let enqueue t v = Int_ring.add t.mergelist (canonical t v)

let create ~mapper_name ~radix =
  if radix < 2 then invalid_arg "Model.create: radix too small";
  let nslots = (2 * radix) - 1 in
  let sbits = ref 1 in
  while 1 lsl !sbits < nslots do
    incr sbits
  done;
  let mw = (nslots + word_bits - 1) / word_bits in
  let t =
    {
      m_radix = radix;
      r1 = radix - 1;
      nslots;
      sbits = !sbits;
      mw;
      vw = f_masks + (2 * mw);
      verts = [||];
      probes = [||];
      nverts = 0;
      edges = [||];
      segs = [||];
      nsegs = 0;
      free_seg = -1;
      tails = Array.make nslots (-1);
      names = [| mapper_name |];
      host_names = Hashtbl.create 64;
      mergelist = Int_ring.create ();
      n_edges_created = 0;
      n_edges_live = 0;
      n_verts_live = 0;
      m_root_host = 0;
      m_root_switch = 1;
    }
  in
  let h = alloc t 1 [] in
  let s = alloc t 0 [] in
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
  let p = canonical t parent in
  let s = frame_shift t parent in
  let child = alloc t 0 rev_probe in
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

(* Gives host [name] its kind code: its index in [names], plus one. *)
let new_name t name =
  let k = Hashtbl.length t.host_names in
  if k = Array.length t.names then begin
    let a = Array.make (2 * k) "" in
    Array.blit t.names 0 a 0 k;
    t.names <- a
  end;
  t.names.(k) <- name;
  k + 1

let add_host_vertex t ~parent ~turn ~rev_probe ~name =
  let p = canonical t parent in
  let s = frame_shift t parent in
  (* The first vertex that carried [name], or -1. *)
  let old =
    match Hashtbl.find t.host_names name with v -> v | exception Not_found -> -1
  in
  let code = if old >= 0 then host_code t old else new_name t name in
  let child = alloc t code rev_probe in
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
  if old < 0 then Hashtbl.replace t.host_names name child
  else begin
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
    end
  end;
  run_merge_loop t;
  child

let kind t v =
  check t v;
  if is_switch t v then Vswitch else Vhost (host_name t v)

let rev_probe t v =
  check t v;
  t.probes.(v lsr chunk_bits).(v land chunk_mask)

let probe_string t v = List.rev (rev_probe t v)

let probe_length t v =
  check t v;
  vget t v f_plen

let is_explored t v = vget t (canonical t v) f_meta land explored_flag <> 0

let set_explored t v =
  let c = canonical t v in
  vset t c f_meta (vget t c f_meta lor explored_flag)

let is_live t v = not (is_dead t (canonical t v))

let slot_occupied t v i =
  let c = canonical t v in
  let idx = i + t.r1 in
  idx >= 0 && idx < t.nslots && bit_test t c live_off idx

let turn_slot t v turn = turn + frame_shift t v

(* The slots turns +-1..+-(radix-1) address from frame [shift] (turn 0,
   slot [shift], excluded), cut to those the offset window admits —
   within the full frame, since the window keeps wlo, whi in
   [0, radix-1] — minus the live ones, tested word by word. *)
let has_open_turn t c ~shift =
  check t c;
  let r1 = t.r1 in
  let lo = Int.max (-vget t c f_whi) (shift - r1) + r1
  and hi = Int.min (r1 - vget t c f_wlo) (shift + r1) + r1
  and self = shift + r1 in
  let found = ref false and w = ref (lo / word_bits) in
  while (not !found) && !w * word_bits <= hi do
    let first = !w * word_bits in
    let a = Int.max lo first - first
    and b = Int.min hi (first + word_bits - 1) - first in
    let m = range_bits a b land lnot (mask_word t c live_off !w) in
    let m =
      if self >= first && self < first + word_bits then
        m land lnot (1 lsl (self - first))
      else m
    in
    found := m <> 0;
    incr w
  done;
  !found

let neighbor_end_via t v ~slot =
  let c = canonical t v in
  let idx = slot + t.r1 in
  if idx < 0 || idx >= t.nslots then None
  else
    let x = slot_first t c idx in
    if x < 0 then None
    else begin
      let far = end_at t (x lxor 1) in
      let w = vid_of t far in
      (* Express the far slot in [w]'s own vid frame so it stays
         meaningful if the class is re-framed by later merges. *)
      Some (w, idx_of t far - t.r1 - frame_shift t w)
    end

let neighbor_via t v ~turn =
  Option.map fst (neighbor_end_via t v ~slot:(turn_slot t v turn))

let offset_window t v =
  let c = canonical t v in
  (vget t c f_wlo, vget t c f_whi)

let window_admits t v ~slot =
  let c = canonical t v in
  vget t c f_wlo + slot <= t.m_radix - 1 && vget t c f_whi + slot >= 0

let live_canonicals t =
  let acc = ref [] in
  for v = t.nverts - 1 downto 0 do
    if vget t v f_parent = v && not (is_dead t v) then acc := v :: !acc
  done;
  !acc

(* Every live edge once, newest first (the order the export and the
   prune ledger follow). *)
let live_edge_list t =
  let acc = ref [] in
  for e = 0 to t.n_edges_created - 1 do
    if end_at t (2 * e) >= 0 then acc := e :: !acc
  done;
  !acc

(* The live edges at [c]'s class, in the order of a table filled slot
   by slot, each slot's ends in list order: the order its edges are
   killed in. *)
let incident_edges t c =
  let c = canonical t c in
  let tbl = Hashtbl.create 8 in
  for idx = 0 to t.nslots - 1 do
    let x = ref (slot_first t c idx) in
    while !x >= 0 do
      Hashtbl.replace tbl (!x lsr 1) ();
      x := slot_next t !x idx
    done
  done;
  Hashtbl.fold (fun e () acc -> e :: acc) tbl []

let degree t v = List.length (incident_edges t v)

(* Delete canonical [v] with its edges; a dead vertex keeps no bits and
   no segment. *)
let kill_vertex t v =
  List.iter (kill_edge t) (incident_edges t v);
  vset t v f_meta (vget t v f_meta lor dead_flag);
  release_segment t v;
  clear_masks t v;
  t.n_verts_live <- t.n_verts_live - 1

let kill_root_switch t =
  let c = canonical t t.m_root_switch in
  if not (is_dead t c) then begin
    kill_vertex t c;
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

let end_vid t e side = vid_of t (end_at t ((2 * e) + side))
let end_slot t e side = idx_of t (end_at t ((2 * e) + side)) - t.r1

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
    let edge_u = Array.map (fun e -> Hashtbl.find index (end_vid t e 0)) earr in
    let edge_v = Array.map (fun e -> Hashtbl.find index (end_vid t e 1)) earr in
    let in_f, sep =
      Dense.separation ~nodes:(Array.length nodes) ~edge_u ~edge_v
        ~is_host:(fun i -> not (is_switch t nodes.(i)))
        ~candidate:(fun id ->
          let a = end_vid t earr.(id) 0 and b = end_vid t earr.(id) 1 in
          a <> b && is_switch t a && is_switch t b)
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
              ~deps:(Option.to_list (Why.edge_did ~eid:earr.(key)))
              ()
          else -1
        in
        List.iter
          (fun v ->
            if not (is_dead t v) then begin
              kill_vertex t v;
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
      let used_slots = ref [] in
      (* Every slot must have settled to at most one edge. *)
      for idx = 0 to t.nslots - 1 do
        let x = slot_first t v idx in
        if x >= 0 then
          if slot_next t x idx >= 0 then
            fail "unresolved replicates at slot (%d,%d): explore deeper" v
              (idx - t.r1)
          else used_slots := (idx - t.r1) :: !used_slots
      done;
      let used_slots = !used_slots in
      let node =
        if not (is_switch t v) then begin
          let name = host_name t v in
          if used_slots <> [ 0 ] && used_slots <> [] then
            fail "host %s uses slots other than 0" name;
          Graph.add_host g ~name
        end
        else begin
          (match used_slots with
          | [] -> ()
          | _ ->
            let lo = List.fold_left Int.min max_int used_slots in
            let hi = List.fold_left Int.max min_int used_slots in
            if hi - lo > t.m_radix - 1 then
              fail "switch vertex %d: slot span %d..%d exceeds radix" v lo hi;
            Hashtbl.replace base_of v lo);
          Graph.add_switch g ~name:(Printf.sprintf "m%d" v) ()
        end
      in
      Hashtbl.replace node_of v node)
    (live_canonicals t);
  let base v = Option.value ~default:0 (Hashtbl.find_opt base_of v) in
  List.iter
    (fun e ->
      let a = end_vid t e 0 and b = end_vid t e 1 in
      Graph.connect g
        (Hashtbl.find node_of a, end_slot t e 0 - base a)
        (Hashtbl.find node_of b, end_slot t e 1 - base b))
    (live_edge_list t);
  g

let export t =
  prune t;
  match to_graph t with g -> Ok g | exception Inconsistent m -> Error m

(* Whether end [x] is in the list of slot index [idx] of [v]. *)
let listed t v idx x =
  let y = ref (slot_first t v idx) in
  while !y >= 0 && !y <> x do
    y := slot_next t !y idx
  done;
  !y = x

let check_invariants t =
  try
    List.iter
      (fun v ->
        if vget t v f_wlo > vget t v f_whi then fail "vertex %d: empty offset window" v;
        (* No live bit past the last slot. *)
        for b = t.nslots to (t.mw * word_bits) - 1 do
          if bit_test t v live_off b then fail "vertex %d: live bit %d past its slots" v b
        done;
        (* A single list holds only live ends of this vertex, at live
           slots: [slot_first] skips nothing else. *)
        let h = vget t v f_head in
        if h >= -1 then begin
          let x = ref h in
          while !x >= 0 do
            let p = end_at t !x in
            if p < 0 || vid_of t p <> v || not (bit_test t v live_off (idx_of t p))
            then fail "vertex %d: end %d in its list is dead or elsewhere" v !x;
            x := next t !x
          done
        end;
        for idx = 0 to t.nslots - 1 do
          let i = idx - t.r1 in
          let n = ref 0 in
          let x = ref (slot_first t v idx) in
          while !x >= 0 do
            incr n;
            if end_at t !x <> pack t v idx then
              fail "edge %d listed at slot (%d,%d) but anchored elsewhere"
                (!x lsr 1) v i;
            x := slot_next t !x idx
          done;
          if (!n > 0) <> bit_test t v live_off idx then
            fail "vertex %d: live bit of slot %d disagrees with its edges" v i;
          if !n >= 2 && not (bit_test t v (dirty_off t) idx) then
            fail "vertex %d: slot %d holds two live edges, not dirty" v i
        done)
      (live_canonicals t);
    (* Every live edge is in the lists of both its ends. *)
    let live_count = ref 0 in
    List.iter
      (fun e ->
        incr live_count;
        for x = 2 * e to (2 * e) + 1 do
          let p = end_at t x in
          let v = vid_of t p in
          if vget t v f_parent <> v then fail "edge %d endpoint %d not canonical" e v;
          if is_dead t v then fail "edge %d endpoint %d is dead" e v;
          if not (listed t v (idx_of t p) x) then
            fail "edge %d missing from slot (%d,%d)" e v (idx_of t p - t.r1)
        done)
      (live_edge_list t);
    if !live_count <> t.n_edges_live then
      fail "live edge counter %d vs actual %d" t.n_edges_live !live_count;
    if List.length (live_canonicals t) <> t.n_verts_live then
      fail "live vertex counter mismatch";
    for v = 0 to t.nverts - 1 do
      if vget t v f_parent <> v || is_dead t v then begin
        for w = 0 to (2 * t.mw) - 1 do
          if vget t v (f_masks + w) <> 0 then
            fail "absorbed or dead vertex %d carries slot bits" v
        done;
        if vget t v f_head <> -1 then
          fail "absorbed or dead vertex %d keeps edges or a segment" v
      end
    done;
    Ok ()
  with Inconsistent m -> Error m
