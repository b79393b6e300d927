type model = Circuit | Cut_through

let model_to_string = function
  | Circuit -> "circuit"
  | Cut_through -> "cut-through"

(* A circuit check's channel set, kept from one check to the next. Hops
   [0, n) of [walk] as of fill [fill] are stamped, pairwise distinct:
   [ids.(j)] is hop [j]'s channel id and [at.(ids.(j)) = j + 1]. A
   stamp [at.(id) = j + 1] counts only while [j < n] and [ids.(j) = id],
   so dropping the stamps of hops [v..n-1] is setting [n] to [v]. *)
type set = {
  mutable at : int array;
  mutable ids : int array;
  mutable n : int;
  mutable walk : Worm.walk;
  mutable fill : int;
}

(* Cut-through's generation stamps indexed by directed channel id:
   [seen.(id) = gen] means the current probe has used channel [id], and
   [last.(id)] is the hop index of that use. A new probe bumps [gen],
   which forgets every earlier probe's marks at once. *)
type stamps = {
  directed : set;
  undirected : set;
  mutable seen : int array;
  mutable last : int array;
  mutable gen : int;
}

(* The walk a set that has checked nothing claims to have stamped. *)
let no_walk = Worm.walk ()

let set () = { at = [||]; ids = [||]; n = 0; walk = no_walk; fill = 0 }

let stamps () =
  { directed = set (); undirected = set (); seen = [||]; last = [||]; gen = 0 }

let fresh s =
  s.gen <- s.gen + 1;
  s.gen

(* Channel ids come from whatever graph the walk crossed, so the arrays
   grow on first sight of a larger id rather than being sized up front. *)
let widen a n =
  let b = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure s id =
  if id >= Array.length s.seen then begin
    s.seen <- widen s.seen (id + 1);
    s.last <- widen s.last (id + 1)
  end

(* A directed channel is identified by the wire end the head exits
   through, [node * radix + port]; an undirected wire by the smaller of
   its two end ids. *)
let directed_id (w : Worm.walk) j = (w.exit_node.(j) * w.radix) + w.exit_port.(j)

let undirected_id (w : Worm.walk) j =
  let a = directed_id w j
  and b = (w.entry_node.(j) * w.radix) + w.entry_port.(j) in
  if a <= b then a else b

(* How many of the set's stamped hops are still the walk's. A fill
   rewrites a suffix of the walk, so the fill numbers of the walk's hops
   never decrease along it: the hops rewritten since the set's check
   are a suffix, found by stepping back over them. *)
let still_stamped c (w : Worm.walk) =
  if c.walk != w then 0
  else begin
    let v = ref (if c.n < w.nhops then c.n else w.nhops) in
    while !v > 0 && w.hop_fill.(!v - 1) > c.fill do
      decr v
    done;
    !v
  end

(* The first of hops [0, upto) that reuses a channel (under [id]'s
   notion of identity) — the place the self-collision happens — or -1.
   Hops still stamped from the set's last check are not looked at
   again. *)
let first_repeat c (w : Worm.walk) ~undirected ~upto =
  c.n <- still_stamped c w;
  c.walk <- w;
  c.fill <- w.fills;
  let found = ref (-1) in
  while !found < 0 && c.n < upto do
    let j = c.n in
    let id = if undirected then undirected_id w j else directed_id w j in
    if id >= Array.length c.at then c.at <- widen c.at (id + 1);
    let h = c.at.(id) - 1 in
    if h >= 0 && h < j && c.ids.(h) = id then found := j
    else begin
      if j >= Array.length c.ids then c.ids <- widen c.ids (j + 1);
      c.at.(id) <- j + 1;
      c.ids.(j) <- id;
      c.n <- j + 1
    end
  done;
  !found

(* Cut-through: the head enters channel c for hop index i at time
   i * hop_latency; the tail clears it [drain] later.  A reuse at hop
   j > i blocks iff the head returns before the tail cleared. *)
let cut_through_blocking_hop s params (w : Worm.walk) =
  let drain = Params.worm_drain_ns params ~route_flits:w.nhops in
  if drain <= 0.0 then -1
  else begin
    let gen = fresh s and hop_ns = Params.hop_latency_ns params in
    let blocked = ref (-1) and j = ref 0 in
    while !blocked < 0 && !j < w.nhops do
      let id = directed_id w !j in
      ensure s id;
      if s.seen.(id) = gen
         && float_of_int (!j - s.last.(id)) *. hop_ns < drain
      then blocked := !j
      else begin
        s.seen.(id) <- gen;
        s.last.(id) <- !j;
        incr j
      end
    done;
    !blocked
  end

let host_blocking_hop s model params (w : Worm.walk) =
  match model with
  | Circuit -> first_repeat s.directed w ~undirected:false ~upto:w.nhops
  | Cut_through -> cut_through_blocking_hop s params w

let switch_blocking_hop s model params ~forward_hops (w : Worm.walk) =
  match model with
  | Circuit -> first_repeat s.undirected w ~undirected:true
      ~upto:(if forward_hops < w.nhops then forward_hops else w.nhops)
  | Cut_through -> cut_through_blocking_hop s params w
