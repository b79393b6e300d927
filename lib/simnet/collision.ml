type model = Circuit | Cut_through

let model_to_string = function
  | Circuit -> "circuit"
  | Cut_through -> "cut-through"

(* Generation stamps indexed by directed channel id: [seen.(id) = gen]
   means the current probe has used channel [id]; cut-through also
   keeps the hop index of that use in [last]. A new probe bumps [gen],
   which forgets every earlier probe's marks at once. *)
type stamps = {
  mutable seen : int array;
  mutable last : int array;
  mutable gen : int;
}

let stamps () = { seen = [||]; last = [||]; gen = 0 }

let fresh s =
  s.gen <- s.gen + 1;
  s.gen

(* Channel ids come from whatever graph the walk crossed, so the arrays
   grow on first sight of a larger id rather than being sized up front. *)
let ensure s id =
  if id >= Array.length s.seen then begin
    let n = max (id + 1) (2 * Array.length s.seen) in
    let seen = Array.make n 0 and last = Array.make n 0 in
    Array.blit s.seen 0 seen 0 (Array.length s.seen);
    Array.blit s.last 0 last 0 (Array.length s.last);
    s.seen <- seen;
    s.last <- last
  end

(* A directed channel is identified by the wire end the head exits
   through, [node * radix + port]; an undirected wire by the smaller of
   its two end ids. *)
let directed_id (w : Worm.walk) j = (w.exit_node.(j) * w.radix) + w.exit_port.(j)

let undirected_id (w : Worm.walk) j =
  let a = directed_id w j
  and b = (w.entry_node.(j) * w.radix) + w.entry_port.(j) in
  if a <= b then a else b

(* The first of hops [0, upto) that reuses a channel (under [id]'s
   notion of identity) — the place the self-collision happens — or -1. *)
let first_repeat s (w : Worm.walk) ~undirected ~upto =
  let gen = fresh s in
  let found = ref (-1) and j = ref 0 in
  while !found < 0 && !j < upto do
    let id = if undirected then undirected_id w !j else directed_id w !j in
    ensure s id;
    if s.seen.(id) = gen then found := !j
    else begin
      s.seen.(id) <- gen;
      incr j
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
  | Circuit -> first_repeat s w ~undirected:false ~upto:w.nhops
  | Cut_through -> cut_through_blocking_hop s params w

let switch_blocking_hop s model params ~forward_hops (w : Worm.walk) =
  match model with
  | Circuit -> first_repeat s w ~undirected:true
      ~upto:(if forward_hops < w.nhops then forward_hops else w.nhops)
  | Cut_through -> cut_through_blocking_hop s params w
