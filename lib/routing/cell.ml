module Pool = struct
  type t = {
    mutable turn : int array;
    mutable next : int array;
    mutable depth : int array;
    mutable n : int;
    (* The cells by (turn, next), open-addressed: a slot holds a cell
       plus one, 0 when empty; a power of two in size, at most half
       full. Two ints a cell, where a hash table of tuples takes
       about eight. *)
    mutable slots : int array;
    mutable entries : int;
    mutable turns_total : int;
    mutable max_depth : int;
  }

  let create () =
    {
      turn = Array.make 64 0;
      next = Array.make 64 (-1);
      depth = Array.make 64 0;
      n = 0;
      slots = Array.make 128 0;
      entries = 0;
      turns_total = 0;
      max_depth = 0;
    }

  let grow t =
    let cap = Array.length t.turn in
    if t.n >= cap then begin
      let cap' = 2 * cap in
      let extend a fill =
        let a' = Array.make cap' fill in
        Array.blit a 0 a' 0 cap;
        a'
      in
      t.turn <- extend t.turn 0;
      t.next <- extend t.next (-1);
      t.depth <- extend t.depth 0
    end

  (* The slot holding cell (turn, next), or the empty slot where it
     would go. *)
  let find slots t turn next =
    let mask = Array.length slots - 1 in
    let h = ((next * 0x2545F491) + turn) * 0x9E3779B9 in
    let i = ref ((h lxor (h lsr 29)) land mask) in
    while
      let c = slots.(!i) - 1 in
      c >= 0 && not (t.turn.(c) = turn && t.next.(c) = next)
    do
      i := (!i + 1) land mask
    done;
    !i

  (* Double the slots once they are half full. *)
  let rehash t =
    if 2 * t.n > Array.length t.slots then begin
      let slots = Array.make (2 * Array.length t.slots) 0 in
      for c = 0 to t.n - 1 do
        slots.(find slots t t.turn.(c) t.next.(c)) <- c + 1
      done;
      t.slots <- slots
    end

  (* The cell of [turn] followed by cell [next]'s route. *)
  let intern t turn next =
    let i = find t.slots t turn next in
    if t.slots.(i) > 0 then t.slots.(i) - 1
    else begin
      grow t;
      let c = t.n in
      t.n <- c + 1;
      t.turn.(c) <- turn;
      t.next.(c) <- next;
      let depth = 1 + if next < 0 then 0 else t.depth.(next) in
      t.depth.(c) <- depth;
      if depth > t.max_depth then t.max_depth <- depth;
      t.slots.(i) <- c + 1;
      rehash t;
      c
    end

  (* Intern [buf.(0 .. len-1)] back to front so the cell chain reads
     the route forward: a cell is the head turn, its [next] the shared
     remainder. *)
  let add_prefix t buf len =
    let idx = ref (-1) in
    for i = len - 1 downto 0 do
      idx := intern t buf.(i) !idx
    done;
    t.entries <- t.entries + 1;
    t.turns_total <- t.turns_total + len;
    !idx

  let add t turns =
    let arr = Array.of_list turns in
    add_prefix t arr (Array.length arr)

  let write t idx buf =
    let j = ref idx and pos = ref 0 in
    while !j >= 0 do
      buf.(!pos) <- t.turn.(!j);
      incr pos;
      j := t.next.(!j)
    done;
    !pos

  let to_route t idx =
    let rec go j acc = if j < 0 then List.rev acc else go t.next.(j) (t.turn.(j) :: acc) in
    go idx []

  let cells t = t.n
  let entries t = t.entries
  let turns_total t = t.turns_total
  let max_depth t = t.max_depth

  (* Wire model: 3-byte route reference per entry; 4 bytes per cell
     (turn byte + 3-byte suffix reference). The naive comparator is
     Distribute.entry_bytes = 3 + length. *)
  let entry_ref_bytes = 3
  let cell_bytes = 4
  let packed_bytes t = (entry_ref_bytes * t.entries) + (cell_bytes * t.n)
end

(* A cell: a pool cell index for a route too long to pack, [none], or
   [lnot w] for a route packed inline as the word [w]: its length in
   the low [len_bits] bits, then each turn plus [bias] in [turn_bits]
   bits, the first turn lowest. A biased turn is never 0, so a packed
   route of one or more turns is a word of at least [1 lsl len_bits]
   and its cell is below [none]; the empty route packs to 0, the cell
   -1 the pool gives it. *)
type t = {
  pool : Pool.t;
  radix : int;
  bias : int;
  turn_bits : int;
  len_bits : int;
  inline_turns : int;
}

let none = -2
let empty = -1

(* The inline word's layout for a radix: a turn, exit port minus entry
   port, lies in [-(radix - 1), radix - 1], so with [bias = radix] it
   needs [turn_bits] bits to hold up to [2 * radix - 1]. The length
   takes the fewest bits that can count every turn the rest of the 62
   bits of a non-negative word holds. *)
let create ~radix =
  let bias = max 1 radix in
  let rec bits b v = if 1 lsl b > v then b else bits (b + 1) v in
  let turn_bits = bits 1 ((2 * bias) - 1) in
  let rec fit len_bits =
    let turns = (62 - len_bits) / turn_bits in
    if turns < 1 lsl len_bits then (len_bits, turns) else fit (len_bits + 1)
  in
  let len_bits, inline_turns = fit 1 in
  { pool = Pool.create (); radix; bias; turn_bits; len_bits; inline_turns }

let radix t = t.radix
let pool t = t.pool
let inline_turns t = t.inline_turns

(* The inline cell of [buf.(0 .. len-1)], [len <= inline_turns]. *)
let inline t buf len =
  let w = ref 0 in
  for i = len - 1 downto 0 do
    w := (!w lsl t.turn_bits) lor (buf.(i) + t.bias)
  done;
  lnot ((!w lsl t.len_bits) lor len)

let pack t buf len =
  if len > t.inline_turns then Pool.add_prefix t.pool buf len else inline t buf len

let intern t buf len =
  let idx = Pool.add_prefix t.pool buf len in
  if len > t.inline_turns then idx else inline t buf len

let[@inline] inline_length t c = lnot c land ((1 lsl t.len_bits) - 1)

(* Turn [i] of the inline cell [c]. *)
let inline_turn t c i =
  ((lnot c lsr (t.len_bits + (i * t.turn_bits))) land ((1 lsl t.turn_bits) - 1))
  - t.bias

(* The pool cell of the route of [c]. *)
let to_pool t c =
  if c >= 0 then c
  else begin
    let idx = ref (-1) in
    for i = inline_length t c - 1 downto 0 do
      idx := Pool.intern t.pool (inline_turn t c i) !idx
    done;
    !idx
  end

let cons t turn c =
  if c < 0 && inline_length t c < t.inline_turns then
    let w = lnot c in
    let turns = ((w lsr t.len_bits) lsl t.turn_bits) lor (turn + t.bias) in
    lnot ((turns lsl t.len_bits) lor (inline_length t c + 1))
  else Pool.intern t.pool turn (to_pool t c)

let length t c =
  if c >= 0 then t.pool.Pool.depth.(c) else if c = none then -1 else inline_length t c

let write t c buf =
  if c >= 0 then Pool.write t.pool c buf
  else if c = none then -1
  else begin
    let w = lnot c and bits = t.turn_bits and bias = t.bias in
    let len = w land ((1 lsl t.len_bits) - 1) in
    let n = if Array.length buf >= t.inline_turns then t.inline_turns else len in
    let turns = ref (w lsr t.len_bits) and mask = (1 lsl bits) - 1 in
    for i = 0 to n - 1 do
      buf.(i) <- (!turns land mask) - bias;
      turns := !turns lsr bits
    done;
    len
  end

(* Turn [i] of route [c]: one shift inline, [i] steps down a pool
   chain. *)
let nth t c i =
  if c < 0 then inline_turn t c i
  else begin
    let j = ref c in
    for _ = 1 to i do
      j := t.pool.Pool.next.(!j)
    done;
    t.pool.Pool.turn.(!j)
  end

let to_route t c = if c = none then None else Some (List.init (length t c) (nth t c))

let rec same_turns a x b y i n =
  i = n || (nth a x i = nth b y i && same_turns a x b y (i + 1) n)

(* One store hash-conses its pool, and within one layout a route that
   fits is always inline: one comparison decides unless both cells are
   pool cells of different pools, or the layouts differ. *)
let equal a x b y =
  if a == b || (a.bias = b.bias && (x < 0 || y < 0)) then x = y
  else if x = none || y = none then x = y
  else
    let n = length a x in
    n = length b y && same_turns a x b y 0 n
