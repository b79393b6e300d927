(* SplitMix64 (Steele, Lea & Flood 2014): tiny state, splittable, and
   excellent statistical quality for simulation purposes. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let copy t = { state = t.state }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = mix64 (next_int64 t) }

let int t bound =
  assert (bound > 0);
  (* Rejection-free for our purposes: modulo bias is negligible because
     bounds are tiny compared to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle_list t l =
  let a = Array.of_list l in
  shuffle t a;
  Array.to_list a

let exponential t mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

type arrivals = { a_rng : t; a_mean_gap : float; mutable a_next : float }

let arrivals t ~mean_gap =
  { a_rng = t; a_mean_gap = mean_gap; a_next = exponential t mean_gap }

let arrivals_before a horizon f =
  while a.a_next < horizon do
    f a.a_next;
    a.a_next <- a.a_next +. exponential a.a_rng a.a_mean_gap
  done
