(* [len] elements from [head] on, wrapping at the end of [buf], whose
   length is a power of two. *)
type t = { mutable buf : int array; mutable head : int; mutable len : int }

let create () = { buf = Array.make 16 0; head = 0; len = 0 }
let length r = r.len
let is_empty r = r.len = 0

let add r x =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    let b = Array.make (2 * cap) 0 in
    Array.blit r.buf r.head b 0 (cap - r.head);
    Array.blit r.buf 0 b (cap - r.head) r.head;
    r.buf <- b;
    r.head <- 0
  end;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- x;
  r.len <- r.len + 1

let pop r =
  if r.len = 0 then invalid_arg "Int_ring.pop: empty queue";
  let x = r.buf.(r.head) in
  r.head <- (r.head + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  x
