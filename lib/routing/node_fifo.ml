type t = {
  limit : int;
  (* The resident nodes, oldest at [head], wrapping around; allocated
     by the first [add]. No more nodes than the slots hold can be
     resident, so the ring never needs more. *)
  mutable ring : int array;
  mutable head : int;
  mutable resident : int;
}

let create ~limit = { limit = max 1 limit; ring = [||]; head = 0; resident = 0 }

let add t slots node a =
  if Array.length t.ring = 0 then
    t.ring <- Array.make (max 1 (min t.limit (Array.length slots))) (-1);
  let cap = Array.length t.ring in
  if t.resident = cap then begin
    slots.(t.ring.(t.head)) <- [||];
    t.ring.(t.head) <- node;
    t.head <- (t.head + 1) mod cap
  end
  else begin
    t.ring.((t.head + t.resident) mod cap) <- node;
    t.resident <- t.resident + 1
  end;
  slots.(node) <- a

let resident t = t.resident
