let turn_order ~radix =
  Array.init (2 * (radix - 1)) (fun i ->
      let m = (i / 2) + 1 in
      if i land 1 = 0 then m else -m)

let provably_illegal model c ~slot = not (Model.window_admits model c ~slot)

let already_known model c ~slot = Model.slot_occupied model c slot
