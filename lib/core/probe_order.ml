let turn_order ~radix =
  List.concat (List.init (radix - 1) (fun i -> [ i + 1; -(i + 1) ]))

let provably_illegal model v ~turn =
  not (Model.window_admits model v ~slot:(Model.turn_slot model v turn))

let already_known model v ~turn =
  Model.slot_occupied model v (Model.turn_slot model v turn)
