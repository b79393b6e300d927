type 'a t = 'a Queue.t

let create = Queue.create
let add t x = Queue.add x t
let next_element t = Queue.take_opt t
let pop = Queue.take
let peek t = Queue.peek_opt t
let length = Queue.length
let is_empty = Queue.is_empty
let to_list t = List.of_seq (Queue.to_seq t)
