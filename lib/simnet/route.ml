type turn = int
type t = turn list

let host_probe turns = turns

let switch_probe turns = turns @ (0 :: List.rev_map (fun a -> -a) turns)

let is_switch_probe_shape route =
  let n = List.length route in
  n mod 2 = 1
  &&
  let arr = Array.of_list route in
  let k = n / 2 in
  arr.(k) = 0
  &&
  let ok = ref true in
  for i = 0 to k - 1 do
    if arr.(n - 1 - i) <> -arr.(i) then ok := false
  done;
  !ok

let forward_of_switch_probe route =
  if is_switch_probe_shape route then
    Some (List.filteri (fun i _ -> i < List.length route / 2) route)
  else None

let valid ~radix route =
  List.for_all (fun a -> a > -radix && a < radix) route

let pp ppf route =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '.')
    (fun ppf a -> Format.fprintf ppf "%+d" a)
    ppf route

let to_string route = Format.asprintf "%a" pp route
