type t = {
  n : int;
  min : float;
  avg : float;
  max : float;
  stddev : float;
}

let of_list samples =
  match samples with
  | [] -> invalid_arg "Summary.of_list: empty"
  | first :: _ ->
    let n = List.length samples in
    let sum = List.fold_left ( +. ) 0.0 samples in
    let avg = sum /. float_of_int n in
    let mn = List.fold_left min first samples in
    let mx = List.fold_left max first samples in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. avg) ** 2.0)) 0.0 samples
      /. float_of_int n
    in
    { n; min = mn; avg; max = mx; stddev = sqrt var }

let percentile samples p =
  match samples with
  | [] -> invalid_arg "Summary.percentile: empty"
  | _ ->
    let a = Array.of_list samples in
    Array.sort compare a;
    let n = Array.length a in
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) idx))

let pp_ms ppf t =
  let ms x = x /. 1e6 in
  Format.fprintf ppf "%.0f / %.0f / %.0f" (ms t.min) (ms t.avg) (ms t.max)
