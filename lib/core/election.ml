open San_topology
open San_simnet

(* Probability one in-flight probe collides with one active loser's
   traffic; its cost (timeout plus the retried probe); and the restart
   probability at 100 contenders, scaled by (contenders/100)². *)
let collision_prob_per_loser = 1e-3
let collision_penalty_ns = 650_000.0
let restart_base_prob = 0.25

type outcome = {
  winner : Graph.node;
  contenders : int;
  base_ns : float;
  collision_extra_ns : float;
  restart_extra_ns : float;
  total_ns : float;
  map : (Graph.t, string) Stdlib.result;
}

let run ~rng net =
  let g = Network.graph net in
  let hosts = Graph.hosts g in
  let winner =
    match List.rev hosts with
    | [] -> invalid_arg "Election.run: no hosts"
    | w :: _ -> w
  in
  let contenders = List.length hosts in
  let r = Berkeley.run ~record_trace:true net ~mapper:winner in
  let base = r.Berkeley.elapsed_ns in
  (* Discovery curve: how many distinct hosts the winner had found by
     each point of its run; a loser stays active (and noisy) until
     found. *)
  let curve =
    Array.of_list
      (List.map
         (fun (p : Berkeley.trace_point) -> (p.elapsed_ns, p.hosts_found))
         r.Berkeley.trace)
  in
  let hosts_found_at t =
    (* Largest sample at or before t. *)
    let n = Array.length curve in
    let rec bs lo hi acc =
      if lo > hi then acc
      else
        let mid = (lo + hi) / 2 in
        let ts, found = curve.(mid) in
        if ts <= t then bs (mid + 1) hi found else bs lo (mid - 1) acc
    in
    bs 0 (n - 1) 1
  in
  let total_probes = max 1 (Berkeley.total_probes r) in
  let collision_extra = ref 0.0 in
  for k = 0 to total_probes - 1 do
    let t = base *. float_of_int k /. float_of_int total_probes in
    let active_losers = max 0 (contenders - hosts_found_at t) in
    let p =
      1.0 -. ((1.0 -. collision_prob_per_loser) ** float_of_int active_losers)
    in
    if San_util.Prng.float rng 1.0 < p then
      collision_extra := !collision_extra +. collision_penalty_ns
  done;
  let restart_extra =
    let p = restart_base_prob *. ((float_of_int contenders /. 100.0) ** 2.0) in
    if San_util.Prng.float rng 1.0 < p then
      (* Refought election: redo between half and twice the work. *)
      base *. (0.5 +. San_util.Prng.float rng 1.5)
    else 0.0
  in
  {
    winner;
    contenders;
    base_ns = base;
    collision_extra_ns = !collision_extra;
    restart_extra_ns = restart_extra;
    total_ns = base +. !collision_extra +. restart_extra;
    map = r.Berkeley.map;
  }
