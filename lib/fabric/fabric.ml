open San_topology
module Prng = San_util.Prng

type spec = {
  levels : int;
  radix : int;
  edge_switches : int;
  hosts_per_edge : int;
  oversub : float;
  trim_uplinks : float;
  missing_spines : float;
  hetero_radix : float;
}

let default =
  {
    levels = 2;
    radix = 8;
    edge_switches = 25;
    hosts_per_edge = 4;
    oversub = 1.0;
    trim_uplinks = 0.0;
    missing_spines = 0.0;
    hetero_radix = 0.0;
  }

let validate s =
  let err fmt = Printf.ksprintf Result.error fmt in
  if s.levels < 1 then err "levels must be >= 1"
  else if s.levels > 6 then err "levels %d unreasonable (max 6)" s.levels
  else if s.radix < 2 then err "radix must be >= 2"
  else if s.edge_switches < 1 then err "edge switch count must be >= 1"
  else if s.hosts_per_edge < 1 then err "hosts per edge switch must be >= 1"
  else if s.levels >= 2 && s.hosts_per_edge >= s.radix then
    err "hosts per edge (%d) leaves no uplink port on a radix-%d switch"
      s.hosts_per_edge s.radix
  else if s.levels = 1 && s.hosts_per_edge > s.radix then
    err "hosts per edge (%d) exceeds radix %d" s.hosts_per_edge s.radix
  else if s.levels = 1 && s.edge_switches > 1 then
    err "a 1-level fabric with %d edge switches cannot be connected"
      s.edge_switches
  (* Written so that NaN, which fails every comparison, is rejected. *)
  else if not (s.oversub > 0.0 && Float.is_finite s.oversub) then
    err "oversubscription %g must be positive and finite" s.oversub
  else if not (s.trim_uplinks >= 0.0 && s.trim_uplinks < 1.0) then
    err "trim_uplinks %g must lie in [0,1)" s.trim_uplinks
  else if not (s.missing_spines >= 0.0 && s.missing_spines < 1.0) then
    err "missing_spines %g must lie in [0,1)" s.missing_spines
  else if not (s.hetero_radix >= 0.0 && s.hetero_radix < 1.0) then
    err "hetero_radix %g must lie in [0,1)" s.hetero_radix
  else Ok ()

(* Per-tier downlink port budget of a tier-l switch (l >= 1); the top
   tier faces only downwards, middle tiers split their radix. *)
let downlinks s l = if l = s.levels - 1 then s.radix else s.radix / 2

(* Base uplink count of a tier-l switch (l <= levels-2). *)
let uplinks s l =
  if l = 0 then
    let u =
      int_of_float
        (Float.round (float_of_int s.hosts_per_edge /. s.oversub))
    in
    max 1 (min (s.radix - s.hosts_per_edge) u)
  else max 1 (s.radix - downlinks s l)

let suggested_depth s = (6 * s.levels) + 5

let build ~seed s =
  (match validate s with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fabric.build: " ^ e));
  let rng = Prng.create seed in
  let g = Graph.create ~radix:s.radix () in
  let free n =
    match Graph.free_ports g n with
    | p :: _ -> p
    | [] -> invalid_arg (Printf.sprintf "Fabric.build: node %d out of ports" n)
  in
  (* Tier 0: edge switches with their hosts. *)
  let host_n = ref 0 in
  let tier0 =
    Array.init s.edge_switches (fun i ->
        let sw = Graph.add_switch g ~name:(Printf.sprintf "e%d" i) () in
        for _ = 1 to s.hosts_per_edge do
          let h = Graph.add_host g ~name:(Printf.sprintf "h%d" !host_n) in
          incr host_n;
          Graph.connect g (h, 0) (sw, free sw)
        done;
        sw)
  in
  let tier = ref tier0 in
  for l = 0 to s.levels - 2 do
    let below = !tier in
    let nb = Array.length below in
    (* Decide each switch's actual uplink count first: the irregularity
       knobs act here, always preserving the first uplink. *)
    let want =
      Array.map
        (fun _ ->
          let base = uplinks s l in
          let base =
            if s.hetero_radix > 0.0 && Prng.float rng 1.0 < s.hetero_radix then
              max 1 (base / 2)
            else base
          in
          let kept = ref 1 in
          for _ = 2 to base do
            if not (s.trim_uplinks > 0.0 && Prng.float rng 1.0 < s.trim_uplinks)
            then incr kept
          done;
          !kept)
        below
    in
    let up_total = Array.fold_left ( + ) 0 want in
    let d_above = downlinks s (l + 1) in
    let n_above = (up_total + d_above - 1) / d_above in
    let n_above =
      if l + 1 = s.levels - 1 && s.missing_spines > 0.0 then
        let removed =
          int_of_float (Float.round (float_of_int n_above *. s.missing_spines))
        in
        n_above - removed
      else n_above
    in
    (* Never fewer switches than needed to give everyone below one
       uplink, never more than there are uplinks to land. *)
    let n_above = max n_above ((nb + d_above - 1) / d_above) in
    let n_above = max 1 (min n_above up_total) in
    let above =
      Array.init n_above (fun i ->
          let name =
            if l + 1 = s.levels - 1 then Printf.sprintf "s%d" i
            else Printf.sprintf "a%d-%d" (l + 1) i
          in
          Graph.add_switch g ~name ())
    in
    (* Stride wiring: uplink [j] of switch [i] prefers upper switch
       [(i + j * n_above / u) mod n_above], falling forward to the
       next one with capacity. The [j * n_above / u] term fans each
       switch's uplinks across the whole tier above (the folded-Clos
       pattern, keeping the diameter at two hops per tier), while the
       [+ i] diagonal staggers neighbours so no parent is overloaded —
       a plain round-robin cursor degenerates whenever
       [nb mod n_above = 0] (every switch dumps all its uplinks on one
       parent and the fabric disconnects). Rounds go mandatory-first:
       every [j = 0] uplink lands while capacity is plentiful. *)
    let cap = Array.make n_above d_above in
    let cap_left = ref (n_above * d_above) in
    let max_want = Array.fold_left max 0 want in
    for j = 0 to max_want - 1 do
      Array.iteri
        (fun i sw ->
          if j < want.(i) && !cap_left > 0 then begin
            let k = ref ((i + (j * n_above / max_want)) mod n_above) in
            while cap.(!k) = 0 do
              k := (!k + 1) mod n_above
            done;
            let up = above.(!k) in
            cap.(!k) <- cap.(!k) - 1;
            decr cap_left;
            Graph.connect g (sw, free sw) (up, free up)
          end)
        below
    done;
    tier := above
  done;
  (* Degenerate corners (a lone uplink fanned over many spines, say)
     can still leave stray components. No operator would deploy a
     split fabric, so stitch deterministically: the lowest spare-port
     switch of each stray component gets one cable back to the main
     component's lowest spare-port switch. Well-formed specs never
     enter this pass. *)
  let n = Graph.num_nodes g in
  let adj = Array.make (max 1 n) [] in
  List.iter
    (fun (((a, _), (b, _)) : Graph.wire_end * Graph.wire_end) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    (Graph.wires g);
  let comp = Array.make (max 1 n) (-1) in
  let ncomp = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) < 0 then begin
      let c = !ncomp in
      incr ncomp;
      comp.(v) <- c;
      let stack = ref [ v ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | u :: rest ->
          stack := rest;
          List.iter
            (fun w ->
              if comp.(w) < 0 then begin
                comp.(w) <- c;
                stack := w :: !stack
              end)
            adj.(u)
      done
    end
  done;
  let spare_switch c =
    let best = ref (-1) in
    for v = n - 1 downto 0 do
      if comp.(v) = c && Graph.kind g v = Graph.Switch
         && Graph.free_ports g v <> []
      then best := v
    done;
    !best
  in
  for c = 1 to !ncomp - 1 do
    let a = spare_switch 0 and b = spare_switch c in
    if a < 0 || b < 0 then
      invalid_arg
        "Fabric.build: fabric disconnected and no spare switch port to \
         stitch it; loosen the spec";
    Graph.connect g (a, free a) (b, free b)
  done;
  g

(* -------------------------------------------------------------- *)
(* Spec strings.                                                  *)

let to_string s =
  let base =
    Printf.sprintf "levels=%d,radix=%d,edge=%d,hosts=%d" s.levels s.radix
      s.edge_switches s.hosts_per_edge
  in
  let opt name v =
    if v = 0.0 then "" else Printf.sprintf ",%s=%g" name v
  in
  base
  ^ (if s.oversub = 1.0 then "" else Printf.sprintf ",oversub=%g" s.oversub)
  ^ opt "trim" s.trim_uplinks
  ^ opt "missing" s.missing_spines
  ^ opt "hetero" s.hetero_radix

let of_string text =
  let ( let* ) = Result.bind in
  let parse_kv acc kv =
    let* acc = acc in
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "expected key=value, got %S" kv)
    | Some i -> (
      let key = String.sub kv 0 i in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      let as_int () =
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "%s: not an integer: %S" key v)
      in
      let as_float () =
        match float_of_string_opt v with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "%s: not a number: %S" key v)
      in
      match key with
      | "levels" ->
        let* n = as_int () in
        Ok { acc with levels = n }
      | "radix" ->
        let* n = as_int () in
        Ok { acc with radix = n }
      | "edge" ->
        let* n = as_int () in
        Ok { acc with edge_switches = n }
      | "hosts" ->
        let* n = as_int () in
        Ok { acc with hosts_per_edge = n }
      | "oversub" ->
        let* f = as_float () in
        Ok { acc with oversub = f }
      | "trim" ->
        let* f = as_float () in
        Ok { acc with trim_uplinks = f }
      | "missing" ->
        let* f = as_float () in
        Ok { acc with missing_spines = f }
      | "hetero" ->
        let* f = as_float () in
        Ok { acc with hetero_radix = f }
      | _ -> Error (Printf.sprintf "unknown fabric key %S" key))
  in
  let* s =
    List.fold_left parse_kv (Ok default) (String.split_on_char ',' text)
  in
  let* () = validate s in
  Ok s

(* -------------------------------------------------------------- *)
(* Presets.                                                       *)

type preset = {
  p_name : string;
  p_doc : string;
  p_spec : spec option;
  p_build : seed:int -> Graph.t;
  p_depth : int option;
}

let of_spec name doc s =
  {
    p_name = name;
    p_doc = doc;
    p_spec = Some s;
    p_build = (fun ~seed -> build ~seed s);
    p_depth = Some (suggested_depth s);
  }

let of_paper name doc f =
  {
    p_name = name;
    p_doc = doc;
    p_spec = None;
    p_build = (fun ~seed:_ -> fst (f ()));
    p_depth = None;
  }

let ft_100 =
  { default with levels = 2; radix = 8; edge_switches = 25; hosts_per_edge = 4 }

let ft_1k =
  {
    default with
    levels = 3;
    radix = 16;
    edge_switches = 125;
    hosts_per_edge = 8;
  }

let ft_10k =
  {
    default with
    levels = 3;
    radix = 32;
    edge_switches = 625;
    hosts_per_edge = 16;
  }

let ft_100k =
  {
    default with
    levels = 4;
    radix = 32;
    edge_switches = 6250;
    hosts_per_edge = 16;
  }

let presets =
  [
    of_spec "ft-100" "100 hosts: 2-level fat-tree, radix 8 (NOW scale)" ft_100;
    of_spec "ft-1k" "1,000 hosts: 3-level fat-tree, radix 16" ft_1k;
    of_spec "ft-10k" "10,000 hosts: 3-level fat-tree, radix 32" ft_10k;
    of_spec "ft-100k" "100,000 hosts: 4-level fat-tree, radix 32 (stretch)"
      ft_100k;
    of_spec "ft-1k-degraded"
      "ft-1k with trimmed uplinks, missing spines and old half-radix switches"
      { ft_1k with trim_uplinks = 0.08; missing_spines = 0.15; hetero_radix = 0.1 };
    of_paper "now-c" "the paper's subcluster C NOW (Figure 3, row C)"
      Generators.now_c;
    of_paper "now-ca" "subclusters C+A bridged as deployed" Generators.now_ca;
    of_paper "now-cab" "the full 100-host C+A+B NOW (Figure 6)"
      Generators.now_cab;
  ]

let find_preset name =
  List.find_opt (fun p -> p.p_name = name) presets

let parse text =
  match find_preset text with
  | Some p -> Ok p
  | None ->
    if String.contains text '=' then
      match of_string text with
      | Ok s ->
        Ok
          {
            p_name = "custom";
            p_doc = "custom parametric fabric";
            p_spec = Some s;
            p_build = (fun ~seed -> build ~seed s);
            p_depth = Some (suggested_depth s);
          }
      | Error e -> Error (Printf.sprintf "bad fabric spec %S: %s" text e)
    else
      Error
        (Printf.sprintf "unknown fabric preset %S (presets: %s, or key=value,...)"
           text
           (String.concat ", " (List.map (fun p -> p.p_name) presets)))

let header_lines p ~seed g =
  let spec_text =
    match p.p_spec with Some s -> to_string s | None -> p.p_name
  in
  [
    Printf.sprintf "san_fabric: %s (%s)" p.p_name p.p_doc;
    Printf.sprintf "spec: fabric:%s" spec_text;
    Printf.sprintf "seed: %d" seed;
    Printf.sprintf "size: %d hosts, %d switches, %d links" (Graph.num_hosts g)
      (Graph.num_switches g) (Graph.num_wires g);
    (match p.p_depth with
    | Some d -> Printf.sprintf "suggested exploration depth: %d" d
    | None -> "suggested exploration depth: oracle (small network)");
    Printf.sprintf "replay: san_map gen -t fabric:%s --seed %d" spec_text seed;
  ]
