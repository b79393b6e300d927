(* Declarative SLOs with error-budget burn-rate tracking — the one
   alert engine.

   An objective reads like the sentence an operator would write: "p99
   convergence below 200 simulated ms at offered load up to 0.3". The
   quantile fixes the error budget — p99 tolerates 1% bad epochs — and
   the tracker turns a sliding window of epoch samples into a burn
   rate: (bad fraction among eligible epochs) / budget. Burn 1.0 means
   exactly spending the budget; burn held at or above 1.0 for
   [for_epochs] epochs raises an alert (Trace.Alert_raised named after
   the objective), and the first epoch back under 1.0 clears it. Burn
   rates are also published as gauges, so the Prometheus exposition
   carries [san_slo_*] series without extra plumbing.

   A threshold-for-N-epochs health rule is the window-1 case: burn is
   1/budget on a breach and 0 otherwise, so the alert follows the
   breaches exactly.

   Epochs louder than [max_load] are out of contract and never charged
   against the budget; convergence objectives are charged only on
   epochs that actually had an incident to converge from (an epoch
   with nothing to detect says nothing about detection speed). *)

type metric =
  | Converge_ns
  | Epoch_ns
  | Drop_rate
  | Coverage
  | Convergence_epochs
  | Missed_slices
  | Probe_drop_rate

let metric_to_string = function
  | Converge_ns -> "converge"
  | Epoch_ns -> "epoch"
  | Drop_rate -> "drop"
  | Coverage -> "coverage"
  | Convergence_epochs -> "convergence_epochs"
  | Missed_slices -> "missed_slices"
  | Probe_drop_rate -> "probe_drop_rate"

let metric_of_string = function
  | "converge" | "converge_ns" -> Some Converge_ns
  | "epoch" | "epoch_ns" -> Some Epoch_ns
  | "drop" | "drop_rate" -> Some Drop_rate
  | "coverage" -> Some Coverage
  | _ -> None

type cmp = Below | Above

type objective = {
  name : string;
  metric : metric;
  quantile : float;  (* the pNN of the sentence; budget = 1 - quantile *)
  cmp : cmp;
  limit : float;
  max_load : float;  (* epochs above this offered load are out of contract *)
  window : int;  (* sliding window, in eligible epochs *)
  for_epochs : int;  (* sustained-burn streak before raising *)
}

let objective ?name ?(quantile = 0.95) ?(max_load = infinity) ?(window = 20)
    ?(for_epochs = 2) ~metric ~cmp limit =
  if quantile <= 0.0 || quantile >= 1.0 then
    invalid_arg "Slo.objective: quantile must be in (0, 1)";
  if window < 1 then invalid_arg "Slo.objective: empty window";
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.sprintf "%s-p%g" (metric_to_string metric) (quantile *. 100.0)
  in
  { name; metric; quantile; cmp; limit; max_load; window; for_epochs }

let budget o = 1.0 -. o.quantile

(* "converge:p99<2e8@0.3" — METRIC ':' pNN ('<'|'>') LIMIT ['@' MAXLOAD] *)
let parse s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char ':' (String.trim s) with
  | [ metric_s; rest ] -> (
    match metric_of_string metric_s with
    | None -> fail "unknown SLO metric %S (converge|epoch|drop|coverage)" metric_s
    | Some metric -> (
      let cmp, parts =
        if String.contains rest '<' then (Below, String.split_on_char '<' rest)
        else (Above, String.split_on_char '>' rest)
      in
      match parts with
      | [ q_s; lim_s ] -> (
        let q_s = String.trim q_s in
        if String.length q_s < 2 || q_s.[0] <> 'p' then
          fail "SLO quantile must look like p99, got %S" q_s
        else
          let lim_s, load_s =
            match String.split_on_char '@' lim_s with
            | [ l ] -> (l, None)
            | [ l; ld ] -> (l, Some ld)
            | _ -> (lim_s, None)
          in
          match
            ( float_of_string_opt (String.sub q_s 1 (String.length q_s - 1)),
              float_of_string_opt (String.trim lim_s) )
          with
          | Some pct, Some limit when pct > 0.0 && pct < 100.0 -> (
            let quantile = pct /. 100.0 in
            match Option.map float_of_string_opt (Option.map String.trim load_s) with
            | _ when not (Float.is_finite limit) ->
              fail "SLO limit %g in %S is not a finite number" limit s
            | Some None -> fail "bad max-load in SLO %S" s
            | Some (Some max_load) when not (Float.is_finite max_load) ->
              fail "SLO max-load %g in %S is not a finite number" max_load s
            | None ->
              Ok (objective ~quantile ~metric ~cmp limit)
            | Some (Some max_load) ->
              Ok (objective ~quantile ~max_load ~metric ~cmp limit))
          | _ -> fail "bad quantile or limit in SLO %S" s)
      | _ -> fail "SLO %S needs exactly one '<' or '>'" s))
  | _ -> fail "SLO %S is not METRIC:pNN<LIMIT[@MAXLOAD]" s

let to_string o =
  Printf.sprintf "%s:p%g%c%g%s"
    (metric_to_string o.metric)
    (o.quantile *. 100.0)
    (match o.cmp with Below -> '<' | Above -> '>')
    o.limit
    (if o.max_load = infinity then ""
     else Printf.sprintf "@%g" o.max_load)

(* Defaults are deliberately loose: ship-with limits that catch real
   regressions (a daemon that stops converging) without tripping on
   topology-to-topology variation. *)
let defaults =
  [
    objective ~quantile:0.95 ~metric:Converge_ns ~cmp:Below 5e8;
    objective ~quantile:0.99 ~metric:Epoch_ns ~cmp:Below 2e9;
    objective ~quantile:0.95 ~max_load:0.5 ~metric:Drop_rate ~cmp:Below 0.25;
    objective ~quantile:0.95 ~metric:Coverage ~cmp:Above 0.5;
  ]

(* Threshold rules over a one-epoch window (see the header): the p50
   quantile only sets the burn of a breach to 2. *)
let health =
  let rule ?(for_epochs = 1) name metric cmp limit =
    objective ~name ~quantile:0.5 ~window:1 ~for_epochs ~metric ~cmp limit
  in
  [
    rule "coverage" Coverage Above 1.0;
    rule "missed_slices" Missed_slices Below 0.0;
    rule "slow_convergence" Convergence_epochs Below 2.0;
    rule ~for_epochs:2 "probe_drops" Probe_drop_rate Below 0.25;
  ]

type sample = {
  s_epoch : int;
  s_load : float;  (* offered load this epoch, 0 when quiescent *)
  s_converge_ns : float option;  (* Some only when an incident resolved *)
  s_epoch_ns : float;
  s_drop_rate : float;
  s_coverage : float;
  s_convergence_epochs : int;
  s_missed_slices : int;
  s_probe_drop_rate : float;
}

type alert = { raised_epoch : int; cleared_epoch : int option; worst : float }

type status = {
  st_objective : objective;
  st_eligible : int;  (* eligible epochs currently in the window *)
  st_bad : int;
  st_burn_rate : float;
  st_streak : int;
  st_alerting : bool;
  st_alerts : alert list;
}

type tracked = {
  o : objective;
  mutable values : float list;  (* eligible values, newest first *)
  mutable streak : int;
  mutable ledger : alert list;  (* newest first; an active alert heads it *)
}

type t = { slos : tracked list }

let create objectives =
  {
    slos =
      List.map
        (fun o -> { o; values = []; streak = 0; ledger = [] })
        objectives;
  }

let value_of o s =
  match o.metric with
  | Converge_ns -> s.s_converge_ns
  | Epoch_ns -> Some s.s_epoch_ns
  | Drop_rate -> Some s.s_drop_rate
  | Coverage -> Some s.s_coverage
  | Convergence_epochs -> Some (float_of_int s.s_convergence_epochs)
  | Missed_slices -> Some (float_of_int s.s_missed_slices)
  | Probe_drop_rate -> Some s.s_probe_drop_rate

let is_bad o v = match o.cmp with Below -> v > o.limit | Above -> v < o.limit

(* The more extreme of two breaching values. *)
let worse o a b =
  match o.cmp with Below -> Float.max a b | Above -> Float.min a b

let take n xs =
  let rec go n = function
    | x :: rest when n > 0 -> x :: go (n - 1) rest
    | _ -> []
  in
  go n xs

let burn_of tr =
  let eligible = List.length tr.values in
  let bad = List.length (List.filter (is_bad tr.o) tr.values) in
  let burn =
    if eligible = 0 then 0.0
    else float_of_int bad /. float_of_int eligible /. budget tr.o
  in
  (eligible, bad, burn)

(* The ledger's head, while it is still open. *)
let active tr =
  match tr.ledger with
  | ({ cleared_epoch = None; _ } as a) :: older -> Some (a, older)
  | _ -> None

(* Feed one epoch; returns (raised, cleared) objective names. *)
let observe t s =
  let raised = ref [] and cleared = ref [] in
  List.iter
    (fun tr ->
      let fresh =
        if s.s_load <= tr.o.max_load then value_of tr.o s else None
      in
      Option.iter
        (fun v -> tr.values <- take tr.o.window (v :: tr.values))
        fresh;
      let _, _, burn = burn_of tr in
      if San_obs.Obs.on () then
        San_obs.Obs.set_gauge ("slo." ^ tr.o.name ^ ".burn_rate") burn;
      let name = tr.o.name and epoch = s.s_epoch in
      if burn >= 1.0 then begin
        tr.streak <- tr.streak + 1;
        match (active tr, fresh) with
        | Some (a, older), Some v when is_bad tr.o v ->
          tr.ledger <- { a with worst = worse tr.o a.worst v } :: older
        | Some _, _ -> ()
        | None, _ when tr.streak >= tr.o.for_epochs ->
          (* burn >= 1 means the window holds a breaching value *)
          let bads = List.filter (is_bad tr.o) tr.values in
          let worst = List.fold_left (worse tr.o) (List.hd bads) bads in
          tr.ledger <-
            { raised_epoch = epoch; cleared_epoch = None; worst } :: tr.ledger;
          raised := name :: !raised;
          San_obs.Obs.emit (San_obs.Trace.Alert_raised { name; epoch })
        | None, _ -> ()
      end
      else begin
        tr.streak <- 0;
        match active tr with
        | Some (a, older) ->
          tr.ledger <- { a with cleared_epoch = Some epoch } :: older;
          cleared := name :: !cleared;
          San_obs.Obs.emit (San_obs.Trace.Alert_cleared { name; epoch })
        | None -> ()
      end)
    t.slos;
  (List.rev !raised, List.rev !cleared)

let status t =
  List.map
    (fun tr ->
      let eligible, bad, burn = burn_of tr in
      {
        st_objective = tr.o;
        st_eligible = eligible;
        st_bad = bad;
        st_burn_rate = burn;
        st_streak = tr.streak;
        st_alerting = active tr <> None;
        st_alerts = List.rev tr.ledger;
      })
    t.slos

let pp_status ppf st =
  Format.fprintf ppf "%-24s burn %5.2f (%d/%d bad)%s"
    (to_string st.st_objective) st.st_burn_rate st.st_bad st.st_eligible
    (if st.st_alerting then "  ALERTING" else "")
