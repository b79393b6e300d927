(* A mergeable streaming quantile digest, and the binning behind every
   Metrics histogram.

   Buckets sit at gamma^i boundaries with gamma = 2^(1/8) (~9% relative
   resolution, the scheme DDSketch/HDR use); non-positive values land
   in a dedicated zero bucket. Bucket counts add, so merging the
   digests of two streams gives exactly the digest of their
   concatenation (min/max and sum are exact too; only the within-bucket
   position of individual observations is forgotten, which is the same
   ~9% relative error a single digest already has). This is what lets
   per-shard percentiles roll up into fleet percentiles without
   shipping raw samples. *)

let gamma = Float.pow 2.0 0.125
let log_gamma = Float.log gamma

type t = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  mutable zero : int;
  buckets : (int, int) Hashtbl.t;
}

let create () =
  {
    count = 0;
    sum = 0.0;
    vmin = infinity;
    vmax = neg_infinity;
    zero = 0;
    buckets = Hashtbl.create 32;
  }

let bucket_of v = int_of_float (Float.floor (Float.log v /. log_gamma))

let add t v =
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  if v <= 0.0 then t.zero <- t.zero + 1
  else
    let b = bucket_of v in
    Hashtbl.replace t.buckets b
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.buckets b))

let of_list vs =
  let t = create () in
  List.iter (add t) vs;
  t

let clear t =
  t.count <- 0;
  t.sum <- 0.0;
  t.vmin <- infinity;
  t.vmax <- neg_infinity;
  t.zero <- 0;
  Hashtbl.reset t.buckets

let copy t = { t with buckets = Hashtbl.copy t.buckets }

let count t = t.count
let sum t = t.sum
let is_empty t = t.count = 0
let zero_count t = t.zero

let add_bucket t b n =
  if n > 0 then
    Hashtbl.replace t.buckets b
      (n + Option.value ~default:0 (Hashtbl.find_opt t.buckets b))

(* Accumulate [src] into [dst]. Exact: counts add bucket-wise. *)
let merge_into ~dst src =
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum +. src.sum;
  if src.vmin < dst.vmin then dst.vmin <- src.vmin;
  if src.vmax > dst.vmax then dst.vmax <- src.vmax;
  dst.zero <- dst.zero + src.zero;
  Hashtbl.iter (fun b n -> add_bucket dst b n) src.buckets

let merge a b =
  let t = create () in
  merge_into ~dst:t a;
  merge_into ~dst:t b;
  t

let merge_all ds =
  let t = create () in
  List.iter (fun d -> merge_into ~dst:t d) ds;
  t

let buckets t =
  Hashtbl.fold (fun b n acc -> (b, n) :: acc) t.buckets []
  |> List.sort compare

let bucket t b = Option.value ~default:0 (Hashtbl.find_opt t.buckets b)

(* Activity between two readings of one growing digest. A restart (a
   [clear] in between) shows as any count going backwards — the total,
   the zero bucket or a single bucket — and then [after] IS the
   window: subtracting would report negative counts against a bucket
   table holding only the post-restart bins. *)
let diff ~before ~after =
  let restarted =
    after.count < before.count
    || after.zero < before.zero
    || Hashtbl.fold (fun b n0 acc -> acc || bucket after b < n0) before.buckets
         false
  in
  if restarted then copy after
  else begin
    let t = create () in
    t.count <- after.count - before.count;
    t.sum <- after.sum -. before.sum;
    (* a window without observations has no extremes *)
    if t.count > 0 then begin
      t.vmin <- after.vmin;
      t.vmax <- after.vmax
    end;
    t.zero <- after.zero - before.zero;
    Hashtbl.iter
      (fun b n -> add_bucket t b (n - bucket before b))
      after.buckets;
    t
  end

(* Rank walk over the zero bucket then the sorted log buckets; a
   bucket answers with its geometric midpoint, clamped to the observed
   extremes. *)
let quantile t q =
  if t.count = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
    if rank <= t.zero then 0.0
    else begin
      let rec walk seen = function
        | [] -> t.vmax
        | (b, n) :: rest ->
          let seen = seen + n in
          if seen >= rank then Float.pow gamma (float_of_int b +. 0.5)
          else walk seen rest
      in
      let v = walk t.zero (buckets t) in
      Float.min t.vmax (Float.max t.vmin v)
    end
  end

(* The guaranteed accuracy of [quantile]: a positive observation in
   bucket b lies in (gamma^b, gamma^(b+1)]; the midpoint gamma^(b+0.5)
   is within a factor sqrt(gamma) of any point of the bucket. *)
let relative_error = Float.sqrt gamma -. 1.0

let min t = t.vmin
let max t = t.vmax

let to_json t =
  let module J = San_util.Json in
  J.Obj
    [
      ("count", J.int t.count);
      ("sum", J.Num t.sum);
      ("min", J.Num (if t.count = 0 then 0.0 else t.vmin));
      ("max", J.Num (if t.count = 0 then 0.0 else t.vmax));
      ("zero", J.int t.zero);
      ( "buckets",
        J.Arr
          (List.map
             (fun (b, n) -> J.Arr [ J.int b; J.int n ])
             (buckets t)) );
      ("p50", J.Num (quantile t 0.50));
      ("p95", J.Num (quantile t 0.95));
      ("p99", J.Num (quantile t 0.99));
    ]

let of_json j =
  let module J = San_util.Json in
  let int k = Option.bind (J.member k j) J.to_int in
  let num k = match J.member k j with Some (J.Num f) -> Some f | _ -> None in
  match (int "count", num "sum", num "min", num "max", int "zero") with
  | Some count, Some sum, Some vmin, Some vmax, Some zero ->
    let t = create () in
    t.count <- count;
    t.sum <- sum;
    if count > 0 then begin
      t.vmin <- vmin;
      t.vmax <- vmax
    end;
    t.zero <- zero;
    let buckets =
      match J.member "buckets" j with
      | Some (J.Arr bs) ->
        List.for_all
          (function
            | J.Arr [ b; n ] -> (
              match (J.to_int b, J.to_int n) with
              | Some b, Some n ->
                add_bucket t b n;
                true
              | _ -> false)
            | _ -> false)
          bs
      | _ -> false
    in
    if buckets then Some t else None
  | _ -> None
