(* In-memory span recorder for the traced run.

   Spans are opened only from the benchmark's own files, around calls
   into each layer's public functions; nothing inside lib/ is
   instrumented. A span's self time is its duration minus its child
   spans and minus any time [charge]d to it: per-call work too fine to
   give each call a span (one span per probe would cost more than the
   probe) is timed by the caller, summed, and charged as one aggregate
   child layer. Spans stay in memory until [to_chrome] writes them. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  start : float;  (** Unix.gettimeofday seconds *)
  mutable stop : float;
  mutable charged : (string * float) list;  (** aggregate child layers *)
}

let finished : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0

let reset () =
  finished := [];
  stack := [];
  next_id := 0

let with_ name f =
  let parent = match !stack with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = !next_id; parent; name; start = Unix.gettimeofday (); stop = 0.0;
      charged = [] }
  in
  incr next_id;
  stack := s :: !stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- Unix.gettimeofday ();
      stack := List.tl !stack;
      finished := s :: !finished)
    f

let charge layer seconds =
  match !stack with
  | [] -> invalid_arg "Span.charge: no open span"
  | s :: _ -> s.charged <- (layer, seconds) :: s.charged

let spans () = List.rev !finished
let dur s = s.stop -. s.start

(* Summed duration of the roots: the traced wall. *)
let wall () =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. dur s else acc)
    0.0 !finished

(* Self seconds per layer name, roots excluded: a root's self time is
   the benchmark's own glue between layer calls, which is exactly what
   the layer sum must leave out. *)
let self_times () =
  let all = spans () in
  let child_time = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    all;
  let acc = Hashtbl.create 16 in
  let add name x =
    Hashtbl.replace acc name (x +. Option.value ~default:0.0 (Hashtbl.find_opt acc name))
  in
  List.iter
    (fun s ->
      let charged = List.fold_left (fun a (_, x) -> a +. x) 0.0 s.charged in
      List.iter (fun (layer, x) -> add layer x) s.charged;
      if s.parent >= 0 then
        add s.name
          (dur s -. charged
          -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)))
    all;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let self_of layer =
  Option.value ~default:0.0 (List.assoc_opt layer (self_times ()))

(* Chrome / Perfetto trace-event JSON: one complete ("X") event per
   span, timestamps in microseconds from the first span, charged
   aggregates as args. *)
let to_chrome () =
  let module J = San_util.Json in
  let all = spans () in
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity all in
  let us x = J.Num (Float.round (x *. 1e6)) in
  J.Obj
    [
      ( "traceEvents",
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.Str s.name);
                   ("ph", J.Str "X");
                   ("ts", us (s.start -. t0));
                   ("dur", us (dur s));
                   ("pid", J.int 1);
                   ("tid", J.int 1);
                   ( "args",
                     J.Obj
                       (("id", J.int s.id) :: ("parent", J.int s.parent)
                       :: List.map (fun (l, x) -> (l ^ "_s", J.Num x)) s.charged) );
                 ])
             all) );
      ("displayTimeUnit", J.Str "ms");
    ]
