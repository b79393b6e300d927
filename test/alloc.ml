(* Allocation pins count words through this module alone.

   [Gc.quick_stat]'s counters are brought up to date only when the
   collector runs: the minor words at a minor collection, the major
   words (blocks promoted or allocated straight into the major heap) at
   a major slice, so words allocated long before can surface in a later
   window. Every reading therefore runs a minor collection and a major
   slice first. It then counts minor + major - promoted words: a block
   over 256 words goes straight to the major heap and shows only in the
   major words, and a promoted block is counted once. A reading
   allocates a few words of its own (the stat record and its floats);
   that constant is measured at start-up and taken off every reading,
   so code that allocates nothing reads 0. *)

let raw () =
  Gc.minor ();
  ignore (Gc.major_slice 0 : int);
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let overhead = ref 0.0
let readings = ref 0

(* Words allocated since start-up, less what the readings took. *)
let counter () =
  let w = raw () -. (float_of_int !readings *. !overhead) in
  incr readings;
  w

let () =
  let a = counter () in
  overhead := counter () -. a

(* Words [f ()] allocates. *)
let words f =
  let w0 = counter () in
  ignore (Sys.opaque_identity (f ()));
  counter () -. w0
