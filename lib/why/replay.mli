(** Rebuild the model's final shape from the ledger alone.

    {!San_mapper.Model} is consumed by the mapper run; what survives is
    the exported map plus the ledger. Replaying the recorded merges
    reconstructs exactly the union-find (with frame shifts) the model
    ended with, so final-map facts — a switch named ["m3"], a link at
    port 4 — resolve back to ledger entries without the live model. *)

type t

val build : Why.snapshot -> t

val find : t -> int -> int * int
(** [(canonical, shift)]: original vid frame + shift = canonical frame,
    exactly {!San_mapper.Model.frame_shift}. *)

val members : t -> int -> int list
(** Every recorded vid whose class representative is the given
    canonical vid (including itself), ascending. *)

val live : t -> int -> bool
(** False for classes deleted by pruning or root retraction. *)

type edge_view = {
  ev_eid : int;
  ev_a : int;  (** canonical vid *)
  ev_pa : int;  (** map port: canonical slot minus the class base *)
  ev_b : int;
  ev_pb : int;
  ev_did : int;
}

val live_edges : t -> edge_view list


val edge_at : t -> a:int -> pa:int -> b:int -> pb:int -> edge_view option
(** The live edge joining map ports [(mA, pa)] and [(mB, pb)], in
    either orientation. *)

val vid_of_map_switch : string -> int option
(** Parse a map switch name ["m<vid>"] back to its canonical vid. *)
