(** Greedy counterexample minimization.

    Given a failing case and the predicate "does the property still
    fail", repeatedly drop switches, hosts and wires (and wake silent
    hosts) while the failure persists. Port numbers, radix and names
    are preserved, so the shrunk fabric is a true subfabric of the
    generated one and port-arithmetic bugs survive the shrink. *)

val shrink :
  fails:(Fuzz_gen.case -> bool) ->
  budget:int ->
  Fuzz_gen.case ->
  Fuzz_gen.case * int
(** [shrink ~fails ~budget case] greedily minimizes [case]; returns
    the local minimum and the number of predicate evaluations spent.
    [case] itself is assumed to fail. *)
