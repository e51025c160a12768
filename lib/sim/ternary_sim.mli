(** Three-valued (0/1/X) simulation.

    A whole-netlist pass per call over [Gate.eval_v3].  Forcing X on a
    candidate site and checking which outputs turn X ({!x_reach}) bounds
    where that site could possibly propagate — a standard
    over-approximation of error propagation.  PODEM does not use this
    module: its implication is event-driven over the CSR views
    ([Podem]).  The test suite's full-resimulation PODEM oracle runs on
    it. *)

val simulate : Netlist.t -> Logic.v3 array -> Logic.v3 array
(** [simulate t pi_values] evaluates the circuit with the given PI
    assignment (indexed by PI position, X allowed); returns per-net
    values. *)

val simulate_forced :
  Netlist.t -> Logic.v3 array -> (Netlist.net * Logic.v3) list -> Logic.v3 array
(** Like {!simulate} but the listed nets take the forced value instead of
    their computed one. *)

val x_reach : Netlist.t -> bool array -> Netlist.net -> int list
(** [x_reach t pattern site]: PO positions whose value becomes X when
    [site] is forced to X under the fully specified [pattern] (a PI
    vector).  These are the outputs the site can possibly corrupt on this
    pattern; the true error-propagation set is a subset. *)
