(** Per-fault reference for the explanation matrix.

    The same per-candidate accumulators {!Explain} builds — covered
    observations, matched and spurious flips per failing pattern,
    passing-pattern mispredictions — computed the pre-PPSFP way: one
    scalar event-driven cone walk per (fault, block) through
    {!Fault_sim.iter_po_diffs}, no batch slabs, no arena.  It exists to
    show the production path is exact and how much faster it is:
    [bench batch] times it against {!Explain.build_session} (regression
    gate 4) and the kernel oracle checks every matrix against it. *)

type t

val build : Session.t -> Datalog.t -> Fault_list.fault array -> t
(** Rows for the given candidates (normally {!Explain.candidates} of a
    build on the same session).  Under the session's [config.prune],
    one representative per equivalence class is simulated and its row
    shared, as {!Explain} does. *)

val agrees : Explain.t -> t -> bool
(** Every candidate of the matrix answers {!Explain.covers},
    {!Explain.matched}, {!Explain.spurious} and
    {!Explain.mispredict_pass} exactly as the reference does.  The
    reference must have been built from the matrix's candidates. *)
