(** Greedy-vs-exact covering differential over seeded failing datalogs
    — the measurement behind the EXPERIMENTS.md resolution table and
    the [min_exact_agreement] regression gate.

    Each circuit's trial stream is diagnosed by both backends
    (validation off, so the multiplet {e is} the cover) and the sizes
    compared trial by trial.  By construction the exact backend can
    never return a larger cover than greedy (the greedy result seeds
    its upper bound) — [larger] > 0 in any row is a soundness bug and
    the gate dies on it. *)

type row = {
  circuit : string;
  trials : int;
  greedy_mean : float;  (** Mean cover size, greedy backend. *)
  exact_mean : float;  (** Mean cover size, exact backend. *)
  agree : int;  (** Trials with equal cover sizes. *)
  improved : int;  (** Trials where exact found a strictly smaller cover. *)
  larger : int;  (** Exact larger than greedy — impossible by design. *)
  proved : int;  (** Trials with a minimality certificate. *)
  fallbacks : int;  (** Budget exhaustions (fell back to greedy). *)
  greedy_ms : float;
      (** Wall clock over all trials, greedy backend: the one timed
          {!Arms} round, session build excluded. *)
  exact_ms : float;  (** The same for the exact backend. *)
}

type report = {
  trials : int;
  multiplicity : int;
  seed : int;
  node_budget : int;
  rows : row list;
}

val run :
  ?circuits:string list ->
  ?trials:int ->
  ?multiplicity:int ->
  ?seed:int ->
  ?node_budget:int ->
  unit ->
  report
(** Defaults: rnd1k and rnd2k, 12 trials of multiplicity 3, seed 77,
    {!Session.default_cover_budget} nodes.  Circuit names resolve
    through {!Arms.find_circuit} (so vendored [.bench] circuits
    work).  Deterministic for fixed parameters (wall-clock columns
    aside). *)

val agreement : report -> float
(** Fraction of trials (all rows pooled) where greedy already matched
    the exact backend's cover size — what [min_exact_agreement]
    floors. *)

val any_larger : report -> bool
(** True when any trial had an exact cover larger than greedy's —
    a soundness violation the gate reports as a hard failure. *)

val to_table : report -> Table.t
val to_json : report -> Obs_json.t
(** Stable shape: [{"trials", "multiplicity", "seed", "node_budget",
    "agreement", "rows": [{"circuit", "trials", "greedy_mean",
    "exact_mean", "agree", "improved", "larger", "proved", "fallbacks",
    "greedy_ms", "exact_ms"}]}]. *)
