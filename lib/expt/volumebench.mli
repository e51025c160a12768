(** Volume-throughput bench: diagnoses/second of {!Volume.run} at
    several worker counts against one prewarmed session (the shape of
    [diagnose --batch-dir]).  Worker counts are interleaved run by run
    and speedups divide best (minimum) drain times, the same noise
    defenses as {!Batchbench}.  One untimed pass also counts what the
    drain simulated, which must be nothing. *)

type sample = {
  workers : int;
  runs : int;
  median_ms : float;  (** Full-queue drain, median of runs. *)
  best_ms : float;  (** Minimum of the timed runs. *)
  dps : float;  (** Diagnoses per second at the best drain. *)
  speedup_vs_1 : float;  (** [best_ms] at 1 worker over [best_ms] here. *)
}

type report = {
  circuit : string;
  dies : int;
  repeats : int;
  prewarm_ms : float;
      (** One-time session build with the whole-pool arena — amortises
          over the die count (the rnd50k cold-start number). *)
  misses : int;
      (** ["cache.misses"] summed over the per-die run reports of one
          drain: signatures a die simulated because the arena lacked
          them.  Zero unless the sweep stopped covering some key. *)
  explain_simulated : int;
      (** ["sim.faults_simulated"] of a bare {!Explain.build_session}
          per die, summed: zero when every matrix row replays from the
          arena. *)
  samples : sample list;
  skipped_workers : int list;
      (** Requested arms with more workers than
          [Domain.recommended_domain_count ()] — oversubscription can
          only regress, so they are recorded here (and in the JSON)
          instead of timed. *)
}

val run :
  ?circuit:string ->
  ?worker_counts:int list ->
  ?repeats:int ->
  ?dies:int ->
  ?patterns:int ->
  ?multiplicity:int ->
  ?seed:int ->
  unit ->
  report
(** Defaults: rnd2k, workers 1/2/4, 3 runs/point, 8 dies of
    multiplicity 3, 4 blocks of seeded-random patterns, seed 99.
    Worker counts above the available cores are not timed — they land
    in [skipped_workers]. *)

val best_speedup : report -> float
(** Best [speedup_vs_1] over the {e timed} multi-worker arms — what the
    regression gate floors ([min_volume_throughput]); [0.0] when every
    multi-worker arm was skipped (single-core host), which the gate
    treats as "no signal", not a regression. *)

val to_table : report -> Table.t
val json_of_report : report -> string
val write_json : path:string -> report -> unit
