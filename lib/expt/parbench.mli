(** Parallel-scaling benchmark of the diagnosis kernels.

    Times [Explain.build] and the end-to-end [Noassume.diagnose] on one
    fixed multi-defect problem at several domain counts on the
    {!Arms} runner, and reports wall-clock medians plus speedups versus
    one domain.  The bench executable runs this on the [rnd1k] suite
    circuit at 1/2/4/8 domains and writes [BENCH_parallel.json]; the
    test suite runs a tiny [c17] configuration as a smoke test of the
    domain pool. *)

type sample = {
  kernel : string;  (** ["explain-build"] or ["diagnose"]. *)
  domains : int;
  runs : int;  (** Timed runs behind the median (after one warm-up). *)
  median_ns : float;  (** Median wall-clock nanoseconds per run. *)
  speedup_vs_1 : float;  (** [median at 1 domain / median at this count]. *)
  stats : Run_report.t option;
      (** Counters of one extra untimed, instrumented run of the same
          kernel (see [Obs]); [None] when [run] was told not to capture. *)
}

type report = { circuit : string; repeats : int; samples : sample list }

val run :
  ?circuit:string ->
  ?kernels:string list ->
  ?domain_counts:int list ->
  ?repeats:int ->
  ?multiplicity:int ->
  ?seed:int ->
  ?with_stats:bool ->
  unit ->
  report
(** Defaults: [rnd1k], kernels ["explain-build"] and ["diagnose"],
    domain counts [1; 2; 4; 8], 5 repeats, 3 injected defects, seed 99,
    stats capture on.  Every (kernel, domain count) point is one arm;
    every run builds a fresh session without a signature arena, so each
    one simulates the whole candidate pool.  Stats capture resets the
    global [Obs] registry.  Raises [Invalid_argument] on an unknown
    circuit or kernel name. *)

val campaign_arena_probes :
  ?circuit:string ->
  ?trials:int ->
  ?multiplicity:int ->
  ?seed:int ->
  unit ->
  int * int
(** [(frozen_hits, misses)] of one campaign cell run sequentially
    ([domains:1]) on its prewarmed session.  Misses must be zero: every
    signature a trial needs is in the arena.  Deterministic for a fixed
    seed; used by the bench regression gate.  Temporarily enables the
    [Obs] registry, resetting it before returning.  Defaults: [rnd1k],
    4 trials, multiplicity 3, seed 99. *)

val to_table : report -> Table.t

val to_json : report -> Obs_json.t
(** Stable shape: [{"circuit", "repeats", "samples": [{"kernel",
    "domains", "runs", "median_ns", "speedup_vs_1", "stats"}]}], where
    ["stats"] is the sample's embedded run report without timing fields
    (see [Run_report.to_obs_json]) — everything in the file except
    [median_ns]/[speedup_vs_1] is deterministic for the fixed seed. *)
