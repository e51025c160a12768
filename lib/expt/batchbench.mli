(** A/B benchmark of the PPSFP batched fault-simulation pass.

    Times the explanation matrix built by {!Explain.build_session} (the
    batch pass) against the per-fault reference {!Explain_ref.build}
    across netlist tiers, producing a fig1-style ms-per-matrix curve
    over gate count for each mode.  The bench executable's [batch]
    group runs this over the tier list selected by MDD_BENCH_TIER and
    writes [BENCH_batch.json]; the regression gate floors the rnd2k
    speedup.

    Patterns are seeded-random rather than deterministic ATPG (the
    large tiers measure the simulation kernel, and test generation at
    10k+ gates costs more than every timed run together), and the
    session holds no signature arena, so the two modes compare kernels,
    not replays.  The two modes are the two arms of one {!Arms.run}.
    Raises [Failure] if the two matrices ever differ. *)

type mode = Batched | Per_fault

val mode_name : mode -> string
(** ["batched"] / ["per-fault"], as written to the JSON. *)

type sample = {
  tier : string;
  gates : int;  (** Net count of the tier circuit (PIs + gates). *)
  patterns : int;
  mode : mode;
  explain_ms : float;  (** Median wall-clock of one matrix build at 1 domain. *)
  explain_best_ms : float;  (** Minimum over the timed runs. *)
}

type report = { repeats : int; samples : sample list }

val run :
  ?circuits:string list ->
  ?repeats:int ->
  ?patterns:int ->
  ?multiplicity:int ->
  ?seed:int ->
  unit ->
  report
(** Runs both modes over each named circuit ({!Arms.find_circuit}).
    Defaults: [rnd1k] and [rnd2k],
    5 repeats per mode, 504 random patterns (8 full 63-bit blocks — a
    partial last block wastes batch-slab width), 3 injected defects,
    seed 99.  Raises [Invalid_argument] on an unknown name. *)

val find_sample : report -> tier:string -> mode:mode -> sample option

val speedups : report -> (string * float) list
(** Per tier: [(name, speedup)], the ratio of per-fault to batched
    {e best} (minimum) times —
    scheduling noise on a shared host only ever adds time, so minima
    estimate true kernel cost far more stably than medians, and the
    regression gate floors this ratio. *)

val to_table : report -> Table.t

val to_json : report -> Obs_json.t
(** Stable shape: [{"repeats", "samples": [{"tier", "gates", "patterns",
    "mode", "explain_ms", "explain_best_ms"}], "speedups": [{"tier",
    "explain_speedup"}]}]. *)
