(** Persistent-store bench: time-to-first-report of one die in a fresh
    process, three arms per circuit — {e cold} (the first diagnosis on
    a session without an arena simulates the candidate pool),
    {e prewarm} (a session that sweeps the whole pool into its arena,
    then the first diagnose), and {e load} ({!Sig_cache.load_frozen}
    snapshot adoption, then the first diagnose on that arena).  The
    goods and PO reach every session builds are outside the cold and
    load timings.  The five timed sections are {!Arms} arms, and the
    headline ratio divides best (minimum) times.  Also pins the footprint story: packed arena bytes
    vs a boxed representation, the snapshot file size, and whether the
    full-pool arena fits a 64 MB ceiling. *)

type sample = {
  circuit : string;
  runs : int;
  faults : int;  (** Prewarm pool size (class representatives). *)
  cold_ms : float;  (** Best first diagnose, no arena. *)
  prewarm_ms : float;  (** Best session build with the whole-pool sweep. *)
  prewarm_first_ms : float;  (** Best first-diagnose after the sweep. *)
  load_ms : float;  (** Best snapshot read + validate. *)
  load_first_ms : float;  (** Best first-diagnose after the load. *)
  load_speedup : float;
      (** [cold_ms / (load_ms + load_first_ms)] — what a process restart
          saves by loading instead of simulating. *)
  arena_bytes : int;  (** Packed arena, resident. *)
  boxed_bytes : int;  (** Same entries in a boxed shape. *)
  file_bytes : int;  (** Snapshot on disk. *)
  budget_bytes : int;  (** The 64 MB ceiling the arena must fit. *)
  fits_budget : bool;  (** [arena_bytes <= budget_bytes]. *)
}

type report = { repeats : int; samples : sample list }

val run :
  ?circuits:string list ->
  ?store_dir:string ->
  ?repeats:int ->
  ?patterns:int ->
  ?multiplicity:int ->
  ?seed:int ->
  unit ->
  report
(** Defaults: rnd2k only, a per-process temp store directory (removed
    before returning), 3
    runs/arm, 4 blocks of seeded-random patterns, one multiplicity-1
    die, seed 77. *)

val min_load_speedup : report -> float
(** Worst [load_speedup] across circuits — what regression gate 8
    floors ([min_store_speedup]). *)

val to_table : report -> Table.t
val to_json : report -> Obs_json.t
(** Stable shape: [{"repeats", "min_load_speedup", "samples":
    [{"circuit", "runs", "faults", "cold_ms", "prewarm_ms",
    "prewarm_first_ms", "load_ms", "load_first_ms", "load_speedup",
    "arena_bytes", "boxed_bytes", "file_bytes", "budget_bytes",
    "fits_budget"}]}]. *)
