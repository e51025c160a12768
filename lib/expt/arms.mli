(** The parts every bench harness shares: problem set-up, the arm
    runner and the JSON writer.

    Timing policy, the same for every harness: one untimed warm-up call
    per arm, then [repeats] rounds that call every arm once, in order.
    Each timed call starts after [Gc.full_major] and is measured in
    wall-clock milliseconds ([Unix.gettimeofday], not [Sys.time], which
    sums CPU seconds across domains).  Callers take {!Stats.median} or
    {!Stats.minimum} of an arm's samples; scheduling noise only ever
    adds time, so ratios of minima are the stablest statistic. *)

val now_ms : unit -> float

val find_circuit : string -> Netlist.t
(** {!Generators.find}: the suite, then the tiers.  Raises
    [Invalid_argument "unknown circuit or tier NAME"]. *)

val draw_failing :
  Rng.t ->
  Netlist.t ->
  Pattern.t ->
  expected:Bitvec.t array ->
  multiplicity:int ->
  (Defect.t list * Datalog.t) option
(** Draw [multiplicity] random defects ({!Injection.default_mix}) until
    their datalog fails at least one pattern: [None] after 50 draws that
    fail nothing.  [expected] is the good machine's responses. *)

val problem :
  patterns:[ `Test_set | `Random of int ] ->
  multiplicity:int ->
  dies:int ->
  seed:int ->
  string ->
  Netlist.t * Pattern.t * Datalog.t list
(** [problem ~patterns ~multiplicity ~dies ~seed circuit]: the circuit,
    its patterns ({!Campaign.test_set}, or [count] random patterns drawn
    from the seeded RNG) and [dies] failing datalogs of [multiplicity]
    random defects each, drawn in order from the same RNG by
    {!draw_failing}; [Failure] when a die finds no failing draw.
    Deterministic for fixed arguments. *)

type arm = unit -> unit -> unit
(** [arm ()] does the untimed set-up of one call and returns the call to
    time. *)

val call : (unit -> 'a) -> arm
(** An arm without set-up: each call runs [f ()]. *)

val run : repeats:int -> arm list -> float list list
(** The timing policy above; one list of [repeats] wall-clock ms per
    arm, in arm order. *)

val int : int -> Obs_json.t

val write_json : string -> Obs_json.t -> unit
(** [write_json path json]: an object is written one member per line,
    and a member that lists objects one object per line. *)
