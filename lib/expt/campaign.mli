(** Injection campaigns: the controlled experiments every table is built
    from.

    One {e trial} = draw [multiplicity] defects, simulate the faulty
    machine over the circuit's test set, hand the datalog to the
    diagnosis methods under test, and score each against the ground
    truth.  Trials whose defect combination produces no failing pattern
    are redrawn (a tester would never send a passing part to diagnosis);
    the redraw count is reported. *)

type methods = {
  run_noassume : bool;
  run_slat : bool;
  run_single : bool;
}

val all_methods : methods
val only_noassume : methods
val classification_only : methods
(** No diagnosis at all — for Table 2, which only needs the SLAT
    fraction. *)

type outcome = {
  defects : Defect.t list;
  num_failing : int;  (** Failing patterns in the datalog. *)
  slat_fraction : float;  (** Fraction of failing patterns that are SLAT. *)
  noassume : Metrics.quality option;
  slat : Metrics.quality option;
  single : Metrics.quality option;
}

type t = {
  circuit : string;
  outcomes : outcome list;
  redraws : int;  (** Defect draws discarded for producing no failures. *)
}

val backtrack_limit : int
(** 128: the PODEM backtrack limit of {!test_report}, and the default
    of [atpg_tool], so every tool generates the same test set. *)

val test_report : Netlist.t -> Tpg.report
(** The campaign ATPG run for a circuit (canonical seed, bounded PODEM
    backtracking).  Memoised per netlist — Table 1, the campaigns and the
    runtime figure all share one run per circuit. *)

val test_set : Netlist.t -> Pattern.t
(** [(test_report net).patterns]. *)

val run :
  ?methods:methods ->
  ?config:Noassume.config ->
  ?cover:Session.cover ->
  ?mix:Injection.kind_mix ->
  ?patterns:Pattern.t ->
  ?layout:Layout.t * float ->
  ?domains:int ->
  name:string ->
  Netlist.t ->
  multiplicity:int ->
  trials:int ->
  seed:int ->
  t
(** Run [trials] trials.  [patterns] overrides {!test_set} (used by the
    test-set-size sweep); [cover] selects the covering backend for the
    campaign's shared, prewarmed session (default [Greedy]); [layout] constrains
    injected bridges/opens to physically adjacent nets (the layout
    ablation — pass the same placement in [config.layout] to let
    diagnosis use it too).

    Trials are independent and run across [domains] OCaml domains
    ({!Parallel}'s default when omitted).  Per-trial defect draws come
    from generators split in trial order before any trial starts, so the
    outcome list is identical for every domain count; when several
    trials are in flight each trial's own simulation kernels run on one
    domain. *)

val mean_slat_fraction : t -> float

val qualities : t -> (outcome -> Metrics.quality option) -> Metrics.quality list
