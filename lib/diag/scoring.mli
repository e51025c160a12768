(** Whole-multiplet scoring by true multiple-fault simulation.

    Per-candidate analysis cannot see interactions: two stuck lines can
    mask each other's errors or create failures neither produces alone.
    A multiplet is therefore judged by simulating all of its members
    *simultaneously* (overlay simulation) and comparing the predicted
    responses against the datalog, observation by observation. *)

type score = {
  explained : int;  (** Observed failing (pattern, PO) pairs reproduced. *)
  missed : int;  (** Observed failing pairs the multiplet does not produce. *)
  spurious_fail : int;  (** Predicted-failing pairs on failing patterns
                            that were observed passing. *)
  spurious_pass : int;  (** Predicted-failing pairs on patterns that
                            passed entirely. *)
}

val total_observations : score -> int
(** [explained + missed]: the datalog's failing-pair count. *)

val penalty : score -> int
(** [missed * 10 + spurious_fail * 2 + spurious_pass]: the hill-climbing
    objective.  Missing an observed failure is much worse than predicting
    an extra one — real defects include behaviours, like intermittents
    and condition-gated opens, that stuck-at multiplets necessarily
    over-predict. *)

val perfect : score -> bool
(** No misses and no spurious predictions. *)

val compare_score : score -> score -> int
(** Ascending in {!penalty}, ties broken by fewer spurious then more
    explained. *)

val evaluate :
  ?domains:int ->
  ?goods:Logic_sim.net_values array ->
  Netlist.t ->
  Pattern.t ->
  Datalog.t ->
  Logic_sim.override list ->
  score
(** Simulate the overlay over the whole set and score it, one pattern
    block at a time across [domains] OCaml domains ({!Parallel}'s
    default when omitted); the score is identical for every domain
    count.  [goods] supplies the precomputed good-machine words of
    every block (in [Pattern.blocks] order — session-threaded callers
    pass [Session.goods]); omitted, they are resimulated here. *)

val overlay_of_multiplet : Fault_list.fault list -> Logic_sim.override list
(** A site appearing with one polarity becomes a stuck override; a site
    appearing with {e both} polarities is a byzantine hypothesis (open /
    intermittent / bridge victim) and becomes a value {e flip} — two
    contradictory stuck overrides on one net would otherwise shadow each
    other and the multiplet could never explain both directions. *)

val evaluate_multiplet :
  ?goods:Logic_sim.net_values array ->
  Netlist.t ->
  Pattern.t ->
  Datalog.t ->
  Fault_list.fault list ->
  score
(** [evaluate] of {!overlay_of_multiplet}, computed by one PPSFP
    delta-propagation sweep ({!Fault_sim.batch_multiplet_diffs}) instead
    of a full overlay resimulation — identical score by construction
    (the kernel oracle checks it against [evaluate]). *)

val pp : Format.formatter -> score -> unit
