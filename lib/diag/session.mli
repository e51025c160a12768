(** One warm engine context per (netlist, pattern set) problem.

    A session bundles everything a diagnosis needs beyond the datalog:
    the netlist and its CSR views, the test set, the good-machine words
    of every pattern block, the PO-reachability screen, the optional
    signature arena, an optional per-session {!Obs.sink}, and the
    resolved configuration record.  Every phase — {!Explain},
    {!Scoring}, {!Noassume}, {!Single_diag}, {!Dict_diag},
    {!Slat_diag} — reads its prune/domains choices from the session
    instead of process-global switches, so two concurrent diagnoses can
    run under different configurations without touching shared mutable
    state.

    Sharing contract (DESIGN.md §11): a [t] never changes after
    {!create} and is safe to share across domains.  Per-diagnosis
    scratch (fault simulators, batch slabs) is never stored here — each
    call allocates its own.  The volume service creates one session and
    drains thousands of datalogs against it, one diagnosis per
    domain. *)

(** Covering backend for {!Noassume}: the paper's greedy cover, or the
    exact minimum-cardinality cover via the implicit hitting-set loop
    ({!Hitting_set}, DESIGN.md §13).  [Exact] seeds with the greedy
    result as an upper bound and falls back to it (with a warning
    counter) when [cover_budget] is exhausted, so it never produces a
    worse multiplet than [Greedy]. *)
type cover = Greedy | Exact

val default_cover_budget : int
(** Node budget for the whole hitting-set loop (all branch-and-bound
    sub-solves summed); 2,000,000. *)

type config = {
  prune : bool;
      (** Exactness-preserving candidate prunes in {!Explain.build}. *)
  domains : int option;
      (** Kernel fan-out inside one diagnosis; [None] uses
          {!Parallel.default_domains}.  Results are identical for every
          value. *)
  prewarm : bool;
      (** Build the signature arena ({!Sig_cache}) as part of
          {!create}: one whole-pool sweep, or a snapshot load from
          [store_dir].  Without it the session holds no arena and every
          phase simulates what it needs. *)
  cover : cover;  (** Covering backend for {!Noassume} diagnoses. *)
  cover_budget : int;
      (** Node budget for the exact backend's hitting-set loop;
          ignored under [Greedy]. *)
  store_dir : string option;
      (** Signature-snapshot directory ([--store-dir]/[MDD_SIG_STORE]).
          With [prewarm], {!create} first tries
          {!Sig_cache.load_frozen} from here — a valid snapshot replaces
          the whole sweep with one file read — and saves the arena back
          ({!Sig_cache.save_frozen}) after a live sweep, so the fleet
          pays the sweep once per (netlist, pattern set).  Ignored
          without [prewarm]. *)
}

val default_config : config
(** [prune] on, [prewarm] off, [domains = None], [cover = Greedy],
    [cover_budget = default_cover_budget], [store_dir = None].  No
    environment switch is read here — the CLI layer resolves them once
    into a config record ([Cli_common.session_config]), including
    [MDD_PREWARM], [MDD_COVER], [MDD_COVER_BUDGET] and
    [MDD_SIG_STORE]. *)

type t

val create : ?config:config -> ?sink:Obs.sink -> Netlist.t -> Pattern.t -> t
(** Build the context: the goods and the PO-reachability screen, and —
    when [config.prewarm] — the signature arena (under the session's
    sink if any).  The fault pool is the class representatives when
    [config.prune], the full fault universe otherwise.  With
    [config.store_dir] the arena is first loaded from a snapshot
    ({!Sig_cache.load_frozen}, zero simulation) that must hold the
    whole pool — one swept by a pruned session is rejected by an
    unpruned one; otherwise one fork-join PPSFP sweep simulates the
    pool, counted as ["prewarm.faults"] under the ["prewarm"] phase,
    and the arena is saved back to [store_dir] for the next process.  A save that fails bumps ["store.save_failures"] and sets
    {!save_failed}; it never fails the call.  Reports are byte-identical
    with and without an arena, loaded or swept, for every domain
    count. *)

val netlist : t -> Netlist.t
val patterns : t -> Pattern.t

val blocks : t -> Pattern.block array
(** The pattern blocks, in [Pattern.blocks] order. *)

val goods : t -> Logic_sim.net_values array
(** Good-machine words of every block.  Shared read-only. *)

val reach : t -> Po_reach.t
(** Per-net reachable-PO screen. *)

val cache : t -> Sig_cache.t option
(** The signature arena; [None] without [config.prewarm]. *)

val save_failed : t -> bool
(** Whether {!create} swept an arena it could not write to
    [config.store_dir] — the next process will sweep again. *)

val sink : t -> Obs.sink option
val config : t -> config

val with_sink : t -> (unit -> 'a) -> 'a
(** Run under the session's sink when it has one ({!Obs.with_sink});
    plain call otherwise. *)

val cached : t -> int -> bool
(** Whether the arena holds this {!Sig_cache.key} — always false
    without an arena.  Every call is one probe a diagnosis made: a hit
    bumps ["cache.frozen_hits"], anything else ["cache.misses"] (the
    caller then simulates the signature itself). *)

val fault_triples : t -> Fault_list.fault array -> int array array
(** Signature triples for every fault, in the canonical
    [(block, PO, diff-word)] order of {!Fault_sim.iter_po_diffs}.
    Arena hits replay; the rest is simulated through
    {!Fault_sim.simulate_batch} slabs in bounded tiles, fanned out over
    [config.domains].  The signature source of the baselines. *)

val signature_of_triples : t -> int array -> Bitvec.t array
(** Expand one fault's triples into the per-PO, bit-per-pattern shape of
    {!Fault_sim.signature}. *)
