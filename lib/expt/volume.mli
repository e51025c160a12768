(** Volume diagnosis: one warm session, many die datalogs.

    The production shape of the flow: every failing die of one design
    shares the netlist, the test set, the good-machine words and the
    signature arena — only the datalog differs.  The service creates one
    {!Session.t}, then drains the die queue with request-level
    parallelism: one whole diagnosis per OCaml domain, each worker
    running its kernels single-domain.  Per-die observability comes
    from a private {!Obs.sink} per diagnosis, merged into the process
    registry after capture.

    Rendered diagnosis reports are byte-identical to single-shot
    [diagnose] runs of the same die, and each die's JSON ({!die_json})
    is byte-identical for every worker count. *)

type die = { name : string; dlog : Datalog.t }

type die_result = {
  die : string;
  result : Noassume.result;
  text : string;  (** {!Report.render} output — the canonical report. *)
  report : Run_report.t;  (** Per-die counters (private-sink capture). *)
}

type net_rollup = {
  net : string;
  dies_implicated : int;  (** Dies whose diagnosis called this net out. *)
  minimal_dies : int;
      (** Of those, dies whose cover the exact backend proved minimum
          ([cover_minimum <> None]); 0 throughout under [Greedy]. *)
  explained_obs : int;  (** Total observations explained at this site. *)
}

type rollup = {
  dies : int;
  diagnosed : int;
  minimal : int;  (** Dies diagnosed with a proven-minimal cover. *)
  nets : net_rollup list;
}

val load_dir : Session.t -> string -> die list
(** All [*.datalog] files of a directory, sorted by name; die names are
    the basenames.  Raises [Invalid_argument] on malformed datalogs
    (message prefixed with the offending die file's path), [Sys_error]
    on unreadable paths.  Never leaks a descriptor, whichever die
    fails. *)

val diagnose_die : ?config:Noassume.config -> Session.t -> die -> die_result
(** One die under a private sink.  [config] defaults to
    {!Noassume.default_config} with [domains = Some 1] (request-level
    parallelism owns the domains). *)

val run :
  ?config:Noassume.config -> ?workers:int -> Session.t -> die list -> die_result list
(** Drain the queue across [workers] domains ({!Parallel.map_array};
    default {!Parallel.default_domains}).  Result order follows input
    order whatever the worker count. *)

val rollup : Session.t -> die_result list -> rollup
(** Rank nets by how many dies implicate them (ties: dies with a
    proven-minimal cover, then explained observations, then name) — the
    volume signal that separates a systematic defect from random spot
    defects.  Under [--cover=exact] the tie-break prefers sites backed
    by provably-minimal multiplets over greedy-only implications. *)

val die_json : die_result -> string
(** One die as JSON: summary numbers, the rendered report, and the
    per-die run report (timings off, so the text depends only on the
    session and the die). *)

val rollup_json : rollup -> string

val write_results : dir:string -> Session.t -> die_result list -> rollup
(** Write [<die>.json] per die plus [rollup.json] into [dir] (created
    if missing, one level), returning the rollup. *)
