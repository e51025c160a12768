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

val die_name : string -> string
(** A datalog path's die name: its basename without the extension. *)

val read_die : Session.t -> string -> (die, string) result
(** Read and parse one datalog file against the session's test set and
    outputs.  A file that cannot be read or parsed is an [Error] whose
    message names the path; nothing is raised and no descriptor leaks. *)

val datalog_paths : string -> string list
(** The [*.datalog] files of a directory, sorted by name.  Raises
    [Sys_error] when the directory cannot be read. *)

val load_dir : Session.t -> string -> die list
(** {!read_die} over {!datalog_paths}.  Raises [Invalid_argument] with
    the first failing die's message. *)

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

val input_error_json : die:string -> string -> string
(** The line a service emits in place of {!die_json} when a die's
    datalog cannot be read or parsed: the die name, [status]
    ["input_error"] and the message. *)

val rollup_json : rollup -> string

val write_results : dir:string -> Session.t -> die_result list -> rollup
(** Write [<die>.json] per die plus [rollup.json] into [dir] (created
    if missing, one level), returning the rollup. *)
