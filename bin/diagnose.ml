(* Diagnosis tool: read a circuit, its test set and tester datalogs, and
   run a diagnosis engine.

   Single-shot (one die):
     dune exec bin/diagnose.exe -- --circuit alu8 --datalog fail.datalog
     dune exec bin/diagnose.exe -- --circuit alu8 --datalog fail.datalog \
       --method slat

   Volume (one warm session, many dies):
     dune exec bin/diagnose.exe -- --circuit rnd1k --batch-dir dies/ \
       --workers 4 --out reports/
     ls dies/*.datalog | dune exec bin/diagnose.exe -- --circuit rnd1k --serve *)

open Cmdliner

let datalog_arg =
  let doc =
    "Tester datalog file (lines: `fail <pattern> : <po> <po> ...'). Required \
     unless $(b,--batch-dir) or $(b,--serve) is given."
  in
  Arg.(value & opt (some file) None & info [ "datalog" ] ~docv:"FILE" ~doc)

let batch_dir_arg =
  let doc =
    "Volume mode: diagnose every *.datalog file in $(docv) against one warm \
     session, one diagnosis per worker domain, and write per-die JSON reports \
     plus an aggregate rollup (see --out)."
  in
  Arg.(value & opt (some dir) None & info [ "batch-dir" ] ~docv:"DIR" ~doc)

let serve_arg =
  let doc =
    "Service mode: load the session once, then read datalog file paths from \
     stdin (one per line) and emit one JSON report line per die on stdout \
     (or into --out DIR when given) until EOF."
  in
  Arg.(value & flag & info [ "serve" ] ~doc)

let workers_arg =
  let doc =
    "Volume mode: worker domains draining the die queue, one whole diagnosis \
     per domain (default: the runtime's recommended count).  Reports are \
     identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)

let out_arg =
  let doc =
    "Directory for per-die JSON reports (created if missing).  Default: \
     `volume_reports' under --batch-dir mode; stdout under --serve."
  in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)

let method_arg =
  let doc =
    "Diagnosis engine for single-shot runs: noassume (the paper's method), \
     slat or single.  Volume and serve modes always run noassume."
  in
  Arg.(
    value
    & opt (enum [ ("noassume", `Noassume); ("slat", `Slat); ("single", `Single) ]) `Noassume
    & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let no_validate_arg =
  let doc = "Disable multiplet validation/refinement (ablation)." in
  Arg.(value & flag & info [ "no-validate" ] ~doc)

let read_file path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let run bench suite patterns_file datalog_file batch_dir serve workers out method_
    no_validate no_prune prewarm cover cover_budget store_dir domains stats =
  Cli_common.apply_domains domains;
  (* Many dies share one session in volume and serve mode, so the
     whole-pool arena always pays for itself there. *)
  let prewarm = prewarm || batch_dir <> None || serve in
  let scfg =
    Cli_common.session_config ~prewarm ?cover ?cover_budget ?store_dir ~no_prune ~domains ()
  in
  let stats_dest = Cli_common.init_stats stats in
  let net = Cli_common.or_die (Cli_common.load_circuit bench suite) in
  let pats = Cli_common.or_die (Cli_common.load_patterns net patterns_file) in
  let session = Session.create ~config:scfg net pats in
  if Session.save_failed session then
    Printf.eprintf "warning: could not save the signature snapshot under %s\n%!"
      (Option.value scfg.Session.store_dir ~default:"");
  let parse_dlog text =
    try
      Ok (Datalog.of_text ~npatterns:(Pattern.count pats) ~npos:(Netlist.num_pos net) text)
    with Invalid_argument msg -> Error msg
  in
  let circuit =
    match (suite, bench) with Some s, _ -> s | None, Some b -> b | None, None -> ""
  in
  let config = { Noassume.default_config with validate = not no_validate; domains } in
  let mode_meta =
    match (batch_dir, serve) with
    | Some dir, _ ->
      (* --- Volume mode: drain a directory of datalogs. ------------- *)
      let dies = Volume.load_dir session dir in
      if dies = [] then Cli_common.or_die (Error ("no *.datalog files in " ^ dir));
      Format.printf "circuit: %a@." Netlist.pp_stats net;
      Format.printf "volume: %d dies from %s@." (List.length dies) dir;
      let die_config = { config with Noassume.domains = Some 1 } in
      let results = Volume.run ~config:die_config ?workers session dies in
      let out = Option.value out ~default:"volume_reports" in
      let ru = Volume.write_results ~dir:out session results in
      Format.printf "wrote %d per-die reports + rollup.json to %s@."
        (List.length results) out;
      let top = List.filteri (fun i _ -> i < 10) ru.Volume.nets in
      List.iter
        (fun n ->
          Format.printf "  %-24s implicated on %d/%d dies (%d observations)@."
            n.Volume.net n.Volume.dies_implicated ru.Volume.dies n.Volume.explained_obs)
        top;
      [
        ("mode", "volume");
        ("dies", string_of_int (List.length results));
        ( "workers",
          string_of_int
            (match workers with Some w -> w | None -> Parallel.default_domains ()) );
      ]
    | None, true ->
      (* --- Serve mode: datalog paths on stdin, reports out. -------- *)
      let die_config = { config with Noassume.domains = Some 1 } in
      let n = ref 0 in
      (try
         while true do
           let path = String.trim (input_line stdin) in
           if path <> "" then begin
             let name = Filename.remove_extension (Filename.basename path) in
             let dlog = Cli_common.or_die (parse_dlog (read_file path)) in
             let r =
               Volume.diagnose_die ~config:die_config session
                 { Volume.name; dlog }
             in
             incr n;
             let json = Volume.die_json r in
             (match out with
             | Some dir ->
               if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
               let oc = open_out (Filename.concat dir (name ^ ".json")) in
               output_string oc json;
               close_out oc;
               Printf.printf "%s: done\n%!" name
             | None -> print_string json);
             flush stdout
           end
         done
       with End_of_file -> ());
      [ ("mode", "serve"); ("dies", string_of_int !n) ]
    | None, false ->
      (* --- Single-shot mode. --------------------------------------- *)
      let datalog_file =
        match datalog_file with
        | Some f -> f
        | None ->
          Cli_common.or_die
            (Error "a datalog is required: --datalog FILE (or --batch-dir/--serve)")
      in
      let dlog = Cli_common.or_die (parse_dlog (read_file datalog_file)) in
      Format.printf "circuit: %a@." Netlist.pp_stats net;
      Format.printf "datalog: %d failing patterns over %d outputs@."
        (Datalog.num_failing dlog) (Netlist.num_pos net);
      let cover_meta =
        match method_ with
        | `Noassume ->
          let r = Noassume.diagnose_session ~config session dlog in
          print_string (Report.render net r);
          (* Surfaced so an exact-cover run can be checked for faithful
             budget reporting from the stats file alone (the CI stress
             step greps for cover_complete). *)
          ("cover_complete", string_of_bool r.Noassume.cover_complete)
          ::
          (match r.Noassume.cover_minimum with
          | Some k -> [ ("cover_minimum", string_of_int k) ]
          | None -> [])
        | `Slat ->
          let m = Explain.build_session session dlog in
          let r = Slat_diag.diagnose m pats in
          print_string (Report.render_slat net r);
          []
        | `Single ->
          let r = Single_diag.diagnose_session session dlog in
          print_string (Report.render_single net r);
          []
      in
      let method_name =
        match method_ with
        | `Noassume -> "noassume"
        | `Slat -> "slat"
        | `Single -> "single"
      in
      [ ("mode", "single"); ("method", method_name) ] @ cover_meta
  in
  Cli_common.emit_stats stats_dest
    ~meta:
      ([ ("tool", "diagnose"); ("circuit", circuit) ]
      @ mode_meta
      @ Cli_common.config_meta scfg)

let cmd =
  let doc = "locate multiple defects from tester datalogs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Implements the DAC 2008 method: per-failing-output candidate \
         analysis, greedy covering, and multiplet validation by \
         simultaneous multiple-fault simulation — no assumption that \
         failing patterns are SLAT or that a single defect is present.";
      `P
        "With --batch-dir or --serve the tool runs as a volume-diagnosis \
         service: the engine context (good-machine words, reachability \
         screen, signature arena) is built once and every die reuses it, \
         one whole diagnosis per worker domain.";
    ]
  in
  Cmd.v
    (Cmd.info "diagnose" ~doc ~man)
    Term.(
      const run $ Cli_common.bench_arg $ Cli_common.suite_arg $ Cli_common.patterns_arg
      $ datalog_arg $ batch_dir_arg $ serve_arg $ workers_arg $ out_arg $ method_arg
      $ no_validate_arg $ Cli_common.no_prune_arg $ Cli_common.prewarm_arg
      $ Cli_common.cover_arg $ Cli_common.cover_budget_arg $ Cli_common.store_dir_arg
      $ Cli_common.domains_arg $ Cli_common.stats_arg)

let () = exit (Cmd.eval cmd)
