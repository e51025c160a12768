(* Helper for the end-to-end CLI benchmark (perfbench/run.py).

   The harness times the real `diagnose` binary from outside; this tool
   does the untimed and in-process parts around it:

     tool.exe prepare --out DIR --domains N
         The canonical rnd1k test set (Campaign.test_set) as a pattern
         file, plus a warmed signature snapshot for the serve workload.
         Neither depends on the seed.
     tool.exe gen --patterns P --seed S --dies N --cover C --out DIR
         A seeded die set (datalogs), its ground truth, and each die's
         reference report under cover backend C.  Byte-identical output
         for a given seed; the datalogs do not depend on C.
     tool.exe trace --shape SHAPE ... --trace-out FILE
         One workload replayed in this process with a span around each
         public call the CLI makes.  Spans stay in memory and are written
         once, at exit, with the Obs counters of the run. *)

let circuit = "rnd1k"

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)
let mkdir path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("tool: " ^ msg); exit 2) fmt

let load_net () =
  match Generators.find_suite circuit with
  | Some net -> net
  | None -> fail "circuit %s is not in the suite" circuit

let parse_dlog net pats path =
  Datalog.of_text ~npatterns:(Pattern.count pats) ~npos:(Netlist.num_pos net) (read_file path)

let session_config ~domains ~cover =
  { Session.default_config with Session.domains = Some domains; cover }

(* --- Spans ------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a top-level span *)
  die : string;
  t0 : float;  (* microseconds since the tool started *)
  mutable t1 : float;
  mutable minor_words : float;  (* allocated by the calling domain *)
}

let epoch = Unix.gettimeofday ()
(* Whole microseconds: Obs_json prints non-integers with six digits. *)
let now_us () = Float.round ((Unix.gettimeofday () -. epoch) *. 1e6)
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0

let span ?(die = "") name f =
  let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
  let s = { id = !next_id; name; parent; die; t0 = now_us (); t1 = nan; minor_words = 0. } in
  incr next_id;
  open_spans := s :: !open_spans;
  let w0 = Gc.minor_words () in
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- now_us ();
      s.minor_words <- Gc.minor_words () -. w0;
      open_spans := List.tl !open_spans;
      spans := s :: !spans)
    f

let num x = Obs_json.Num x
let int n = Obs_json.Num (float_of_int n)

let write_trace ~path ~shape ~counters ~atpg =
  let span_json s =
    Obs_json.Obj
      [
        ("id", int s.id);
        ("name", Obs_json.Str s.name);
        ("parent", int s.parent);
        ("die", Obs_json.Str s.die);
        ("start_us", num s.t0);
        ("end_us", num s.t1);
        ("minor_words", num s.minor_words);
      ]
  in
  let atpg =
    match atpg with
    | None -> Obs_json.Null
    | Some (r : Tpg.report) ->
      Obs_json.Obj
        [
          ("faults", int r.Tpg.total_faults);
          ("detected", int r.Tpg.detected);
          ("untestable", int r.Tpg.untestable);
          ("aborted", int r.Tpg.aborted);
          ("coverage", num r.Tpg.coverage);
          ("patterns", int (Pattern.count r.Tpg.patterns));
        ]
  in
  write_file path
    (Obs_json.to_string
       (Obs_json.Obj
          [
            ("shape", Obs_json.Str shape);
            ("spans", Obs_json.List (List.rev_map span_json !spans));
            ("counters", Obs_json.Obj (List.map (fun (k, v) -> (k, int v)) counters));
            ("atpg", atpg);
          ])
    ^ "\n")

(* The harness timestamps this line: everything before it is the work
   the CLI itself would do. *)
let mark_done () =
  print_string "perfbench: done\n";
  flush stdout

(* --- prepare ---------------------------------------------------------- *)

let prepare ~out ~domains =
  Parallel.set_domains domains;
  mkdir out;
  let net = load_net () in
  let pats = Campaign.test_set net in
  write_file (Filename.concat out "patterns.txt") (Pattern.to_text pats);
  (* The snapshot the serve workload restarts from: the same library
     call a `--serve --prewarm --store-dir` run makes, on the same
     pattern set, so the CLI finds it valid and never rewrites it. *)
  let config =
    {
      (session_config ~domains ~cover:Session.Exact) with
      Session.prewarm = true;
      store_dir = Some (Filename.concat out "store");
    }
  in
  ignore (Session.create ~config net pats)

(* --- gen -------------------------------------------------------------- *)

let max_draws = 100

let gen ~patterns ~seed ~dies ~out ~domains ~cover =
  let net = load_net () in
  let pats = Pattern.of_text (read_file patterns) in
  let expected = Logic_sim.responses net pats in
  let rng = Rng.create seed in
  List.iter (fun d -> mkdir (Filename.concat out d)) [ ""; "dies"; "ref" ];
  let draw i =
    let name = Printf.sprintf "die_%03d" i in
    let k = 1 + (i mod 5) in
    let rec go attempts =
      if attempts = 0 then fail "%s: %d draws never failed the test" name max_draws;
      let defects = Injection.random_defects rng net Injection.default_mix k in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then go (attempts - 1) else (name, k, defects, dlog)
    in
    go max_draws
  in
  (* Draws are sequential (one generator); references then run one die
     per domain, as the volume service does.  Reports are byte-identical
     under every session config; the prewarm only makes them cheaper. *)
  let drawn = Array.init dies draw in
  let config = { (session_config ~domains:1 ~cover) with Session.prewarm = true } in
  let session = Session.create ~config net pats in
  let nconfig = { Noassume.default_config with domains = Some 1 } in
  let reference (_, _, defects, dlog) =
    let m = Explain.build_session session dlog in
    let r = Noassume.diagnose_matrix ~config:nconfig m pats in
    (* Scored like Campaign: against the defects that left a trace. *)
    let scored = Injection.contributing net pats defects in
    (Report.render net r, Metrics.evaluate net ~injected:scored ~callouts:(Noassume.callout_nets r))
  in
  let refs = Parallel.map_array ~domains reference drawn in
  let die_json (name, k, defects, dlog) (text, q) =
    write_file (Filename.concat out ("dies/" ^ name ^ ".datalog")) (Datalog.to_text dlog);
    write_file (Filename.concat out ("ref/" ^ name ^ ".txt")) text;
    Obs_json.Obj
      [
        ("die", Obs_json.Str name);
        ("multiplicity", int k);
        ("defects", Obs_json.List (List.map (fun d -> Obs_json.Str (Defect.describe net d)) defects));
        ("failing_patterns", int (Datalog.num_failing dlog));
        ("injected", int q.Metrics.injected);
        ("hits", int q.Metrics.hits);
        ("reported", int q.Metrics.reported);
      ]
  in
  let dies = Array.to_list (Array.map2 die_json drawn refs) in
  write_file (Filename.concat out "truth.json")
    (Obs_json.to_string
       (Obs_json.Obj
          [
            ("seed", int seed);
            ("circuit", Obs_json.Str circuit);
            ("cover", Obs_json.Str (match cover with Session.Greedy -> "greedy" | Session.Exact -> "exact"));
            ("ocaml", Obs_json.Str Sys.ocaml_version);
            ("dies", Obs_json.List dies);
          ])
    ^ "\n")

(* --- trace ------------------------------------------------------------ *)

(* Each shape repeats the calls of one CLI invocation shape, in the
   CLI's order and with its configuration; see bin/diagnose.ml. *)

let load_patterns net = function
  | Some path -> span "pattern.parse" (fun () -> Pattern.of_text (read_file path))
  | None -> span "atpg.generate" (fun () -> Campaign.test_set net)

let diagnose_die ~die ~config session dlog =
  let m = span ~die "explain.build" (fun () -> Explain.build_session session dlog) in
  let r =
    span ~die "noassume.matrix" (fun () ->
        Noassume.diagnose_matrix ~config m (Session.patterns session))
  in
  (r, span ~die "report.render" (fun () -> Report.render (Session.netlist session) r))

let trace_single ~patterns ~datalog ~domains =
  let net = span "netlist.load" load_net in
  let pats = load_patterns net patterns in
  let session =
    span "session.create" (fun () ->
        Session.create ~config:(session_config ~domains ~cover:Session.Greedy) net pats)
  in
  let dlog = span "datalog.parse" (fun () -> parse_dlog net pats datalog) in
  let die = Filename.remove_extension (Filename.basename datalog) in
  let config = { Noassume.default_config with domains = Some domains } in
  let _, text = diagnose_die ~die ~config session dlog in
  span ~die "report.write" (fun () -> print_string text)

let trace_batch ~patterns ~dir ~out ~domains ~workers =
  let net = span "netlist.load" load_net in
  let pats = load_patterns net patterns in
  let config =
    { (session_config ~domains ~cover:Session.Greedy) with Session.prewarm = true }
  in
  let session = span "session.create" (fun () -> Session.create ~config net pats) in
  let dies = span "datalog.parse" (fun () -> Volume.load_dir session dir) in
  let die_config = { Noassume.default_config with domains = Some 1 } in
  let results =
    span "volume.drain" (fun () -> Volume.run ~config:die_config ~workers session dies)
  in
  ignore (span "volume.write" (fun () -> Volume.write_results ~dir:out session results));
  mark_done ();
  let counters = Run_report.counters (Run_report.capture ()) in
  (* Serial per-die replay on the same frozen session: the drain runs
     each die inside Volume.run, where no span can reach. *)
  span "replay" (fun () ->
      List.iter
        (fun (d : Volume.die) ->
          ignore (diagnose_die ~die:d.Volume.name ~config:die_config session d.Volume.dlog))
        dies);
  counters

let trace_serve ~store ~domains =
  let net = span "netlist.load" load_net in
  let pats = load_patterns net None in
  let config =
    {
      (session_config ~domains ~cover:Session.Exact) with
      Session.prewarm = true;
      store_dir = Some store;
    }
  in
  let session = span "session.create" (fun () -> Session.create ~config net pats) in
  let die_config = { Noassume.default_config with domains = Some 1 } in
  (try
     while true do
       (* Waiting for the client is time no layer of the program owns. *)
       let path = String.trim (span "stdin.read" (fun () -> input_line stdin)) in
       if path <> "" then begin
         let die = Filename.remove_extension (Filename.basename path) in
         let dlog = span ~die "datalog.parse" (fun () -> parse_dlog net pats path) in
         (* Volume.diagnose_die's steps, split so each gets its span. *)
         let sink = Obs.sink () in
         let result, text =
           Obs.with_sink sink (fun () -> diagnose_die ~die ~config:die_config session dlog)
         in
         let report =
           Run_report.capture ~sink
             ~meta:[ ("die", die); ("cover_complete", string_of_bool result.Noassume.cover_complete) ]
             ()
         in
         Obs.merge sink;
         let json = Volume.die_json { Volume.die; result; text; report } in
         span ~die "report.write" (fun () ->
             print_string json;
             flush stdout)
       end
     done
   with End_of_file -> ())

let trace ~shape ~patterns ~datalog ~dir ~out ~store ~domains ~workers ~trace_out =
  Parallel.set_domains domains;
  Obs.enable ();
  let counters =
    match shape with
    | "single" ->
      trace_single ~patterns ~datalog ~domains;
      None
    | "batch" -> Some (trace_batch ~patterns ~dir ~out ~domains ~workers)
    | "serve" ->
      trace_serve ~store ~domains;
      None
    | s -> fail "unknown shape %s" s
  in
  let counters =
    match counters with
    | Some c -> c
    | None ->
      mark_done ();
      Run_report.counters (Run_report.capture ())
  in
  let atpg =
    if List.exists (fun s -> s.name = "atpg.generate") !spans then
      Some (Campaign.test_report (load_net ()))
    else None
  in
  write_trace ~path:trace_out ~shape ~counters ~atpg

(* --- command line ----------------------------------------------------- *)

let () =
  let str r = Arg.String (fun s -> r := s) in
  let opt r = Arg.String (fun s -> r := Some s) in
  let out = ref "" and patterns = ref None and datalog = ref "" and dir = ref "" in
  let store = ref "" and trace_out = ref "" and shape = ref "" in
  let cover = ref Session.Greedy in
  let seed = ref 1 and dies = ref 40 and domains = ref 1 and workers = ref 1 in
  let specs =
    [
      ("--out", str out, "DIR output directory");
      ("--patterns", opt patterns, "FILE pattern file");
      ("--datalog", str datalog, "FILE datalog (trace single)");
      ("--batch-dir", str dir, "DIR datalog directory (trace batch)");
      ("--store-dir", str store, "DIR snapshot directory (trace serve)");
      ("--trace-out", str trace_out, "FILE where the spans go");
      ("--shape", str shape, "single|batch|serve");
      ("--seed", Arg.Set_int seed, "N die-set seed");
      ("--dies", Arg.Set_int dies, "N die count");
      ("--domains", Arg.Set_int domains, "N kernel domains");
      ("--workers", Arg.Set_int workers, "N volume workers");
      ( "--cover",
        Arg.Symbol ([ "greedy"; "exact" ], fun c -> cover := if c = "exact" then Session.Exact else Session.Greedy),
        " covering backend of the references (gen)" );
    ]
  in
  let usage = "tool.exe (prepare|gen|trace) [options]" in
  if Array.length Sys.argv < 2 then fail "%s" usage;
  let argv = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
  (try Arg.parse_argv argv specs (fun a -> fail "unexpected argument %s" a) usage with
  | Arg.Bad msg | Arg.Help msg -> fail "%s" msg);
  match argv.(0) with
  | "prepare" -> prepare ~out:!out ~domains:!domains
  | "gen" -> (
    match !patterns with
    | Some patterns -> gen ~patterns ~seed:!seed ~dies:!dies ~out:!out ~domains:!domains ~cover:!cover
    | None -> fail "gen needs --patterns")
  | "trace" ->
    trace ~shape:!shape ~patterns:!patterns ~datalog:!datalog ~dir:!dir ~out:!out ~store:!store
      ~domains:!domains ~workers:!workers ~trace_out:!trace_out
  | cmd -> fail "unknown command %s (%s)" cmd usage
