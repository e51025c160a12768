(* Volume-throughput bench: diagnoses/second of the volume service at
   several worker counts, against one prewarmed session — the shape
   `diagnose --batch-dir` runs.

   Seeded-random patterns (the bench measures the service loop, not
   ATPG); one {!Arms} arm per worker count, speedups as ratios of best
   (minimum) drain times.  The one-time arena build is
   reported separately as [prewarm_ms]: it amortises over the die
   count, which is the rnd50k cold-start story (EXPERIMENTS Fig 1a).

   Alongside the timings, one untimed pass counts what the drain
   simulated: the per-die [cache.misses] and the fault simulations of a
   bare matrix build per die.  Both must be zero on a prewarmed
   session — deterministic numbers, gated in [check_regress]. *)

type sample = {
  workers : int;
  runs : int;
  median_ms : float;  (* full-queue drain, median over runs *)
  best_ms : float;  (* minimum over the timed runs *)
  dps : float;  (* diagnoses per second at the best drain *)
  speedup_vs_1 : float;  (* best_ms at 1 worker / best_ms here *)
}

type report = {
  circuit : string;
  dies : int;
  repeats : int;
  prewarm_ms : float;  (* one-time session build with the whole-pool arena *)
  misses : int;  (* cache.misses summed over the dies of one drain *)
  explain_simulated : int;  (* faults simulated by the dies' matrix builds *)
  samples : sample list;
  skipped_workers : int list;  (* arms above the available core count, not timed *)
}

let default_patterns = 4 * Bitvec.word_bits

let run ?(circuit = "rnd2k") ?(worker_counts = [ 1; 2; 4 ]) ?(repeats = 3)
    ?(dies = 8) ?(patterns = default_patterns) ?(multiplicity = 3) ?(seed = 99) () =
  (* Arms with more workers than cores only measure oversubscription (the
     1-CPU container timed a guaranteed 0.63× at 4 workers): skip them
     and record the skip, instead of spending wall clock proving it. *)
  let cores = Domain.recommended_domain_count () in
  let skipped_workers = List.filter (fun w -> w > cores) worker_counts in
  let worker_counts = List.filter (fun w -> w <= cores) worker_counts in
  (* One die list, the same for every worker count. *)
  let net, pats, dlogs =
    Arms.problem ~patterns:(`Random patterns) ~multiplicity ~dies ~seed circuit
  in
  let queue = List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%03d" i; dlog }) dlogs in
  let t0 = Arms.now_ms () in
  let session =
    Session.create ~config:{ Session.default_config with Session.prewarm = true } net pats
  in
  let prewarm_ms = Arms.now_ms () -. t0 in
  (* Untimed pass: counts what a drain simulates.  Per-die sinks record
     whether or not the global registry is on. *)
  let counter (r : Run_report.t) name =
    Option.value ~default:0 (List.assoc_opt name (Run_report.counters r))
  in
  let misses =
    List.fold_left
      (fun acc (r : Volume.die_result) -> acc + counter r.Volume.report "cache.misses")
      0
      (Volume.run ~workers:1 session queue)
  in
  let explain_simulated =
    List.fold_left
      (fun acc (d : Volume.die) ->
        let sink = Obs.sink () in
        Obs.with_sink sink (fun () ->
            ignore (Explain.build_session ~domains:1 session d.Volume.dlog));
        acc + counter (Run_report.capture ~sink ()) "sim.faults_simulated")
      0 queue
  in
  let times =
    Arms.run ~repeats
      (List.map (fun workers -> Arms.call (fun () -> Volume.run ~workers session queue)) worker_counts)
  in
  let timed = List.combine worker_counts (List.map Stats.minimum times) in
  let base =
    match (List.assoc_opt 1 timed, timed) with
    | Some b, _ | None, (_, b) :: _ -> b
    | None, [] -> nan
  in
  let samples =
    List.map2
      (fun (w, best) ms ->
        {
          workers = w;
          runs = repeats;
          median_ms = Stats.median ms;
          best_ms = best;
          dps = float_of_int dies /. (best /. 1e3);
          speedup_vs_1 = base /. best;
        })
      timed times
  in
  { circuit; dies; repeats; prewarm_ms; misses; explain_simulated; samples; skipped_workers }

(* Best request-level speedup over the multi-worker arms — the number
   the regression gate floors. *)
let best_speedup r =
  List.fold_left
    (fun acc s -> if s.workers > 1 then max acc s.speedup_vs_1 else acc)
    0.0 r.samples

let to_table r =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Volume diagnosis throughput on %s (%d dies/drain, %d runs/point, prewarmed \
            session; prewarm %.1f ms; %d misses, %d faults simulated by explain%s)"
           r.circuit r.dies r.repeats r.prewarm_ms r.misses r.explain_simulated
           (match r.skipped_workers with
           | [] -> ""
           | ws ->
             Printf.sprintf "; skipped workers > cores: %s"
               (String.concat ", " (List.map string_of_int ws))))
      [
        ("workers", Table.Right);
        ("median ms", Table.Right);
        ("best ms", Table.Right);
        ("diagnoses/s", Table.Right);
        ("speedup vs 1", Table.Right);
      ]
  in
  List.iter
    (fun s ->
      Table.add_row table
        [
          Table.cell_int s.workers;
          Table.cell_float ~decimals:1 s.median_ms;
          Table.cell_float ~decimals:1 s.best_ms;
          Table.cell_float ~decimals:2 s.dps;
          Table.cell_float ~decimals:2 s.speedup_vs_1;
        ])
    r.samples;
  table

let to_json r =
  let sample s =
    Obs_json.Obj
      [
        ("workers", Arms.int s.workers);
        ("runs", Arms.int s.runs);
        ("median_ms", Obs_json.Num s.median_ms);
        ("best_ms", Obs_json.Num s.best_ms);
        ("diagnoses_per_sec", Obs_json.Num s.dps);
        ("speedup_vs_1", Obs_json.Num s.speedup_vs_1);
      ]
  in
  Obs_json.Obj
    [
      ("circuit", Obs_json.Str r.circuit);
      ("dies", Arms.int r.dies);
      ("repeats", Arms.int r.repeats);
      ("prewarm_ms", Obs_json.Num r.prewarm_ms);
      ("misses", Arms.int r.misses);
      ("explain_simulated", Arms.int r.explain_simulated);
      ("skipped_workers", Obs_json.List (List.map Arms.int r.skipped_workers));
      ("best_multiworker_speedup", Obs_json.Num (best_speedup r));
      ("samples", Obs_json.List (List.map sample r.samples));
    ]
