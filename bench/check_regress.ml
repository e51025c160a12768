(* Regression gates for the diagnosis kernels, wired into `dune runtest`
   but off by default: set MDD_BENCH_REGRESS (any non-empty value) to
   enable — CI's bench job does.  Thresholds live in thresholds.json,
   committed next to this file, so the gate and CI read one source of
   truth instead of inline literals.

   Eight independent gates, on fixed seeds, so everything but wall time
   is deterministic:

   1. Counter gate.  The instrumented counters of one explain-build +
      diagnose run at 1 domain, each on a fresh session without a
      signature arena, are compared with the committed
      baseline_stats.json.  Work counters (faults simulated, gate
      events, scoring evaluations, candidate-pool size) must not grow
      past [max_counter_growth] — the kernel-event regressions the
      observability layer exists to catch — nor collapse below
      [min_counter_ratio] of the baseline, which would mean the
      instrumentation itself broke (a counter silently stuck at zero
      passes any growth-only bound).  Counters are domain-count- and
      machine-independent, so this gate never flakes.  Regenerate the
      baseline after an intentional kernel change with:
        dune exec bench/check_regress.exe -- --write-baseline

   2. Campaign-arena gate.  One sequential campaign cell on its
      prewarmed session must make zero [cache.misses]: every signature
      a trial asks for (matrix rows, the single-fault baseline's pool)
      comes from the arena.  Deterministic; a miss means some phase
      keys a fault the sweep does not cover and silently simulates it
      per trial again.

   3. Timing gate.  The fork-join property: adding domains must not
      make [Explain.build] meaningfully slower than one domain even on
      a single-CPU host (the old parked-pool collapse measured 0.47x at
      4 domains).  Only the explain-build arm is timed, ratio of
      medians.  The floor leaves headroom below the ~0.7-0.9x a shared
      single CPU measures, because such hosts add tens of percent of
      run-to-run noise.

   4. Batch-speedup gate.  Same-binary A/B on rnd2k: the batched
      explain-build must stay at least [min_batch_speedup] times faster
      than the per-fault reference ([Explain_ref]) — the perf property
      the PPSFP pass bought.  Ratio of minima.

   5. Volume-throughput gate.  Request-level scaling of the volume
      service on rnd2k: draining one warm session with >= 2 worker
      domains must reach at least [min_volume_throughput] times the
      1-worker diagnoses/sec on a multi-core host (measured well above
      1.3x there).  CI runs a single-CPU container, where extra worker
      domains can only *cost* — spawn, stop-the-world handshakes, and
      timeslice contention measure ~0.8x at 2 workers — so when the
      runtime reports one core the gate drops to the documented
      [min_volume_throughput_1cpu] floor, which only catches the
      service serializing catastrophically (a lock or a sink
      bottleneck on the shared session driving 2 workers far below
      the plain overhead cost).

   6. Frozen-drain gate.  Same report as gate 5: the rnd2k drain on
      its prewarmed session must make zero [cache.misses], and a bare
      matrix build per die must simulate zero faults — every row
      replays from the arena.  Deterministic; it catches probes
      falling through to simulation on the service path.

   7. Exact-agreement gate.  Differential oracle on the covering step:
      the same seeded rnd1k trial stream diagnosed under the greedy and
      the exact (implicit hitting-set) backends.  Hard invariant first
      — no trial may produce an exact cover larger than greedy's (the
      greedy result seeds the exact search's upper bound, so a larger
      cover is a soundness bug, not a tuning matter).  Then the
      agreement rate (trials where greedy already matched the proven
      minimum) must stay above [min_exact_agreement].  Greedy
      deliberately trades cardinality for caution (pair moves,
      misprediction discounts), so the measured rate is well under 1.0;
      the floor sits just below the pinned deterministic measurement
      and a drop means greedy's covers got bigger or the exact
      backend's certificates broke.  Fully deterministic — sizes and
      certificates come from fixed-seed search, never wall time.

   8. Store gate.  The perf property the persistent signature store
      bought: on rnd2k, adopting a saved snapshot (read + validate +
      publish + first diagnose) must stay at least [min_store_speedup]
      times faster than the cold path, where the first diagnosis
      simulates the candidate pool itself.  Ratio of minima.

   Every timed gate runs on the one arm runner, [Arms]: a warm-up call
   per arm, then rounds that call the arms in turn (a slow stretch of a
   shared host lands on every arm of a round), each call after
   [Gc.full_major] (no arm pays for another's garbage).  Each gate
   prints its value against its bounds and dies outside them. *)

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

(* Every gate: print the value against its bounds, die outside them. *)
let gate ?(min = neg_infinity) ?(max = infinity) what value =
  Printf.printf "check_regress: %-56s %10.3f  [%g, %g]\n%!" what value min max;
  if not (value >= min && value <= max) then
    die "check_regress: FAIL — %s = %.3f outside [%g, %g]" what value min max

let thresholds_path = "thresholds.json"
let baseline_path = "baseline_stats.json"

let load_thresholds () =
  let json =
    match Obs_json.parse_file thresholds_path with
    | Ok j -> j
    | Error msg -> die "check_regress: cannot read %s: %s" thresholds_path msg
  in
  let gated_counters =
    match Option.bind (Obs_json.member "gated_counters" json) Obs_json.list with
    | Some l -> List.filter_map Obs_json.str l
    | None -> die "check_regress: %s: missing list \"gated_counters\"" thresholds_path
  in
  let fnum key =
    match Option.bind (Obs_json.member key json) Obs_json.num with
    | Some f -> f
    | None -> die "check_regress: %s: missing number %S" thresholds_path key
  in
  (fnum, gated_counters)

(* Gate 1: the merged counters of one explain-build + one diagnose
   capture at a fixed 1 domain.  Per-sample reports gate kernel work
   individually, but the baseline pins their sum, which is what a whole
   run costs. *)
let capture_current () =
  let report =
    Parbench.run ~circuit:"rnd1k" ~domain_counts:[ 1 ] ~repeats:1 ~with_stats:true ()
  in
  let tally = Hashtbl.create 32 in
  List.iter
    (fun s ->
      match s.Parbench.stats with
      | None -> die "check_regress: bench sample carries no stats"
      | Some r ->
        List.iter
          (fun (name, v) ->
            Hashtbl.replace tally name
              (v + Option.value ~default:0 (Hashtbl.find_opt tally name)))
          (Run_report.counters r))
    report.Parbench.samples;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tally [] |> List.sort compare

let check_counters fnum gated_counters current =
  let baseline =
    match Obs_json.parse_file baseline_path with
    | Ok j -> Run_report.counters_of_json j
    | Error msg -> die "check_regress: cannot read %s: %s" baseline_path msg
  in
  List.iter
    (fun name ->
      match (List.assoc_opt name baseline, List.assoc_opt name current) with
      | None, _ -> die "check_regress: %s lacks gated counter %S" baseline_path name
      | _, None -> die "check_regress: current run lacks gated counter %S" name
      | Some 0, Some cur -> gate ~max:0.0 ("counter " ^ name ^ " (baseline 0)") (float_of_int cur)
      | Some base, Some cur ->
        gate ~min:(fnum "min_counter_ratio") ~max:(fnum "max_counter_growth")
          (Printf.sprintf "counter %s: %d / baseline %d" name cur base)
          (float_of_int cur /. float_of_int base))
    gated_counters

let write_baseline () =
  let counters = capture_current () in
  Arms.write_json baseline_path
    (Obs_json.Obj
       [
         ( "comment",
           Obs_json.Str
             "Deterministic counters of one rnd1k explain-build + diagnose capture at 1 \
              domain (Parbench seed 99).  Regenerate: dune exec bench/check_regress.exe \
              -- --write-baseline" );
         ("counters", Obs_json.Obj (List.map (fun (name, v) -> (name, Arms.int v)) counters));
       ]);
  Printf.printf "check_regress: wrote %s (%d counters)\n" baseline_path
    (List.length counters)

let cores = Domain.recommended_domain_count ()

let () =
  if Array.mem "--write-baseline" Sys.argv then write_baseline ()
  else
    match Sys.getenv_opt "MDD_BENCH_REGRESS" with
    | None | Some "" ->
      print_endline "check_regress: skipped (set MDD_BENCH_REGRESS=1 to enable)"
    | Some _ ->
      let fnum, gated_counters = load_thresholds () in
      (* 1 *)
      check_counters fnum gated_counters (capture_current ());
      (* 2: a sequential campaign cell re-runs diagnosis on one circuit
         and test set with fresh defects each trial, against one
         prewarmed session: no trial may simulate a signature. *)
      let hits, misses = Parbench.campaign_arena_probes () in
      gate ~min:1.0 "campaign cell: arena hits" (float_of_int hits);
      gate ~max:0.0 "campaign cell: cache misses" (float_of_int misses);
      (* 3: median ratio, explain-build alone; the sessions hold no
         arena, so every timed run simulates. *)
      let par =
        Parbench.run ~circuit:"rnd1k" ~kernels:[ "explain-build" ] ~domain_counts:[ 1; 4 ]
          ~repeats:7 ~with_stats:false ()
      in
      gate ~min:(fnum "min_speedup_at_4") "explain-build @4 domains vs @1, medians"
        (match List.find_opt (fun s -> s.Parbench.domains = 4) par.Parbench.samples with
        | Some s -> s.Parbench.speedup_vs_1
        | None -> 0.0);
      (* 4: ratio of minima, same binary. *)
      gate ~min:(fnum "min_batch_speedup") "rnd2k batched vs per-fault explain"
        (Option.value ~default:0.0
           (List.assoc_opt "rnd2k"
              (Batchbench.speedups (Batchbench.run ~circuits:[ "rnd2k" ] ~repeats:7 ()))));
      (* 5: ratio of minima; arms with more workers than cores are not
         timed, so a single-core host has no scaling signal at all.
         The 2% tolerance absorbs spawn/handshake jitter. *)
      let vol = Volumebench.run ~circuit:"rnd2k" ~worker_counts:[ 1; 2; 4 ] () in
      if List.exists (fun s -> s.Volumebench.workers > 1) vol.Volumebench.samples then
        gate
          ~min:
            (0.98
            *. fnum
                 (if cores <= 1 then "min_volume_throughput_1cpu"
                  else "min_volume_throughput"))
          (Printf.sprintf "rnd2k volume throughput, best multi-worker (%d cores)" cores)
          (Volumebench.best_speedup vol)
      else
        Printf.printf "check_regress: volume scaling not applicable on %d core(s)\n%!" cores;
      (* 6: off the same report, the drain replayed every signature. *)
      gate ~max:0.0 "rnd2k frozen drain: cache misses" (float_of_int vol.Volumebench.misses);
      gate ~max:0.0 "rnd2k frozen drain: faults simulated by explain"
        (float_of_int vol.Volumebench.explain_simulated);
      (* 7: deterministic; a larger exact cover is a soundness bug. *)
      let cover = Coverbench.run ~circuits:[ "rnd1k" ] ~trials:12 () in
      List.iter
        (fun (row : Coverbench.row) ->
          gate ~max:0.0
            (Printf.sprintf "%s: exact covers larger than greedy (%d/%d agree, %d proved)"
               row.Coverbench.circuit row.Coverbench.agree row.Coverbench.trials
               row.Coverbench.proved)
            (float_of_int row.Coverbench.larger))
        cover.Coverbench.rows;
      gate ~min:(fnum "min_exact_agreement") "greedy/exact agreement"
        (Coverbench.agreement cover);
      (* 8: ratio of minima; [Storebench] fails hard if the snapshot it
         just saved is rejected. *)
      let store = Storebench.run ~circuits:[ "rnd2k" ] () in
      List.iter
        (fun (s : Storebench.sample) ->
          gate ~max:(float_of_int s.Storebench.budget_bytes)
            (Printf.sprintf "%s packed arena bytes (file %d)" s.Storebench.circuit
               s.Storebench.file_bytes)
            (float_of_int s.Storebench.arena_bytes))
        store.Storebench.samples;
      gate ~min:(0.98 *. fnum "min_store_speedup") "rnd2k snapshot load + first vs cold"
        (Storebench.min_load_speedup store)
