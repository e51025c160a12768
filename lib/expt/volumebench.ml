(* Volume-throughput bench: diagnoses/second of the volume service at
   several worker counts, against one prewarmed session — the shape
   `diagnose --batch-dir` runs.

   Methodology follows [Batchbench]: seeded-random patterns (the bench
   measures the service loop, not ATPG), wall clock, worker counts
   interleaved run by run so machine-speed drift lands on every arm
   equally, and speedups as ratios of best (minimum) drain times —
   scheduling noise only ever adds time.  The one-time arena build is
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

let now_ms () = Unix.gettimeofday () *. 1e3

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let find_circuit name =
  match Generators.find_suite name with
  | Some n -> n
  | None -> (
    match Generators.find_tier name with
    | Some n -> n
    | None -> invalid_arg ("Volumebench: unknown circuit or tier " ^ name))

(* Distinct failing datalogs, one per die, drawn from one seeded
   stream — the same die list for every worker count. *)
let prepare ~circuit ~patterns ~dies ~multiplicity ~seed =
  let net = find_circuit circuit in
  let rng = Rng.create seed in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:patterns in
  let expected = Logic_sim.responses net pats in
  let rec make_dlog attempts =
    if attempts = 0 then failwith "Volumebench: no failing defect combination found"
    else begin
      let defects = Injection.random_defects rng net Injection.default_mix multiplicity in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then make_dlog (attempts - 1) else dlog
    end
  in
  let queue =
    List.init dies (fun i ->
        { Volume.name = Printf.sprintf "die%03d" i; dlog = make_dlog 50 })
  in
  (net, pats, queue)

let default_patterns = 4 * Bitvec.word_bits

let run ?(circuit = "rnd2k") ?(worker_counts = [ 1; 2; 4 ]) ?(repeats = 3)
    ?(dies = 8) ?(patterns = default_patterns) ?(multiplicity = 3) ?(seed = 99) () =
  (* Arms with more workers than cores only measure oversubscription (the
     1-CPU container timed a guaranteed 0.63× at 4 workers): skip them
     and record the skip, instead of spending wall clock proving it. *)
  let cores = Domain.recommended_domain_count () in
  let skipped_workers = List.filter (fun w -> w > cores) worker_counts in
  let worker_counts = List.filter (fun w -> w <= cores) worker_counts in
  let net, pats, queue = prepare ~circuit ~patterns ~dies ~multiplicity ~seed in
  let t0 = now_ms () in
  let session =
    Session.create ~config:{ Session.default_config with Session.prewarm = true } net pats
  in
  let prewarm_ms = now_ms () -. t0 in
  let drain workers =
    let t0 = now_ms () in
    ignore (Sys.opaque_identity (Volume.run ~workers session queue));
    now_ms () -. t0
  in
  (* Untimed pass: pays allocation ramp-up outside every timed run and
     counts what a drain simulates.  Per-die sinks record whether or
     not the global registry is on. *)
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
  let times = Array.of_list (List.map (fun w -> (w, Array.make repeats 0.0)) worker_counts) in
  for i = 0 to repeats - 1 do
    Array.iter (fun (w, a) -> a.(i) <- drain w) times
  done;
  let best_of a = Array.fold_left min a.(0) a in
  let base =
    match Array.find_opt (fun (w, _) -> w = 1) times with
    | Some (_, a) -> best_of a
    | None -> (match times with [||] -> nan | _ -> best_of (snd times.(0)))
  in
  let samples =
    Array.to_list
      (Array.map
         (fun (w, a) ->
           let best = best_of a in
           {
             workers = w;
             runs = repeats;
             median_ms = median a;
             best_ms = best;
             dps = float_of_int dies /. (best /. 1e3);
             speedup_vs_1 = base /. best;
           })
         times)
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

let json_of_report r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n  \"circuit\": %S,\n  \"dies\": %d,\n  \"repeats\": %d,\n"
    r.circuit r.dies r.repeats;
  Printf.bprintf buf "  \"prewarm_ms\": %.3f,\n" r.prewarm_ms;
  Printf.bprintf buf "  \"misses\": %d,\n  \"explain_simulated\": %d,\n" r.misses
    r.explain_simulated;
  Printf.bprintf buf "  \"skipped_workers\": [%s],\n"
    (String.concat ", " (List.map string_of_int r.skipped_workers));
  Printf.bprintf buf "  \"best_multiworker_speedup\": %.4f,\n  \"samples\": [\n"
    (best_speedup r);
  List.iteri
    (fun i s ->
      Printf.bprintf buf
        "    {\"workers\": %d, \"runs\": %d, \"median_ms\": %.3f, \"best_ms\": %.3f, \
         \"diagnoses_per_sec\": %.4f, \"speedup_vs_1\": %.4f}%s\n"
        s.workers s.runs s.median_ms s.best_ms s.dps s.speedup_vs_1
        (if i = List.length r.samples - 1 then "" else ","))
    r.samples;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_json ~path r =
  let oc = open_out path in
  output_string oc (json_of_report r);
  close_out oc
