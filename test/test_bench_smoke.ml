(* Smoke tests of the bench harnesses and their shared runner: tiny
   c17/alu8 configurations must produce well-formed reports, parsable
   JSON with the keys the regression gates and CI read, and the
   deterministic invariants the gates floor, without the heavy
   rnd1k/rnd2k runs the bench executable uses. *)

(* Through the shared writer and back, so the file format is checked
   too. *)
let json_round_trip name json =
  let path = Filename.temp_file ("mdd_smoke_" ^ name) ".json" in
  Arms.write_json path json;
  let parsed = Obs_json.parse_file path in
  Sys.remove path;
  match parsed with Ok j -> j | Error msg -> Alcotest.failf "%s JSON unparsable: %s" name msg

let member key json =
  match Obs_json.member key json with
  | Some v -> v
  | None -> Alcotest.failf "JSON lacks key %S" key

let items key json =
  match Obs_json.list (member key json) with
  | Some l -> l
  | None -> Alcotest.failf "JSON key %S is not a list" key

let has_keys what keys json =
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "%s has %S" what k) true
        (Obs_json.member k json <> None))
    keys

let run_tiny () = Parbench.run ~circuit:"c17" ~domain_counts:[ 1; 2 ] ~repeats:2 ()

let test_report_shape () =
  let r = run_tiny () in
  Alcotest.(check string) "circuit" "c17" r.Parbench.circuit;
  Alcotest.(check int) "repeats" 2 r.Parbench.repeats;
  (* 2 kernels x 2 domain counts. *)
  Alcotest.(check int) "sample count" 4 (List.length r.Parbench.samples);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%d median positive" s.Parbench.kernel s.Parbench.domains)
        true
        (s.Parbench.median_ns > 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s/%d speedup finite" s.Parbench.kernel s.Parbench.domains)
        true
        (Float.is_finite s.Parbench.speedup_vs_1 && s.Parbench.speedup_vs_1 > 0.0);
      Alcotest.(check int) "runs" 2 s.Parbench.runs)
    r.Parbench.samples;
  let kernels =
    List.sort_uniq compare (List.map (fun s -> s.Parbench.kernel) r.Parbench.samples)
  in
  Alcotest.(check (list string)) "kernels" [ "diagnose"; "explain-build" ] kernels;
  List.iter
    (fun s ->
      if s.Parbench.domains = 1 then
        Alcotest.(check (float 1e-9))
          (s.Parbench.kernel ^ " baseline speedup")
          1.0 s.Parbench.speedup_vs_1)
    r.Parbench.samples;
  let one = Parbench.run ~circuit:"c17" ~kernels:[ "explain-build" ] ~domain_counts:[ 1 ]
      ~repeats:1 ~with_stats:false () in
  Alcotest.(check (list string)) "kernel selection" [ "explain-build" ]
    (List.map (fun s -> s.Parbench.kernel) one.Parbench.samples)

let test_json_well_formed () =
  let json = json_round_trip "parallel" (Parbench.to_json (run_tiny ())) in
  Alcotest.(check (option string)) "circuit" (Some "c17") (Obs_json.str (member "circuit" json));
  Alcotest.(check (option int)) "repeats" (Some 2) (Obs_json.int (member "repeats" json));
  let samples = items "samples" json in
  Alcotest.(check int) "parsed sample count" 4 (List.length samples);
  (* Every sample embeds the instrumented run report the counter gate
     reads. *)
  List.iter
    (fun s ->
      has_keys "sample" [ "kernel"; "domains"; "runs"; "median_ns"; "speedup_vs_1" ] s;
      Alcotest.(check bool)
        "embedded stats carry counters" true
        (Run_report.counters_of_json (member "stats" s) <> []))
    samples

let test_unknown_circuit () =
  Alcotest.check_raises "unknown circuit"
    (Invalid_argument "unknown circuit or tier nonesuch") (fun () ->
      ignore (Parbench.run ~circuit:"nonesuch" ()))

let test_batch () =
  let r = Batchbench.run ~circuits:[ "c17"; "alu8" ] ~repeats:1 ~patterns:63 () in
  Alcotest.(check int) "two modes per circuit" 4 (List.length r.Batchbench.samples);
  List.iter
    (fun s ->
      Alcotest.(check bool) "best <= median" true
        (s.Batchbench.explain_best_ms <= s.Batchbench.explain_ms))
    r.Batchbench.samples;
  Alcotest.(check (list string)) "one speedup per circuit" [ "c17"; "alu8" ]
    (List.map fst (Batchbench.speedups r));
  let json = json_round_trip "batch" (Batchbench.to_json r) in
  List.iter
    (has_keys "sample" [ "tier"; "gates"; "patterns"; "mode"; "explain_ms"; "explain_best_ms" ])
    (items "samples" json);
  List.iter (has_keys "speedup" [ "tier"; "explain_speedup" ]) (items "speedups" json)

let test_volume () =
  let r =
    Volumebench.run ~circuit:"alu8" ~worker_counts:[ 1; 2 ] ~repeats:1 ~dies:2 ~patterns:63 ()
  in
  (* A drain on a prewarmed session replays every signature. *)
  Alcotest.(check int) "drain misses" 0 r.Volumebench.misses;
  Alcotest.(check int) "explain faults simulated" 0 r.Volumebench.explain_simulated;
  Alcotest.(check int) "timed + skipped arms" 2
    (List.length r.Volumebench.samples + List.length r.Volumebench.skipped_workers);
  let json = json_round_trip "volume" (Volumebench.to_json r) in
  has_keys "report"
    [ "circuit"; "dies"; "prewarm_ms"; "misses"; "explain_simulated"; "skipped_workers";
      "best_multiworker_speedup" ]
    json;
  Alcotest.(check (option int)) "JSON misses" (Some 0) (Obs_json.int (member "misses" json));
  List.iter
    (has_keys "sample"
       [ "workers"; "median_ms"; "best_ms"; "diagnoses_per_sec"; "speedup_vs_1" ])
    (items "samples" json)

let test_store () =
  (* [run] fails unless the snapshot it saved is accepted on load. *)
  let r = Storebench.run ~circuits:[ "alu8" ] ~repeats:1 ~patterns:63 () in
  (match r.Storebench.samples with
  | [ s ] ->
    Alcotest.(check bool) "fits the ceiling" true s.Storebench.fits_budget;
    Alcotest.(check bool) "snapshot on disk" true (s.Storebench.file_bytes > 0);
    Alcotest.(check bool) "speedup finite" true
      (Float.is_finite s.Storebench.load_speedup && s.Storebench.load_speedup > 0.0)
  | l -> Alcotest.failf "expected one sample, got %d" (List.length l));
  let json = json_round_trip "store" (Storebench.to_json r) in
  ignore (member "min_load_speedup" json : Obs_json.t);
  List.iter
    (has_keys "sample"
       [ "circuit"; "cold_ms"; "load_ms"; "load_first_ms"; "load_speedup"; "arena_bytes";
         "file_bytes"; "fits_budget" ])
    (items "samples" json)

let test_cover () =
  let r = Coverbench.run ~circuits:[ "c17"; "alu8" ] ~trials:3 () in
  List.iter
    (fun (row : Coverbench.row) ->
      Alcotest.(check int) (row.Coverbench.circuit ^ ": exact never larger") 0
        row.Coverbench.larger;
      Alcotest.(check bool) (row.Coverbench.circuit ^ ": exact mean <= greedy") true
        (row.Coverbench.exact_mean <= row.Coverbench.greedy_mean))
    r.Coverbench.rows;
  Alcotest.(check bool) "no larger trial" false (Coverbench.any_larger r);
  let json = json_round_trip "cover" (Coverbench.to_json r) in
  ignore (member "agreement" json : Obs_json.t);
  List.iter
    (has_keys "row" [ "circuit"; "trials"; "agree"; "larger"; "proved"; "greedy_ms"; "exact_ms" ])
    (items "rows" json)

(* The runner's order of calls: one untimed warm-up per arm (set-up,
   then call), then [repeats] rounds calling the arms round-robin. *)
let test_runner_order () =
  let log = ref [] in
  let arm name () =
    log := ("setup " ^ name) :: !log;
    fun () -> log := ("call " ^ name) :: !log
  in
  let samples = Arms.run ~repeats:2 [ arm "a"; arm "b" ] in
  let round = [ "setup a"; "call a"; "setup b"; "call b" ] in
  Alcotest.(check (list string)) "warm-up, then round-robin" (round @ round @ round)
    (List.rev !log);
  Alcotest.(check (list int)) "repeats per arm" [ 2; 2 ] (List.map List.length samples);
  List.iter
    (List.iter (fun ms -> Alcotest.(check bool) "non-negative ms" true (ms >= 0.0)))
    samples

let suite =
  [
    ( "bench-smoke",
      [
        Alcotest.test_case "parallel bench report shape" `Quick test_report_shape;
        Alcotest.test_case "parallel bench JSON" `Quick test_json_well_formed;
        Alcotest.test_case "unknown circuit" `Quick test_unknown_circuit;
        Alcotest.test_case "batch bench: report, JSON" `Quick test_batch;
        Alcotest.test_case "volume bench: zero-miss drain, JSON" `Quick test_volume;
        Alcotest.test_case "store bench: load accepted, JSON" `Quick test_store;
        Alcotest.test_case "cover bench: exact never larger, JSON" `Quick test_cover;
        Alcotest.test_case "runner: warm-up, then round-robin" `Quick test_runner_order;
      ] );
  ]
