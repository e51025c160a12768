(* Session-scoped configuration oracle: the config record must be the
   only thing the switches do.  Every prune x arena-state x domains
   combination of [Session.config] must yield a byte-identical
   diagnosis report on the rnd1k suite circuit, concurrent diagnoses
   sharing one session must match their sequential runs byte for byte,
   and a volume drain's per-die JSON must not depend on the worker
   count — the properties the volume service stands on. *)

let net =
  lazy
    (match Generators.find_suite "rnd1k" with
    | Some n -> n
    | None -> failwith "rnd1k missing from the suite")

let pats = lazy (Campaign.test_set (Lazy.force net))

let make_dlog seed multiplicity =
  let net = Lazy.force net and pats = Lazy.force pats in
  let expected = Logic_sim.responses net pats in
  let rng = Rng.create seed in
  let rec draw attempts =
    if attempts = 0 then None
    else begin
      let defects = Injection.random_defects rng net Injection.default_mix multiplicity in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then draw (attempts - 1) else Some dlog
    end
  in
  draw 20

let cold_session config = Session.create ~config (Lazy.force net) (Lazy.force pats)

let config ~prune ~prewarm =
  { Session.default_config with Session.prune; prewarm; domains = Some 1 }

let tmpdir () =
  let f = Filename.temp_file "mddsession" "" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

(* Every prune x {no arena, swept arena, arena loaded from disk} x
   domains {1, 4} corner produces one report, byte for byte.  Each
   prune setting gets its own store directory, so the loaded corner
   adopts the arena its own sweep saved. *)
let prop_all_combos_identical =
  QCheck.Test.make
    ~name:"prune x uncached/prewarmed/loaded x domains: byte-identical reports" ~count:2
    QCheck.(pair (int_range 1 100_000) (int_range 2 3))
    (fun (seed, multiplicity) ->
      match make_dlog seed multiplicity with
      | None -> true
      | Some dlog ->
        let report config =
          Report.render (Lazy.force net) (Noassume.diagnose_session (cold_session config) dlog)
        in
        let reference = report (config ~prune:true ~prewarm:false) in
        List.for_all
          (fun prune ->
            let dir = tmpdir () in
            let stored = { (config ~prune ~prewarm:true) with Session.store_dir = Some dir } in
            (* Sweeps and saves; every later [stored] session loads. *)
            ignore (cold_session stored);
            List.for_all
              (fun domains ->
                List.for_all
                  (fun c ->
                    String.equal reference (report { c with Session.domains = Some domains }))
                  [ config ~prune ~prewarm:false; config ~prune ~prewarm:true; stored ])
              [ 1; 4 ])
          [ true; false ])

(* Four dies drained concurrently over one shared warm session must
   produce exactly the reports their one-at-a-time runs produce —
   request-level parallelism may not leak state between diagnoses. *)
let prop_concurrent_matches_sequential =
  QCheck.Test.make
    ~name:"4 concurrent diagnoses on one warm session = sequential (byte-identical)"
    ~count:2
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let dies =
        List.filteri
          (fun i _ -> i < 4)
          (List.filter_map
             (fun i -> make_dlog (seed + (31 * i)) 2)
             [ 1; 2; 3; 4; 5; 6 ])
        |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
      in
      QCheck.assume (dies <> []);
      let session = cold_session (config ~prune:true ~prewarm:false) in
      let sequential = Volume.run ~workers:1 session dies in
      let concurrent = Volume.run ~workers:4 session dies in
      List.for_all2
        (fun (a : Volume.die_result) (b : Volume.die_result) ->
          String.equal a.Volume.text b.Volume.text && String.equal a.Volume.die b.Volume.die)
        sequential concurrent)

(* Disk round trip through the session layer, at 1 and 4 domains: a
   session that adopts its arena from a snapshot (zero simulation) must
   render the same bytes as the prewarming session that saved it and as
   a session without an arena — the packed arena's decode is the same
   whether the bytes came from a live sweep or from disk, and the
   domain count may change neither. *)
let prop_store_round_trip_identical =
  QCheck.Test.make
    ~name:"store round trip: loaded session = prewarm = cache-off (1 and 4 domains)"
    ~count:2
    QCheck.(pair (int_range 1 100_000) (int_range 2 3))
    (fun (seed, multiplicity) ->
      match make_dlog seed multiplicity with
      | None -> true
      | Some dlog ->
        let dir = Filename.temp_file "mddsession" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let render session =
          Report.render (Lazy.force net) (Noassume.diagnose_session session dlog)
        in
        let with_domains d base = { base with Session.domains = Some d } in
        let ok =
          List.for_all
            (fun domains ->
              let base =
                with_domains domains
                  { (config ~prune:true ~prewarm:true) with Session.store_dir = Some dir }
              in
              (* First create sweeps live and saves the snapshot... *)
              let saver = render (cold_session base) in
              (* ...the second adopts it from disk. *)
              let loaded_session = cold_session base in
              if Session.cache loaded_session = None then
                QCheck.Test.fail_report "loaded session holds no arena";
              let loaded = render loaded_session in
              let off =
                render (cold_session (with_domains domains (config ~prune:true ~prewarm:false)))
              in
              String.equal saver loaded && String.equal saver off)
            [ 1; 4 ]
        in
        ok)

(* Request-level parallelism on a prewarmed session: 4 workers reading
   one arena must reproduce the sequential drain byte for byte. *)
let prop_frozen_concurrent_matches_sequential =
  QCheck.Test.make
    ~name:"4-worker Volume.run on frozen cache = sequential (byte-identical)" ~count:2
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let dies =
        List.filteri
          (fun i _ -> i < 4)
          (List.filter_map
             (fun i -> make_dlog (seed + (31 * i)) 2)
             [ 1; 2; 3; 4; 5; 6 ])
        |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
      in
      QCheck.assume (dies <> []);
      let session = cold_session (config ~prune:true ~prewarm:true) in
      let sequential = Volume.run ~workers:1 session dies in
      let concurrent = Volume.run ~workers:4 session dies in
      List.for_all2
        (fun (a : Volume.die_result) (b : Volume.die_result) ->
          String.equal a.Volume.text b.Volume.text && String.equal a.Volume.die b.Volume.die)
        sequential concurrent)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Per-die JSON — report text and per-die counters — must be the same
   bytes whichever worker drains a die, with and without an arena.  The
   session's default kernel fan-out is left unset, so a die drained by
   the calling domain and one drained by a worker must still do the
   same work.  On the prewarmed session every probe is an arena hit. *)
let test_die_json_worker_independent () =
  let dies =
    List.filter_map (fun i -> make_dlog (3000 + i) 2) [ 1; 2; 3; 4; 5 ]
    |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
  in
  Alcotest.(check bool) "got dies" true (List.length dies >= 2);
  List.iter
    (fun prewarm ->
      let session =
        cold_session { Session.default_config with Session.prewarm }
      in
      let write workers =
        let dir = tmpdir () in
        ignore (Volume.write_results ~dir session (Volume.run ~workers session dies));
        dir
      in
      let one = write 1 and four = write 4 in
      List.iter
        (fun (d : Volume.die) ->
          let file dir = read_file (Filename.concat dir (d.Volume.name ^ ".json")) in
          Alcotest.(check string)
            (Printf.sprintf "%s.json (prewarm %b)" d.Volume.name prewarm)
            (file one) (file four))
        dies;
      Alcotest.(check string) "rollup.json"
        (read_file (Filename.concat one "rollup.json"))
        (read_file (Filename.concat four "rollup.json"));
      if prewarm then
        List.iter
          (fun (r : Volume.die_result) ->
            let get n =
              Option.value ~default:0 (List.assoc_opt n (Run_report.counters r.Volume.report))
            in
            Alcotest.(check int) (r.Volume.die ^ ": no misses") 0 (get "cache.misses");
            Alcotest.(check bool) (r.Volume.die ^ ": arena hits") true
              (get "cache.frozen_hits" > 0))
          (Volume.run ~workers:1 session dies))
    [ false; true ]

(* The baselines' signature source: replayed from the arena or
   simulated, the triples are the same, and every fault is one counted
   probe — a hit with an arena, a miss without. *)
let test_fault_triples_probes () =
  let net = Generators.c17 () in
  let pats = Pattern.random (Rng.create 3) ~npis:(Netlist.num_pis net) ~count:64 in
  let faults = Array.of_list (Fault_list.representatives (Fault_list.collapse net)) in
  let n = Array.length faults in
  let probe prewarm =
    let session =
      Session.create ~config:{ Session.default_config with Session.prewarm } net pats
    in
    Obs.reset ();
    Obs.enable ();
    let triples = Session.fault_triples session faults in
    let get name = Obs.value (Obs.counter name) in
    let counts = (get "cache.frozen_hits", get "cache.misses") in
    Obs.disable ();
    Obs.reset ();
    (triples, counts)
  in
  let simulated, (hits0, misses0) = probe false in
  let replayed, (hits1, misses1) = probe true in
  Alcotest.(check bool) "same triples" true (simulated = replayed);
  Alcotest.(check (pair int int)) "no arena: all misses" (0, n) (hits0, misses0);
  Alcotest.(check (pair int int)) "arena: all hits" (n, 0) (hits1, misses1)

(* A snapshot swept by a pruned session holds class representatives
   only.  An unpruned session probes every raw candidate key, so it must
   reject that file, sweep its own pool and overwrite the snapshot —
   otherwise every non-representative row would be simulated again on
   every die.  Counters are read from the global registry around each
   [create]; per-die misses from the drain's per-die sinks. *)
let test_store_pool_mismatch () =
  let dies =
    List.filter_map (fun i -> make_dlog (4000 + i) 2) [ 1; 2; 3 ]
    |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
  in
  Alcotest.(check bool) "got dies" true (List.length dies >= 2);
  let dir = tmpdir () in
  let stored prune = { (config ~prune ~prewarm:true) with Session.store_dir = Some dir } in
  let create_counting c =
    Obs.reset ();
    Obs.enable ();
    let session = cold_session c in
    let get name = Obs.value (Obs.counter name) in
    let counts = (get "store.loads", get "store.rejects", get "store.saves") in
    Obs.disable ();
    Obs.reset ();
    (session, counts)
  in
  let _, saved = create_counting (stored true) in
  Alcotest.(check (triple int int int)) "pruned sweep saved" (0, 0, 1) saved;
  let unpruned, counts = create_counting (stored false) in
  Alcotest.(check (triple int int int)) "representatives-only snapshot rejected, full pool saved"
    (0, 1, 1) counts;
  let reference =
    List.map
      (fun (r : Volume.die_result) -> r.Volume.text)
      (Volume.run ~workers:1 (cold_session (config ~prune:false ~prewarm:false)) dies)
  in
  let check_drain label session =
    let results = Volume.run ~workers:1 session dies in
    List.iter2
      (fun (r : Volume.die_result) text ->
        let misses =
          Option.value ~default:0
            (List.assoc_opt "cache.misses" (Run_report.counters r.Volume.report))
        in
        Alcotest.(check int) (label ^ " " ^ r.Volume.die ^ ": no misses") 0 misses;
        Alcotest.(check string) (label ^ " " ^ r.Volume.die ^ ": report") text r.Volume.text)
      results reference
  in
  check_drain "swept" unpruned;
  let reloaded, counts = create_counting (stored false) in
  Alcotest.(check (triple int int int)) "full-pool snapshot loads" (1, 0, 0) counts;
  check_drain "loaded" reloaded;
  let _, counts = create_counting (stored true) in
  Alcotest.(check (triple int int int)) "a pruned session loads the full pool too" (1, 0, 0)
    counts

(* The volume rollup ranks by dies-implicated and carries every die. *)
let test_rollup () =
  let dies =
    List.filter_map (fun i -> make_dlog (1000 + i) 2) [ 1; 2; 3 ]
    |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
  in
  Alcotest.(check bool) "got dies" true (dies <> []);
  let session = cold_session (config ~prune:true ~prewarm:false) in
  let results = Volume.run ~workers:1 session dies in
  let ru = Volume.rollup session results in
  Alcotest.(check int) "rollup die count" (List.length dies) ru.Volume.dies;
  let sorted_ok =
    let rec check = function
      | a :: (b :: _ as rest) ->
        a.Volume.dies_implicated >= b.Volume.dies_implicated && check rest
      | _ -> true
    in
    check ru.Volume.nets
  in
  Alcotest.(check bool) "nets sorted by dies implicated" true sorted_ok;
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "net %s within die count" n.Volume.net)
        true
        (n.Volume.dies_implicated >= 1 && n.Volume.dies_implicated <= ru.Volume.dies))
    ru.Volume.nets

(* Per-die sinks: each die's report carries its own counters (a
   diagnosis always runs the explain phase at least once), and the
   volume drain does not require the global registry to be enabled. *)
let test_per_die_sinks () =
  let dies =
    List.filter_map (fun i -> make_dlog (2000 + i) 2) [ 1; 2 ]
    |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
  in
  Alcotest.(check bool) "got dies" true (dies <> []);
  let session = cold_session (config ~prune:true ~prewarm:false) in
  let results = Volume.run ~workers:1 session dies in
  List.iter
    (fun (r : Volume.die_result) ->
      let counters = Run_report.counters r.Volume.report in
      let evals = Option.value ~default:0 (List.assoc_opt "scoring.evaluations" counters) in
      Alcotest.(check bool)
        (Printf.sprintf "%s scored at least one multiplet" r.Volume.die)
        true (evals > 0))
    results

let suite =
  [
    ( "session",
      [
        Alcotest.test_case "volume rollup shape" `Quick test_rollup;
        Alcotest.test_case "per-die sinks carry counters" `Quick test_per_die_sinks;
        Alcotest.test_case "per-die JSON identical for any worker count" `Quick
          test_die_json_worker_independent;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            prop_all_combos_identical;
            prop_concurrent_matches_sequential;
            prop_store_round_trip_identical;
            prop_frozen_concurrent_matches_sequential;
          ]
      @ [
          Alcotest.test_case "fault_triples: arena = simulated, one probe per fault" `Quick
            test_fault_triples_probes;
          Alcotest.test_case "pruned snapshot rejected by an unpruned session" `Quick
            test_store_pool_mismatch;
        ] );
  ]
