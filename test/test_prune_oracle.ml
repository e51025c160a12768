(* Oracle for the exactness-preserving prunes and the signature arena:
   with pruning on and a prewarmed arena, every diagnosis report must be
   byte-identical to the unpruned reference without an arena — on
   random circuits, all defect kinds, multiplicities 1-4 — and one arena
   read from several domains at once must not change any result. *)

let random_problem seed multiplicity =
  let gates = 30 + (seed mod 150) in
  let net = Generators.random_logic ~gates ~pis:6 ~pos:5 ~seed in
  let rng = Rng.create (seed * 31) in
  let pats = Pattern.random rng ~npis:6 ~count:96 in
  let expected = Logic_sim.responses net pats in
  let k = min multiplicity (max 1 (Injection.capacity net / 4)) in
  let defects = Injection.random_defects rng net Injection.default_mix k in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog)

(* A session with the given prune choice; [cache] builds the whole-pool
   arena at creation. *)
let cold_session ~prune ~cache net pats =
  Session.create ~config:{ Session.default_config with Session.prune; prewarm = cache } net pats

let prop_noassume_report_identical =
  QCheck.Test.make
    ~name:"Noassume report: pruned+cached = unpruned+uncached (byte-identical)"
    ~count:12
    QCheck.(pair (int_range 1 100_000) (int_range 1 4))
    (fun (seed, multiplicity) ->
      let net, pats, dlog = random_problem seed multiplicity in
      if Datalog.num_failing dlog = 0 then true
      else begin
        let report ~prune ~cache =
          let session = cold_session ~prune ~cache net pats in
          Report.render net (Noassume.diagnose_session session dlog)
        in
        let fast = report ~prune:true ~cache:true in
        let slow = report ~prune:false ~cache:false in
        String.equal fast slow
      end)

(* Matrix-level oracle, finer than the report: every candidate the pruned
   build keeps answers exactly as in the unpruned build, and every
   candidate the activation screen dropped covers nothing there. *)
let prop_matrix_rows_match =
  QCheck.Test.make
    ~name:"Explain.build: pruned rows = unpruned rows; screened rows empty"
    ~count:15
    QCheck.(pair (int_range 1 100_000) (int_range 1 4))
    (fun (seed, multiplicity) ->
      let net, pats, dlog = random_problem seed multiplicity in
      let mp = Explain.build ~prune:true net pats dlog in
      let mu = Explain.build ~prune:false net pats dlog in
      let nfp = Array.length (Explain.failing mp) in
      let rows_equal cp cu =
        Bitvec.equal (Explain.covers mp cp) (Explain.covers mu cu)
        && Explain.mispredict_pass mp cp = Explain.mispredict_pass mu cu
        && Explain.mispredict_fail mp cp = Explain.mispredict_fail mu cu
        &&
        let ok = ref true in
        for fp = 0 to nfp - 1 do
          if
            Explain.matched mp cp fp <> Explain.matched mu cu fp
            || Explain.spurious mp cp fp <> Explain.spurious mu cu fp
            || Explain.exact mp cp fp <> Explain.exact mu cu fp
          then ok := false
        done;
        !ok
      in
      Explain.num_seeded mp = Explain.num_seeded mu
      && Array.length (Explain.candidates mp) <= Array.length (Explain.candidates mu)
      && Array.for_all
           (fun (cp, f) ->
             match Explain.find_candidate mu f with
             | None -> false
             | Some cu -> rows_equal cp cu)
           (Array.mapi (fun i f -> (i, f)) (Explain.candidates mp))
      && Array.for_all
           (fun f ->
             match Explain.find_candidate mp f with
             | Some _ -> true (* kept: covered by the row check above *)
             | None -> (
               (* screened out: must have explained nothing *)
               match Explain.find_candidate mu f with
               | None -> false
               | Some cu -> Bitvec.is_empty (Explain.covers mu cu)))
           (Explain.candidates mu))

let prop_single_and_slat_reports_identical =
  QCheck.Test.make
    ~name:"Single/SLAT reports: cached = uncached (byte-identical)" ~count:10
    QCheck.(pair (int_range 1 100_000) (int_range 1 4))
    (fun (seed, multiplicity) ->
      let net, pats, dlog = random_problem seed multiplicity in
      if Datalog.num_failing dlog = 0 then true
      else begin
        let single ~cache =
          let session = cold_session ~prune:true ~cache net pats in
          Report.render_single net (Single_diag.diagnose_session session dlog)
        in
        let slat ~prune ~cache =
          let session = cold_session ~prune ~cache net pats in
          let m = Explain.build_session session dlog in
          Report.render_slat net (Slat_diag.diagnose m pats)
        in
        String.equal (single ~cache:true) (single ~cache:false)
        && String.equal (slat ~prune:true ~cache:true) (slat ~prune:false ~cache:false)
      end)

(* Several domains read one shared arena at once, each running a full
   diagnosis of the same problem; every domain must produce the report
   of a session without an arena. *)
let test_concurrent_shared_cache () =
  let net, pats, dlog = random_problem 4242 3 in
  Alcotest.(check bool) "problem has failures" true (Datalog.num_failing dlog > 0);
  let diagnose session () =
    Report.render net
      (Noassume.diagnose_session
         ~config:{ Noassume.default_config with domains = Some 1 }
         session dlog)
  in
  let reference = diagnose (cold_session ~prune:true ~cache:false net pats) () in
  for round = 1 to 3 do
    let session = cold_session ~prune:true ~cache:true net pats in
    let workers = Array.init 4 (fun _ -> Domain.spawn (diagnose session)) in
    Array.iteri
      (fun i d ->
        Alcotest.(check string)
          (Printf.sprintf "round %d worker %d" round i)
          reference (Domain.join d))
      workers
  done

let suite =
  [
    ( "prune-oracle",
      [
        Alcotest.test_case "concurrent domains share one cache" `Slow
          test_concurrent_shared_cache;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            prop_noassume_report_identical;
            prop_matrix_rows_match;
            prop_single_and_slat_reports_identical;
          ] );
  ]
