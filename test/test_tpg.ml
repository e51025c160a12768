let test_full_coverage_structured () =
  (* Irredundant structured circuits must reach 100% of testable faults. *)
  List.iter
    (fun (name, net) ->
      let report = Tpg.generate ~seed:1 net in
      if report.Tpg.coverage < 1.0 then
        Alcotest.failf "%s: coverage %.3f (aborted %d)" name report.Tpg.coverage
          report.Tpg.aborted)
    [
      ("c17", Generators.c17 ());
      ("add8", Generators.ripple_adder 8);
      ("dec3", Generators.decoder 3);
      ("par8", Generators.parity 8);
      ("cmp8", Generators.comparator 8);
    ]

let test_report_consistency () =
  let net = Generators.ripple_adder 8 in
  let r = Tpg.generate ~seed:1 net in
  Alcotest.(check bool) "detected <= total" true (r.Tpg.detected <= r.Tpg.total_faults);
  Alcotest.(check bool) "untestable + detected <= total" true
    (r.Tpg.untestable + r.Tpg.detected <= r.Tpg.total_faults);
  Alcotest.(check bool) "some patterns" true (Pattern.count r.Tpg.patterns > 0);
  Alcotest.(check int) "pattern width" (Netlist.num_pis net)
    (Pattern.npis r.Tpg.patterns)

let test_coverage_of_matches_report () =
  let net = Generators.parity 8 in
  let r = Tpg.generate ~seed:1 net in
  (* With no untestable faults the two coverage numbers coincide. *)
  if r.Tpg.untestable = 0 then
    Alcotest.(check bool) "coverage_of agrees" true
      (abs_float (Tpg.coverage_of net r.Tpg.patterns -. r.Tpg.coverage) < 1e-9)

let test_compact_preserves_coverage () =
  let net = Generators.ripple_adder 8 in
  let r = Tpg.generate ~seed:1 net in
  let compacted = Tpg.compact net r.Tpg.patterns in
  Alcotest.(check bool) "not larger" true
    (Pattern.count compacted <= Pattern.count r.Tpg.patterns);
  Alcotest.(check bool) "coverage preserved" true
    (Tpg.coverage_of net compacted >= Tpg.coverage_of net r.Tpg.patterns -. 1e-9)

let test_deterministic () =
  let net = Generators.decoder 3 in
  let a = Tpg.generate ~seed:5 net in
  let b = Tpg.generate ~seed:5 net in
  Alcotest.(check int) "same count" (Pattern.count a.Tpg.patterns)
    (Pattern.count b.Tpg.patterns);
  Alcotest.(check bool) "same patterns" true
    (List.for_all
       (fun p -> Pattern.to_string a.Tpg.patterns p = Pattern.to_string b.Tpg.patterns p)
       (List.init (Pattern.count a.Tpg.patterns) Fun.id))

let test_redundant_circuit_reports_untestable () =
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let na = Builder.not_ b ~name:"na" a in
  let z = Builder.or_ b ~name:"z" [ a; na ] in
  Builder.mark_output b z;
  let net = Builder.finalize b in
  let r = Tpg.generate ~seed:1 net in
  Alcotest.(check bool) "has untestable" true (r.Tpg.untestable > 0);
  (* Coverage excludes untestable faults from the denominator. *)
  Alcotest.(check bool) "full coverage of testables" true (r.Tpg.coverage >= 1.0 -. 1e-9)

(* Count distinct patterns of [pats] detecting [f]. *)
let detection_count net pats f =
  let sim = Fault_sim.create net in
  let count = ref 0 in
  List.iter
    (fun block ->
      let good = Logic_sim.simulate_block net block in
      let w =
        Fault_sim.detects sim ~good ~width:block.Pattern.width ~site:f.Fault_list.site
          ~stuck:f.Fault_list.stuck
      in
      let rec pop w = if w = 0 then 0 else 1 + pop (w land (w - 1)) in
      count := !count + pop w)
    (Pattern.blocks pats);
  !count

let test_ndetect_reaches_n () =
  let net = Generators.ripple_adder 8 in
  let n = 3 in
  let r = Tpg.generate_ndetect ~seed:1 ~n net in
  Alcotest.(check bool) "full n-coverage" true (r.Tpg.coverage >= 1.0 -. 1e-9);
  let collapsed = Fault_list.collapse net in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Format.asprintf "%a detected %d times" (Fault_list.pp_fault net) f n)
        true
        (detection_count net r.Tpg.patterns f >= n))
    (Fault_list.representatives collapsed)

let test_ndetect_1_equals_detect () =
  (* N=1 must still achieve full single-detect coverage. *)
  let net = Generators.decoder 3 in
  let r = Tpg.generate_ndetect ~seed:1 ~n:1 net in
  Alcotest.(check bool) "coverage" true (r.Tpg.coverage >= 1.0 -. 1e-9)

let test_ndetect_grows_with_n () =
  let net = Generators.parity 8 in
  let p1 = Tpg.generate_ndetect ~seed:1 ~n:1 net in
  let p3 = Tpg.generate_ndetect ~seed:1 ~n:3 net in
  Alcotest.(check bool) "more patterns" true
    (Pattern.count p3.Tpg.patterns >= Pattern.count p1.Tpg.patterns)

(* --- Pinned test sets (recorded before PODEM implication became
   event-driven: the engine must keep them byte for byte). --- *)

let md5_of_patterns pats = Digest.to_hex (Digest.string (Pattern.to_text pats))

let test_canonical_rnd1k_pinned () =
  let net = Option.get (Generators.find_suite "rnd1k") in
  let r = Campaign.test_report net in
  Alcotest.(check int) "total" 1850 r.Tpg.total_faults;
  Alcotest.(check int) "untestable" 166 r.Tpg.untestable;
  Alcotest.(check int) "aborted" 172 r.Tpg.aborted;
  Alcotest.(check int) "patterns" 288 (Pattern.count r.Tpg.patterns);
  Alcotest.(check string) "digest" "1800243af2fd595b96f86fd3597c13ce"
    (md5_of_patterns r.Tpg.patterns)

let test_ndetect_cmp16_pinned () =
  let net = Option.get (Generators.find_suite "cmp16") in
  let r = Tpg.generate_ndetect ~seed:1 ~n:3 net in
  Alcotest.(check int) "patterns" 847 (Pattern.count r.Tpg.patterns);
  Alcotest.(check string) "digest" "8b6b3347fcfdf53b79fba74b0b555b02"
    (md5_of_patterns r.Tpg.patterns)

(* The engine's counters are deterministic: nonzero, and the same for
   two identical runs. *)
let test_atpg_counters () =
  let net = Option.get (Generators.find_suite "penc4") in
  let names = [ "atpg.podem_calls"; "atpg.backtracks"; "atpg.gate_evals" ] in
  let run () =
    let sink = Obs.sink () in
    ignore (Obs.with_sink sink (fun () -> Tpg.generate ~seed:1 net));
    let snap = Obs.sink_snapshot sink in
    ( List.map (fun name -> List.assoc name snap.Obs.counters) names,
      List.exists (fun p -> p.Obs.p_name = "atpg.generate" && p.Obs.p_count = 1) snap.Obs.phases )
  in
  let first, phased = run () in
  let second, _ = run () in
  List.iter2 (fun name v -> if v <= 0 then Alcotest.failf "%s is %d" name v) names first;
  Alcotest.(check (list int)) "identical across runs" first second;
  Alcotest.(check bool) "atpg.generate phase" true phased

let suite =
  [
    ( "tpg",
      [
        Alcotest.test_case "full coverage structured" `Quick test_full_coverage_structured;
        Alcotest.test_case "report consistency" `Quick test_report_consistency;
        Alcotest.test_case "coverage_of matches" `Quick test_coverage_of_matches_report;
        Alcotest.test_case "compaction preserves coverage" `Quick
          test_compact_preserves_coverage;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "redundant circuit" `Quick test_redundant_circuit_reports_untestable;
        Alcotest.test_case "n-detect reaches n" `Quick test_ndetect_reaches_n;
        Alcotest.test_case "n-detect n=1" `Quick test_ndetect_1_equals_detect;
        Alcotest.test_case "n-detect grows with n" `Quick test_ndetect_grows_with_n;
        Alcotest.test_case "rnd1k canonical test set pinned" `Quick
          test_canonical_rnd1k_pinned;
        Alcotest.test_case "cmp16 3-detect set pinned" `Quick test_ndetect_cmp16_pinned;
        Alcotest.test_case "ATPG counters deterministic" `Quick test_atpg_counters;
      ] );
  ]
