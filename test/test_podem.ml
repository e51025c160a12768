(* The ATPG contract: every Test pattern actually detects its fault
   (validated with the independent fault simulator), and Untestable is
   only returned for genuinely redundant faults. *)

let check_detects net fault pattern =
  let sim = Fault_sim.create net in
  let block =
    {
      Pattern.base = 0;
      width = 1;
      pi_words = Array.map (fun b -> if b then 1 else 0) pattern;
    }
  in
  let good = Logic_sim.simulate_block net block in
  Fault_sim.detects sim ~good ~width:1 ~site:fault.Fault_list.site
    ~stuck:fault.Fault_list.stuck
  <> 0

let exercise_all_faults name net =
  let collapsed = Fault_list.collapse net in
  let aborted = ref 0 in
  List.iter
    (fun fault ->
      match Podem.generate net fault with
      | Podem.Test pattern ->
        if not (check_detects net fault pattern) then
          Alcotest.failf "%s: pattern does not detect %s" name
            (Format.asprintf "%a" (Fault_list.pp_fault net) fault)
      | Podem.Untestable -> ()
      | Podem.Aborted -> incr aborted)
    (Fault_list.representatives collapsed);
  !aborted

let test_c17_all_faults () =
  (* Every c17 fault is testable. *)
  let net = Generators.c17 () in
  let collapsed = Fault_list.collapse net in
  List.iter
    (fun fault ->
      match Podem.generate net fault with
      | Podem.Test pattern ->
        Alcotest.(check bool) "detects" true (check_detects net fault pattern)
      | Podem.Untestable | Podem.Aborted ->
        Alcotest.failf "c17 fault not covered: %s"
          (Format.asprintf "%a" (Fault_list.pp_fault net) fault))
    (Fault_list.representatives collapsed)

let test_adder_all_faults () =
  let aborted = exercise_all_faults "add8" (Generators.ripple_adder 8) in
  Alcotest.(check int) "no aborts" 0 aborted

let test_parity_all_faults () =
  let aborted = exercise_all_faults "par8" (Generators.parity 8) in
  Alcotest.(check int) "no aborts" 0 aborted

let test_decoder_all_faults () =
  let aborted = exercise_all_faults "dec3" (Generators.decoder 3) in
  Alcotest.(check int) "no aborts" 0 aborted

let test_untestable_redundant () =
  (* z = OR(a, NOT a) is constantly 1: z sa1 is undetectable. *)
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let na = Builder.not_ b ~name:"na" a in
  let z = Builder.or_ b ~name:"z" [ a; na ] in
  Builder.mark_output b z;
  let net = Builder.finalize b in
  (match Podem.generate net { Fault_list.site = z; stuck = true } with
  | Podem.Untestable -> ()
  | Podem.Test _ -> Alcotest.fail "z sa1 should be untestable"
  | Podem.Aborted -> Alcotest.fail "should prove redundancy, not abort");
  (* z sa0 is testable (any pattern). *)
  match Podem.generate net { Fault_list.site = z; stuck = false } with
  | Podem.Test p -> Alcotest.(check bool) "detects" true
      (check_detects net { Fault_list.site = z; stuck = false } p)
  | Podem.Untestable | Podem.Aborted -> Alcotest.fail "z sa0 must be testable"

let test_masked_internal_redundancy () =
  (* y = AND(a, b); z = OR(y, a).  With cone structure z = a (absorption):
     y sa0 is undetectable at z. *)
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let y = Builder.and_ b ~name:"y" [ a; bb ] in
  let z = Builder.or_ b ~name:"z" [ y; a ] in
  Builder.mark_output b z;
  let net = Builder.finalize b in
  match Podem.generate net { Fault_list.site = y; stuck = false } with
  | Podem.Untestable -> ()
  | Podem.Test _ -> Alcotest.fail "absorbed fault should be untestable"
  | Podem.Aborted -> Alcotest.fail "small circuit must not abort"

let test_pi_faults () =
  let net = Generators.c17 () in
  let g1 = Option.get (Netlist.find net "G1") in
  (match Podem.generate net { Fault_list.site = g1; stuck = true } with
  | Podem.Test p ->
    Alcotest.(check bool) "detects" true
      (check_detects net { Fault_list.site = g1; stuck = true } p);
    (* Exciting G1 sa1 requires applying G1 = 0. *)
    Alcotest.(check bool) "g1 is 0" false p.(0)
  | Podem.Untestable | Podem.Aborted -> Alcotest.fail "PI fault must be testable")

let test_deterministic () =
  let net = Generators.ripple_adder 4 in
  let fault = { Fault_list.site = (Netlist.pos net).(2); stuck = true } in
  let a = Podem.generate net fault in
  let b = Podem.generate net fault in
  Alcotest.(check bool) "same result" true (a = b)

let qcheck_random_circuits =
  QCheck.Test.make ~name:"podem tests detect their faults (random circuits)" ~count:10
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let net = Generators.random_logic ~gates:50 ~pis:6 ~pos:4 ~seed in
      let collapsed = Fault_list.collapse net in
      List.for_all
        (fun fault ->
          match Podem.generate net fault with
          | Podem.Test pattern -> check_detects net fault pattern
          | Podem.Untestable | Podem.Aborted -> true)
        (Fault_list.representatives collapsed))

(* --- Differential oracle: event-driven engine vs full resimulation --- *)

let same_result a b =
  match (a, b) with
  | Podem.Test p, Podem_ref.Test q -> p = q
  | Podem.Untestable, Podem_ref.Untestable | Podem.Aborted, Podem_ref.Aborted -> true
  | (Podem.Test _ | Podem.Untestable | Podem.Aborted), _ -> false

(* The first collapsed fault on which the two engines disagree. *)
let first_mismatch ?backtrack_limit ?fill_seed net =
  List.find_opt
    (fun fault ->
      not
        (same_result
           (Podem.generate ?backtrack_limit ?fill_seed net fault)
           (Podem_ref.generate ?backtrack_limit ?fill_seed net fault)))
    (Fault_list.representatives (Fault_list.collapse net))

let check_matches_ref ?backtrack_limit ?fill_seed name net =
  match first_mismatch ?backtrack_limit ?fill_seed net with
  | None -> ()
  | Some fault ->
    Alcotest.failf "%s: engines disagree on %s" name
      (Format.asprintf "%a" (Fault_list.pp_fault net) fault)

let qcheck_matches_ref =
  QCheck.Test.make ~name:"podem matches the full-resimulation oracle (random circuits)"
    ~count:24
    QCheck.(quad (int_range 1 100_000) (int_range 0 2) (int_range 0 2) (int_range 0 3))
    (fun (seed, size, limit, fill) ->
      let gates, pis, pos = [| (40, 6, 4); (120, 10, 6); (300, 16, 8) |].(size) in
      let net = Generators.random_logic ~gates ~pis ~pos ~seed in
      let backtrack_limit = [| 1; 8; 128 |].(limit) in
      let fill_seed = [| 7; 1; 12_345; 999_999 |].(fill) in
      first_mismatch ~backtrack_limit ~fill_seed net = None)

let test_suite_circuits_match_ref () =
  List.iter
    (fun name ->
      let net = Option.get (Generators.find_suite name) in
      check_matches_ref name net;
      check_matches_ref ~backtrack_limit:1 ~fill_seed:3 name net)
    [ "mult8"; "alu8"; "cla16" ]

let suite =
  [
    ( "podem",
      [
        Alcotest.test_case "c17 full coverage" `Quick test_c17_all_faults;
        Alcotest.test_case "add8 all faults" `Quick test_adder_all_faults;
        Alcotest.test_case "par8 all faults" `Quick test_parity_all_faults;
        Alcotest.test_case "dec3 all faults" `Quick test_decoder_all_faults;
        Alcotest.test_case "untestable redundancy" `Quick test_untestable_redundant;
        Alcotest.test_case "absorbed fault untestable" `Quick test_masked_internal_redundancy;
        Alcotest.test_case "PI faults" `Quick test_pi_faults;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        QCheck_alcotest.to_alcotest qcheck_random_circuits;
        Alcotest.test_case "mult8/alu8/cla16 match the oracle" `Quick
          test_suite_circuits_match_ref;
        QCheck_alcotest.to_alcotest qcheck_matches_ref;
      ] );
  ]
