let v3 = Alcotest.testable Logic.pp_v3 Logic.v3_equal

let test_binary_agrees_with_bool () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  for p = 0 to Pattern.count pats - 1 do
    let inputs = Pattern.pattern pats p in
    let bool_values = Logic_sim.simulate_pattern net inputs in
    let v3_values = Ternary_sim.simulate net (Array.map Logic.v3_of_bool inputs) in
    Netlist.iter_nets net (fun n ->
        Alcotest.check v3 "agrees" (Logic.v3_of_bool bool_values.(n)) v3_values.(n))
  done

let test_x_propagation () =
  (* z = AND(a, b): a=0 kills X on b; a=1 passes it. *)
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let z = Builder.and_ b ~name:"z" [ a; bb ] in
  Builder.mark_output b z;
  let net = Builder.finalize b in
  let sim pa pb = (Ternary_sim.simulate net [| pa; pb |]).(z) in
  Alcotest.check v3 "0 kills X" Logic.V0 (sim Logic.V0 Logic.X);
  Alcotest.check v3 "1 passes X" Logic.X (sim Logic.V1 Logic.X);
  Alcotest.check v3 "X and X" Logic.X (sim Logic.X Logic.X)

let test_forced_overrides () =
  let net = Generators.c17 () in
  let g11 = Option.get (Netlist.find net "G11") in
  let inputs = Array.make 5 Logic.V1 in
  let values = Ternary_sim.simulate_forced net inputs [ (g11, Logic.X) ] in
  Alcotest.check v3 "forced X" Logic.X values.(g11);
  (* G16 = NAND(G2, G11) with G2=1: output = NOT G11 = X. *)
  let g16 = Option.get (Netlist.find net "G16") in
  Alcotest.check v3 "X propagates" Logic.X values.(g16)

let test_pi_width_check () =
  let net = Generators.c17 () in
  Alcotest.check_raises "width" (Invalid_argument "Ternary_sim: PI vector width mismatch")
    (fun () -> ignore (Ternary_sim.simulate net [| Logic.V0 |]))

let suite =
  [
    ( "ternary_sim",
      [
        Alcotest.test_case "binary agrees with bool sim" `Quick test_binary_agrees_with_bool;
        Alcotest.test_case "x propagation" `Quick test_x_propagation;
        Alcotest.test_case "forced overrides" `Quick test_forced_overrides;
        Alcotest.test_case "pi width check" `Quick test_pi_width_check;
      ] );
  ]
