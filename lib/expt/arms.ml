(* The parts every bench harness shares: problem set-up, the arm runner
   and the JSON writer.  A harness adds only its arms, its sample record
   and its table. *)

let now_ms () = Unix.gettimeofday () *. 1e3

let find_circuit name =
  match Generators.find name with
  | Some net -> net
  | None -> invalid_arg ("unknown circuit or tier " ^ name)

(* A tester never sends a passing die to diagnosis: redraw. *)
let draw_failing rng net pats ~expected ~multiplicity =
  let rec draw attempts =
    if attempts = 0 then None
    else
      let defects = Injection.random_defects rng net Injection.default_mix multiplicity in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then draw (attempts - 1) else Some (defects, dlog)
  in
  draw 50

(* The RNG draws the random patterns first, then the dies in order, so
   a given seed always yields the same problem. *)
let problem ~patterns ~multiplicity ~dies ~seed circuit =
  let net = find_circuit circuit in
  let rng = Rng.create seed in
  let pats =
    match patterns with
    | `Test_set -> Campaign.test_set net
    | `Random count -> Pattern.random rng ~npis:(Netlist.num_pis net) ~count
  in
  let expected = Logic_sim.responses net pats in
  let die _ =
    match draw_failing rng net pats ~expected ~multiplicity with
    | Some (_, dlog) -> dlog
    | None -> failwith ("no failing defect combination found on " ^ circuit)
  in
  (net, pats, List.init dies die)

type arm = unit -> unit -> unit

let call f () () = ignore (Sys.opaque_identity (f ()))

(* Each timed call starts from a collected heap, as in a fresh process:
   otherwise the garbage of the call before (a sweep's scratch, a
   discarded session) is marked and swept on the next call's clock. *)
let time arm =
  let f = arm () in
  Gc.full_major ();
  let t0 = now_ms () in
  f ();
  now_ms () -. t0

(* Interleaving keeps every arm inside the same machine-speed window: a
   slow stretch of a shared host lands on all arms of a round, not on
   one arm's block, so ratios between arms stay stable. *)
let run ~repeats arms =
  List.iter (fun arm -> arm () ()) arms;
  let samples = List.map (fun _ -> Array.make repeats 0.0) arms in
  for i = 0 to repeats - 1 do
    List.iter2 (fun arm a -> a.(i) <- time arm) arms samples
  done;
  List.map Array.to_list samples

let int n = Obs_json.Num (float_of_int n)

(* Top-level members one per line, listed records one per line: the
   committed files stay readable and diff line by line. *)
let write_json path json =
  let line = Obs_json.to_string in
  let member (key, value) =
    Printf.sprintf "  \"%s\": %s" (Obs_json.escape key)
      (match value with
      | Obs_json.List (Obs_json.Obj _ :: _ as items) ->
        "[\n    " ^ String.concat ",\n    " (List.map line items) ^ "\n  ]"
      | v -> line v)
  in
  let text =
    match json with
    | Obs_json.Obj members -> "{\n" ^ String.concat ",\n" (List.map member members) ^ "\n}\n"
    | v -> line v ^ "\n"
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc text)
