(* Batched-kernel A/B bench: wall-clock medians of the explanation
   matrix built by [Explain] (the PPSFP batch pass) versus the per-fault
   reference [Explain_ref] (one scalar cone walk per fault and block),
   across netlist tiers, yielding a fig1-style ms-per-matrix curve over
   gate count for each mode.

   Methodology differs from [Parbench] in two deliberate ways:

   - Patterns are seeded-random, not deterministic ATPG: the large tiers
     exist to measure the simulation kernel, and [Campaign.test_set]
     costs minutes at 10k+ gates — far more than every timed run
     together — while changing nothing about what the kernel does per
     pattern block.

   - Both modes run against one session without a signature arena, so
     both simulate every (fault, block) pair on every run and the A/B
     compares kernels, not replays.  The reference reuses the batched
     build's candidate pool, and the two matrices are checked equal
     before anything is timed. *)

type mode = Batched | Per_fault

let mode_name = function Batched -> "batched" | Per_fault -> "per-fault"

type sample = {
  tier : string;
  gates : int;  (** Net count of the tier circuit (PIs + gates). *)
  patterns : int;
  mode : mode;
  explain_ms : float;  (** Median wall-clock of one matrix build at 1 domain. *)
  explain_best_ms : float;  (** Minimum over the timed runs. *)
}

type report = { repeats : int; samples : sample list }

let now_ms () = Unix.gettimeofday () *. 1e3

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* One warm-up per mode, then [repeats] timed runs per mode with the
   modes interleaved run by run; returns per-mode (median, minimum).
   Two noise defenses, both load-bearing on a shared host:
   interleaving keeps both modes inside the same machine-speed window
   (back-to-back mode blocks let a slow half hour land entirely on one
   side and skew the ratio), and speedups later divide the minima —
   scheduling noise only ever adds time, so the minimum estimates true
   kernel cost far more stably than the median.  The medians are kept
   for the curves. *)
let time_ab ~repeats f =
  let time mode =
    let t0 = now_ms () in
    f mode;
    now_ms () -. t0
  in
  ignore (time Per_fault);
  ignore (time Batched);
  let pf = Array.make repeats 0.0 and bt = Array.make repeats 0.0 in
  for i = 0 to repeats - 1 do
    pf.(i) <- time Per_fault;
    bt.(i) <- time Batched
  done;
  let stats a = (median a, Array.fold_left min a.(0) a) in
  (stats pf, stats bt)

let find_circuit name =
  match Generators.find_suite name with
  | Some n -> n
  | None -> (
    match Generators.find_tier name with
    | Some n -> n
    | None -> invalid_arg ("Batchbench: unknown circuit or tier " ^ name))

let prepare ~circuit ~patterns ~multiplicity ~seed =
  let net = find_circuit circuit in
  let rng = Rng.create seed in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:patterns in
  let expected = Logic_sim.responses net pats in
  let rec make_dlog attempts =
    if attempts = 0 then failwith "Batchbench: no failing defect combination found"
    else begin
      let defects = Injection.random_defects rng net Injection.default_mix multiplicity in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then make_dlog (attempts - 1) else dlog
    end
  in
  (net, pats, make_dlog 50)

(* 8 full 63-bit blocks: partial last blocks waste batch-slab width, and
   fewer blocks under-amortize the per-cone walk the batch pass shares
   across blocks. *)
let default_patterns = 8 * Bitvec.word_bits

let run ?(circuits = [ "rnd1k"; "rnd2k" ]) ?(repeats = 5) ?(patterns = default_patterns)
    ?(multiplicity = 3) ?(seed = 99) () =
  let samples =
    List.concat_map
      (fun circuit ->
        let net, pats, dlog = prepare ~circuit ~patterns ~multiplicity ~seed in
        (* One single-kernel-domain session without an arena; its
           construction (goods, PO reach) stays outside the timed
           region, so the A/B isolates the simulation kernels. *)
        let session =
          Session.create
            ~config:{ Session.default_config with Session.domains = Some 1 }
            net pats
        in
        let candidates = Explain.candidates (Explain.build_session session dlog) in
        if
          not
            (Explain_ref.agrees (Explain.build_session session dlog)
               (Explain_ref.build session dlog candidates))
        then failwith ("Batchbench: batched matrix differs from the reference on " ^ circuit);
        let per_fault, batched =
          time_ab ~repeats (fun mode ->
              match mode with
              | Batched -> ignore (Sys.opaque_identity (Explain.build_session session dlog))
              | Per_fault ->
                ignore (Sys.opaque_identity (Explain_ref.build session dlog candidates)))
        in
        let sample mode (explain_ms, explain_best_ms) =
          {
            tier = circuit;
            gates = Netlist.num_nets net;
            patterns = Pattern.count pats;
            mode;
            explain_ms;
            explain_best_ms;
          }
        in
        [ sample Per_fault per_fault; sample Batched batched ])
      circuits
  in
  { repeats; samples }

let find_sample r ~tier ~mode =
  List.find_opt (fun s -> s.tier = tier && s.mode = mode) r.samples

(* Per-tier speedups as ratios of best (minimum) times — see
   [time_ab]; the number the regression gate floors. *)
let speedups r =
  List.filter_map
    (fun s ->
      if s.mode <> Batched then None
      else
        match find_sample r ~tier:s.tier ~mode:Per_fault with
        | None -> None
        | Some pf -> Some (s.tier, pf.explain_best_ms /. s.explain_best_ms))
    r.samples

let to_table r =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "PPSFP batch vs per-fault reference per tier (%d runs/point, wall clock, 1 \
            domain, no arena)"
           r.repeats)
      [
        ("tier", Table.Left);
        ("gates", Table.Right);
        ("patterns", Table.Right);
        ("mode", Table.Left);
        ("explain ms", Table.Right);
        ("speedup", Table.Right);
      ]
  in
  let sp = speedups r in
  List.iter
    (fun s ->
      let speedup =
        if s.mode = Batched then
          match List.assoc_opt s.tier sp with
          | Some e -> Printf.sprintf "%.2fx" e
          | None -> "-"
        else "-"
      in
      Table.add_row table
        [
          s.tier;
          Table.cell_int s.gates;
          Table.cell_int s.patterns;
          mode_name s.mode;
          Table.cell_float ~decimals:2 s.explain_ms;
          speedup;
        ])
    r.samples;
  table

let json_of_report r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n  \"repeats\": %d,\n  \"samples\": [\n" r.repeats;
  List.iteri
    (fun i s ->
      Printf.bprintf buf
        "    {\"tier\": %S, \"gates\": %d, \"patterns\": %d, \"mode\": %S, \
         \"explain_ms\": %.3f, \"explain_best_ms\": %.3f}%s\n"
        s.tier s.gates s.patterns (mode_name s.mode) s.explain_ms s.explain_best_ms
        (if i = List.length r.samples - 1 then "" else ","))
    r.samples;
  Printf.bprintf buf "  ],\n  \"speedups\": [\n";
  let sp = speedups r in
  List.iteri
    (fun i (tier, e) ->
      Printf.bprintf buf "    {\"tier\": %S, \"explain_speedup\": %.3f}%s\n" tier e
        (if i = List.length sp - 1 then "" else ","))
    sp;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_json ~path r =
  let oc = open_out path in
  output_string oc (json_of_report r);
  close_out oc
