(* Batched-kernel A/B bench: wall-clock medians of the explanation
   matrix built by [Explain] (the PPSFP batch pass) versus the per-fault
   reference [Explain_ref] (one scalar cone walk per fault and block),
   across netlist tiers, yielding a fig1-style ms-per-matrix curve over
   gate count for each mode.

   Patterns are seeded-random, not deterministic ATPG: the large tiers
   exist to measure the simulation kernel, and [Campaign.test_set] at
   10k+ gates costs more than every timed run together, while changing
   nothing about what the kernel does per pattern block.

   Both modes run against one session without a signature arena, so
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

(* 8 full 63-bit blocks: partial last blocks waste batch-slab width, and
   fewer blocks under-amortize the per-cone walk the batch pass shares
   across blocks. *)
let default_patterns = 8 * Bitvec.word_bits

let run ?(circuits = [ "rnd1k"; "rnd2k" ]) ?(repeats = 5) ?(patterns = default_patterns)
    ?(multiplicity = 3) ?(seed = 99) () =
  let samples =
    List.concat_map
      (fun circuit ->
        let net, pats, dlogs =
          Arms.problem ~patterns:(`Random patterns) ~multiplicity ~dies:1 ~seed circuit
        in
        let dlog = List.hd dlogs in
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
        let times =
          Arms.run ~repeats
            [
              Arms.call (fun () -> Explain_ref.build session dlog candidates);
              Arms.call (fun () -> Explain.build_session session dlog);
            ]
        in
        List.map2
          (fun mode ms ->
            {
              tier = circuit;
              gates = Netlist.num_nets net;
              patterns = Pattern.count pats;
              mode;
              explain_ms = Stats.median ms;
              explain_best_ms = Stats.minimum ms;
            })
          [ Per_fault; Batched ] times)
      circuits
  in
  { repeats; samples }

let find_sample r ~tier ~mode =
  List.find_opt (fun s -> s.tier = tier && s.mode = mode) r.samples

(* Per-tier speedups as ratios of best (minimum) times; the number the
   regression gate floors. *)
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

let to_json r =
  let sample s =
    Obs_json.Obj
      [
        ("tier", Obs_json.Str s.tier);
        ("gates", Arms.int s.gates);
        ("patterns", Arms.int s.patterns);
        ("mode", Obs_json.Str (mode_name s.mode));
        ("explain_ms", Obs_json.Num s.explain_ms);
        ("explain_best_ms", Obs_json.Num s.explain_best_ms);
      ]
  in
  let speedup (tier, e) =
    Obs_json.Obj [ ("tier", Obs_json.Str tier); ("explain_speedup", Obs_json.Num e) ]
  in
  Obs_json.Obj
    [
      ("repeats", Arms.int r.repeats);
      ("samples", Obs_json.List (List.map sample r.samples));
      ("speedups", Obs_json.List (List.map speedup (speedups r)));
    ]
