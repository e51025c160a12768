(* Parallel-scaling bench: wall-clock medians of the two dominant
   diagnosis kernels at several domain counts, against one fixed problem
   instance.  Wall clock (not [Sys.time], which sums CPU seconds across
   domains and would hide any speedup) via [Unix.gettimeofday]. *)

type sample = {
  kernel : string;
  domains : int;
  runs : int;
  median_ns : float;
  speedup_vs_1 : float;
  stats : Run_report.t option;
}

type report = { circuit : string; repeats : int; samples : sample list }

let now_ns () = Unix.gettimeofday () *. 1e9

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* One warm-up run (pool spawn, allocation ramp-up), then [repeats]
   timed runs. *)
let time_median ~repeats f =
  ignore (Sys.opaque_identity (f ()));
  let times =
    Array.init repeats (fun _ ->
        let t0 = now_ns () in
        ignore (Sys.opaque_identity (f ()));
        now_ns () -. t0)
  in
  median times

let prepare ~circuit ~multiplicity ~seed =
  let net =
    match Generators.find_suite circuit with
    | Some n -> n
    | None -> invalid_arg ("Parbench: unknown suite circuit " ^ circuit)
  in
  let pats = Campaign.test_set net in
  let expected = Logic_sim.responses net pats in
  let rng = Rng.create seed in
  let rec make_dlog attempts =
    if attempts = 0 then failwith "Parbench: no failing defect combination found"
    else begin
      let defects = Injection.random_defects rng net Injection.default_mix multiplicity in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then make_dlog (attempts - 1) else dlog
    end
  in
  (net, pats, make_dlog 50)

(* One extra untimed run with observability on, per sample: the timed
   runs stay uninstrumented (collection off costs nothing, but the
   capture run also pays [Obs.reset]/snapshot), and the counters it
   yields are deterministic for the fixed seed, so the JSON is diffable
   run to run.  Resets the process-global registry. *)
let capture_stats ~circuit ~kernel ~domains f =
  let was_enabled = Obs.enabled () in
  Obs.reset ();
  Obs.enable ();
  f ();
  let report =
    Run_report.capture
      ~meta:
        [
          ("circuit", circuit); ("kernel", kernel); ("domains", string_of_int domains);
        ]
      ()
  in
  if not was_enabled then Obs.disable ();
  Obs.reset ();
  report

let run ?(circuit = "rnd1k") ?(domain_counts = [ 1; 2; 4; 8 ]) ?(repeats = 5)
    ?(multiplicity = 3) ?(seed = 99) ?(with_stats = true) () =
  let net, pats, dlog = prepare ~circuit ~multiplicity ~seed in
  (* Session construction stays inside the timed region — the bench
     tracks whole-call cost, and the one-shot wrappers pay it too.  No
     arena: every run, the stats capture included, simulates the whole
     candidate pool. *)
  let scfg d = { Session.default_config with Session.domains = Some d } in
  let kernels =
    [
      ( "explain-build",
        fun d ->
          ignore (Explain.build_session (Session.create ~config:(scfg d) net pats) dlog)
      );
      ( "diagnose",
        fun d ->
          let config = { Noassume.default_config with domains = Some d } in
          ignore
            (Noassume.diagnose_session ~config
               (Session.create ~config:(scfg d) net pats)
               dlog) );
    ]
  in
  let samples =
    List.concat_map
      (fun (kernel, f) ->
        let timed =
          List.map
            (fun d -> (d, time_median ~repeats (fun () -> f d)))
            domain_counts
        in
        let base =
          match List.assoc_opt 1 timed with
          | Some ns -> ns
          | None -> (match timed with (_, ns) :: _ -> ns | [] -> nan)
        in
        List.map
          (fun (d, ns) ->
            let stats =
              if with_stats then
                Some (capture_stats ~circuit ~kernel ~domains:d (fun () -> f d))
              else None
            in
            {
              kernel;
              domains = d;
              runs = repeats;
              median_ns = ns;
              speedup_vs_1 = base /. ns;
              stats;
            })
          timed)
      kernels
  in
  { circuit; repeats; samples }

(* Arena coverage of one campaign cell, trials sequential: the cell's
   session is prewarmed, so every signature a trial asks for — matrix
   rows and the single-fault baseline's whole pool — must come from the
   arena.  Any miss means some phase keys a fault the sweep did not
   cover and silently simulates it again. *)
let campaign_arena_probes ?(circuit = "rnd1k") ?(trials = 4) ?(multiplicity = 3)
    ?(seed = 99) () =
  let net =
    match Generators.find_suite circuit with
    | Some n -> n
    | None -> invalid_arg ("Parbench: unknown suite circuit " ^ circuit)
  in
  let was_obs = Obs.enabled () in
  Obs.reset ();
  Obs.enable ();
  ignore
    (Campaign.run ~methods:Campaign.all_methods ~domains:1 ~name:circuit net
       ~multiplicity ~trials ~seed);
  let snap = Obs.snapshot () in
  let counter name = Option.value ~default:0 (List.assoc_opt name snap.Obs.counters) in
  let hits = counter "cache.frozen_hits" and misses = counter "cache.misses" in
  if not was_obs then Obs.disable ();
  Obs.reset ();
  (hits, misses)

let to_table r =
  let table =
    Table.create
      ~title:(Printf.sprintf "Parallel scaling on %s (%d runs/point, wall clock)" r.circuit r.repeats)
      [
        ("kernel", Table.Left);
        ("domains", Table.Right);
        ("median ms", Table.Right);
        ("speedup vs 1", Table.Right);
      ]
  in
  List.iter
    (fun s ->
      Table.add_row table
        [
          s.kernel;
          Table.cell_int s.domains;
          Table.cell_float ~decimals:3 (s.median_ns /. 1e6);
          Table.cell_float ~decimals:2 s.speedup_vs_1;
        ])
    r.samples;
  table

let json_of_report r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n  \"circuit\": %S,\n  \"repeats\": %d,\n  \"samples\": [\n" r.circuit
    r.repeats;
  List.iteri
    (fun i s ->
      Printf.bprintf buf
        "    {\"kernel\": %S, \"domains\": %d, \"runs\": %d, \"median_ns\": %.0f, \
         \"speedup_vs_1\": %.4f"
        s.kernel s.domains s.runs s.median_ns s.speedup_vs_1;
      (* Timings are dropped from the embedded report so the only
         nondeterministic numbers in the file stay in [median_ns]. *)
      (match s.stats with
      | Some report ->
        Printf.bprintf buf ", \"stats\": %s"
          (Obs_json.to_string (Run_report.to_obs_json ~timings:false report))
      | None -> ());
      Printf.bprintf buf "}%s\n" (if i = List.length r.samples - 1 then "" else ","))
    r.samples;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_json ~path r =
  let oc = open_out path in
  output_string oc (json_of_report r);
  close_out oc
