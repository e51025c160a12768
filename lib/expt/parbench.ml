(* Parallel-scaling bench: wall-clock medians of the two dominant
   diagnosis kernels at several domain counts, against one fixed problem
   instance. *)

type sample = {
  kernel : string;
  domains : int;
  runs : int;
  median_ns : float;
  speedup_vs_1 : float;
  stats : Run_report.t option;
}

type report = { circuit : string; repeats : int; samples : sample list }

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

let run ?(circuit = "rnd1k") ?(kernels = [ "explain-build"; "diagnose" ])
    ?(domain_counts = [ 1; 2; 4; 8 ]) ?(repeats = 5) ?(multiplicity = 3) ?(seed = 99)
    ?(with_stats = true) () =
  let net, pats, dlogs = Arms.problem ~patterns:`Test_set ~multiplicity ~dies:1 ~seed circuit in
  let dlog = List.hd dlogs in
  (* Session construction stays inside the timed call — the bench
     tracks whole-call cost, and the one-shot wrappers pay it too.  No
     arena: every run, the stats capture included, simulates the whole
     candidate pool. *)
  let session d =
    Session.create ~config:{ Session.default_config with Session.domains = Some d } net pats
  in
  let kernel name d () =
    match name with
    | "explain-build" -> ignore (Explain.build_session (session d) dlog)
    | "diagnose" ->
      let config = { Noassume.default_config with domains = Some d } in
      ignore (Noassume.diagnose_session ~config (session d) dlog)
    | _ -> invalid_arg ("Parbench: unknown kernel " ^ name)
  in
  let points = List.concat_map (fun k -> List.map (fun d -> (k, d)) domain_counts) kernels in
  let medians =
    List.map Stats.median
      (Arms.run ~repeats (List.map (fun (k, d) -> Arms.call (kernel k d)) points))
  in
  let timed = List.combine points medians in
  let samples =
    List.map
      (fun ((k, d), ms) ->
        let base =
          match List.assoc_opt (k, 1) timed with
          | Some b -> b
          | None -> List.assoc (k, List.hd domain_counts) timed
        in
        {
          kernel = k;
          domains = d;
          runs = repeats;
          median_ns = ms *. 1e6;
          speedup_vs_1 = base /. ms;
          stats =
            (if with_stats then Some (capture_stats ~circuit ~kernel:k ~domains:d (kernel k d))
             else None);
        })
      timed
  in
  { circuit; repeats; samples }

(* Arena coverage of one campaign cell, trials sequential: the cell's
   session is prewarmed, so every signature a trial asks for — matrix
   rows and the single-fault baseline's whole pool — must come from the
   arena.  Any miss means some phase keys a fault the sweep did not
   cover and silently simulates it again. *)
let campaign_arena_probes ?(circuit = "rnd1k") ?(trials = 4) ?(multiplicity = 3)
    ?(seed = 99) () =
  let net = Arms.find_circuit circuit in
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

let to_json r =
  let sample s =
    Obs_json.Obj
      ([
         ("kernel", Obs_json.Str s.kernel);
         ("domains", Arms.int s.domains);
         ("runs", Arms.int s.runs);
         ("median_ns", Obs_json.Num (Float.round s.median_ns));
         ("speedup_vs_1", Obs_json.Num s.speedup_vs_1);
       ]
      (* Timings are dropped from the embedded report so the only
         nondeterministic numbers in the file stay in [median_ns]. *)
      @ Option.fold ~none:[]
          ~some:(fun r -> [ ("stats", Run_report.to_obs_json ~timings:false r) ])
          s.stats)
  in
  Obs_json.Obj
    [
      ("circuit", Obs_json.Str r.circuit);
      ("repeats", Arms.int r.repeats);
      ("samples", Obs_json.List (List.map sample r.samples));
    ]
