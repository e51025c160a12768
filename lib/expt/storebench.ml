(* Persistent-store bench: time-to-first-report of one die against a
   fresh process, three arms per circuit (EXPERIMENTS Fig 1c):

   - {e cold}: the first diagnosis on a session without an arena — it
     pays the candidate-pool simulation itself;
   - {e prewarm}: a session that sweeps the whole pool into its arena
     at creation, then the first diagnosis replays it (the sweep is the
     cost that restarts keep repaying);
   - {e load}: [Sig_cache.load_frozen] adopts a snapshot saved by an
     earlier sweep, then the first diagnosis runs on the same arena —
     what a restarted fleet process actually pays.

   The goods and PO reach every session builds are outside the cold and
   load timings.  Methodology follows [Volumebench]: seeded-random
   patterns, wall clock, arms interleaved run by run so machine-speed
   drift lands on every arm equally, and the headline ratio divides
   best (minimum) times — scheduling noise only ever adds time.

   Alongside the timings the report pins the footprint story: the
   packed arena's resident bytes ([Sig_cache.frozen_bytes]) against
   what a boxed representation would cost, the snapshot file size, and
   whether the full-pool arena fits [arena_ceiling_mb] — the rnd50k
   acceptance number. *)

type sample = {
  circuit : string;
  runs : int;
  faults : int;  (* prewarm pool size (class representatives) *)
  cold_ms : float;  (* best first diagnose, no arena *)
  prewarm_ms : float;  (* best session build with the whole-pool sweep *)
  prewarm_first_ms : float;  (* best first-diagnose after the sweep *)
  load_ms : float;  (* best snapshot load (read + validate) *)
  load_first_ms : float;  (* best first-diagnose after the load *)
  load_speedup : float;  (* cold_ms / (load_ms + load_first_ms) *)
  arena_bytes : int;  (* packed arena, resident *)
  boxed_bytes : int;  (* the same entries in a boxed shape *)
  file_bytes : int;  (* snapshot on disk (header + packed body) *)
  budget_bytes : int;  (* arena_ceiling_mb, in bytes *)
  fits_budget : bool;  (* arena_bytes <= budget_bytes *)
}

(* Resident ceiling for one problem's arena: the 64 MB per-problem
   budget the signature store has always been sized against. *)
let arena_ceiling_mb = 64

type report = { repeats : int; samples : sample list }

let now_ms () = Unix.gettimeofday () *. 1e3

let find_circuit name =
  match Generators.find_suite name with
  | Some n -> n
  | None -> (
    match Generators.find_tier name with
    | Some n -> n
    | None -> invalid_arg ("Storebench: unknown circuit or tier " ^ name))

let default_patterns = 4 * Bitvec.word_bits

(* One failing die, drawn like [Volumebench.prepare]. *)
let prepare ~circuit ~patterns ~multiplicity ~seed =
  let net = find_circuit circuit in
  let rng = Rng.create seed in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:patterns in
  let expected = Logic_sim.responses net pats in
  let rec make_dlog attempts =
    if attempts = 0 then failwith "Storebench: no failing defect combination found"
    else begin
      let defects = Injection.random_defects rng net Injection.default_mix multiplicity in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then make_dlog (attempts - 1) else dlog
    end
  in
  (net, pats, make_dlog 50)

let bench_circuit ~store_dir ~repeats ~patterns ~multiplicity ~seed circuit =
  let net, pats, dlog = prepare ~circuit ~patterns ~multiplicity ~seed in
  (* Each timed section starts from a collected heap, as in a fresh
     process: otherwise the garbage of the arm before (a sweep's
     scratch, the discarded arena of the timed load) is marked and swept
     on the next arm's clock. *)
  let timed f =
    Gc.full_major ();
    let t0 = now_ms () in
    let v = f () in
    (v, now_ms () -. t0)
  in
  let create config = Session.create ~config net pats in
  let diagnose session =
    snd (timed (fun () -> Sys.opaque_identity (Noassume.diagnose_session session dlog)))
  in
  let cold_config = Session.default_config in
  let prewarm_config = { cold_config with Session.prewarm = true } in
  let load_config = { prewarm_config with Session.store_dir = Some store_dir } in
  (* Seed the snapshot once, outside the timed runs, and keep the pool
     size and footprint numbers from it (identical on every sweep). *)
  let seed_session = create load_config in
  let arena =
    match Session.cache seed_session with
    | Some a -> a
    | None -> failwith "Storebench: prewarmed session holds no arena"
  in
  if Session.save_failed seed_session then
    failwith ("Storebench: cannot save snapshot under " ^ store_dir);
  if Sig_cache.load_frozen ~dir:store_dir net pats = None then
    failwith "Storebench: snapshot load rejected";
  let faults =
    List.length
      (if cold_config.Session.prune then Fault_list.representatives (Fault_list.collapse net)
       else Fault_list.all net)
  in
  let file_bytes = (Unix.stat (Sig_cache.store_path ~dir:store_dir net)).Unix.st_size in
  let cold = Array.make repeats 0.0 in
  let sweep = Array.make repeats 0.0 in
  let sweep_first = Array.make repeats 0.0 in
  let load = Array.make repeats 0.0 in
  let load_first = Array.make repeats 0.0 in
  for i = 0 to repeats - 1 do
    cold.(i) <- diagnose (create cold_config);
    let s, t = timed (fun () -> create prewarm_config) in
    sweep.(i) <- t;
    sweep_first.(i) <- diagnose s;
    (* The session below adopts the same snapshot again, untimed, so its
       first diagnosis runs on a just-loaded arena. *)
    load.(i) <- snd (timed (fun () -> Sig_cache.load_frozen ~dir:store_dir net pats));
    load_first.(i) <- diagnose (create load_config)
  done;
  let best a = Array.fold_left min a.(0) a in
  let budget_bytes = arena_ceiling_mb * 1024 * 1024 in
  let arena_bytes = Sig_cache.frozen_bytes arena in
  {
    circuit;
    runs = repeats;
    faults;
    cold_ms = best cold;
    prewarm_ms = best sweep;
    prewarm_first_ms = best sweep_first;
    load_ms = best load;
    load_first_ms = best load_first;
    load_speedup = best cold /. (best load +. best load_first);
    arena_bytes;
    boxed_bytes = Sig_cache.frozen_boxed_bytes arena;
    file_bytes;
    budget_bytes;
    fits_budget = arena_bytes <= budget_bytes;
  }

let default_store_dir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "mdd_storebench_%d" (Unix.getpid ()))

let run ?(circuits = [ "rnd2k" ]) ?store_dir ?(repeats = 3)
    ?(patterns = default_patterns) ?(multiplicity = 1) ?(seed = 77) () =
  let store_dir = match store_dir with Some d -> d | None -> default_store_dir () in
  let samples =
    List.map (bench_circuit ~store_dir ~repeats ~patterns ~multiplicity ~seed) circuits
  in
  { repeats; samples }

(* Worst load-vs-cold ratio across circuits — the number gate 8 floors:
   every circuit's restart path must beat its cold path. *)
let min_load_speedup r =
  List.fold_left (fun acc s -> min acc s.load_speedup) infinity r.samples

let mb b = float_of_int b /. (1024.0 *. 1024.0)

let to_table r =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Cold start across process restarts (1 die, best of %d runs; cold vs \
            prewarm-sweep vs snapshot-load first diagnose)"
           r.repeats)
      [
        ("circuit", Table.Left);
        ("faults", Table.Right);
        ("cold ms", Table.Right);
        ("sweep ms", Table.Right);
        ("sweep+1st ms", Table.Right);
        ("load ms", Table.Right);
        ("load+1st ms", Table.Right);
        ("speedup", Table.Right);
        ("arena MB", Table.Right);
        ("boxed MB", Table.Right);
        ("file MB", Table.Right);
        ("fits 64MB", Table.Left);
      ]
  in
  List.iter
    (fun s ->
      Table.add_row table
        [
          s.circuit;
          Table.cell_int s.faults;
          Table.cell_float ~decimals:1 s.cold_ms;
          Table.cell_float ~decimals:1 s.prewarm_ms;
          Table.cell_float ~decimals:1 (s.prewarm_ms +. s.prewarm_first_ms);
          Table.cell_float ~decimals:1 s.load_ms;
          Table.cell_float ~decimals:1 (s.load_ms +. s.load_first_ms);
          Table.cell_float ~decimals:2 s.load_speedup;
          Table.cell_float ~decimals:2 (mb s.arena_bytes);
          Table.cell_float ~decimals:2 (mb s.boxed_bytes);
          Table.cell_float ~decimals:2 (mb s.file_bytes);
          (if s.fits_budget then "yes" else "NO");
        ])
    r.samples;
  table

let json_of_report r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n  \"repeats\": %d,\n" r.repeats;
  Printf.bprintf buf "  \"min_load_speedup\": %.4f,\n  \"samples\": [\n"
    (min_load_speedup r);
  List.iteri
    (fun i s ->
      Printf.bprintf buf
        "    {\"circuit\": %S, \"runs\": %d, \"faults\": %d, \"cold_ms\": %.3f, \
         \"prewarm_ms\": %.3f, \"prewarm_first_ms\": %.3f, \"load_ms\": %.3f, \
         \"load_first_ms\": %.3f, \"load_speedup\": %.4f, \"arena_bytes\": %d, \
         \"boxed_bytes\": %d, \"file_bytes\": %d, \"budget_bytes\": %d, \
         \"fits_budget\": %b}%s\n"
        s.circuit s.runs s.faults s.cold_ms s.prewarm_ms s.prewarm_first_ms s.load_ms
        s.load_first_ms s.load_speedup s.arena_bytes s.boxed_bytes s.file_bytes
        s.budget_bytes s.fits_budget
        (if i = List.length r.samples - 1 then "" else ","))
    r.samples;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_json ~path r =
  let oc = open_out path in
  output_string oc (json_of_report r);
  close_out oc
