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
   load timings.  Seeded-random patterns, five {!Arms} arms, and the
   headline ratio divides best (minimum) times.

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

let default_patterns = 4 * Bitvec.word_bits

let bench_circuit ~store_dir ~repeats ~patterns ~multiplicity ~seed circuit =
  let net, pats, dlogs =
    Arms.problem ~patterns:(`Random patterns) ~multiplicity ~dies:1 ~seed circuit
  in
  let dlog = List.hd dlogs in
  let create config () = Session.create ~config net pats in
  let cold_config = Session.default_config in
  let prewarm_config = { cold_config with Session.prewarm = true } in
  let load_config = { prewarm_config with Session.store_dir = Some store_dir } in
  (* Seed the snapshot once, outside the timed runs, and keep the pool
     size and footprint numbers from it (identical on every sweep). *)
  let seed_session = create load_config () in
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
  (* A first diagnosis, timed on a session built untimed. *)
  let first session () =
    let session = session () in
    fun () -> ignore (Sys.opaque_identity (Noassume.diagnose_session session dlog))
  in
  (* The sweep arm's session is the one the next arm diagnoses first. *)
  let swept = ref None in
  let take_swept () =
    let s = Option.get !swept in
    swept := None;
    s
  in
  let best =
    List.map Stats.minimum
      (Arms.run ~repeats
         [
           first (create cold_config);
           Arms.call (fun () -> swept := Some (create prewarm_config ()));
           first take_swept;
           Arms.call (fun () -> Sig_cache.load_frozen ~dir:store_dir net pats);
           (* adopts the same snapshot again, so the diagnosis runs on a
              just-loaded arena *)
           first (create load_config);
         ])
  in
  let cold_ms, prewarm_ms, prewarm_first_ms, load_ms, load_first_ms =
    match best with
    | [ a; b; c; d; e ] -> (a, b, c, d, e)
    | _ -> assert false
  in
  let budget_bytes = arena_ceiling_mb * 1024 * 1024 in
  let arena_bytes = Sig_cache.frozen_bytes arena in
  {
    circuit;
    runs = repeats;
    faults;
    cold_ms;
    prewarm_ms;
    prewarm_first_ms;
    load_ms;
    load_first_ms;
    load_speedup = cold_ms /. (load_ms +. load_first_ms);
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
  let dir = match store_dir with Some d -> d | None -> default_store_dir () in
  let samples =
    List.map (bench_circuit ~store_dir:dir ~repeats ~patterns ~multiplicity ~seed) circuits
  in
  (* A directory of our own choosing is ours to remove. *)
  if store_dir = None then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end;
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

let to_json r =
  let sample s =
    Obs_json.Obj
      [
        ("circuit", Obs_json.Str s.circuit);
        ("runs", Arms.int s.runs);
        ("faults", Arms.int s.faults);
        ("cold_ms", Obs_json.Num s.cold_ms);
        ("prewarm_ms", Obs_json.Num s.prewarm_ms);
        ("prewarm_first_ms", Obs_json.Num s.prewarm_first_ms);
        ("load_ms", Obs_json.Num s.load_ms);
        ("load_first_ms", Obs_json.Num s.load_first_ms);
        ("load_speedup", Obs_json.Num s.load_speedup);
        ("arena_bytes", Arms.int s.arena_bytes);
        ("boxed_bytes", Arms.int s.boxed_bytes);
        ("file_bytes", Arms.int s.file_bytes);
        ("budget_bytes", Arms.int s.budget_bytes);
        ("fits_budget", Obs_json.Bool s.fits_budget);
      ]
  in
  Obs_json.Obj
    [
      ("repeats", Arms.int r.repeats);
      ("min_load_speedup", Obs_json.Num (min_load_speedup r));
      ("samples", Obs_json.List (List.map sample r.samples));
    ]
