(* Disk-snapshot robustness for the packed signature store.  The
   contract under test (Sig_cache mli, "Disk snapshots"): a loaded
   arena either reproduces the live sweep byte for byte or the file is
   rejected — bumping ["store.rejects"] — and the caller falls back to
   a live sweep.  Every corruption a deployment can plausibly produce is
   exercised: truncation, a flipped header byte, a flipped body byte, a
   snapshot for another netlist, a snapshot for another pattern set,
   and a stale encode version.  A qcheck property drives the packed
   codec itself through of_entries -> find and through a full save/load
   cycle with adversarial triple values (negative words, max_int,
   non-canonical order).  Saves that cannot land are counted and never
   change a report. *)

let tmpdir () =
  let f = Filename.temp_file "mddstore" "" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

let problem =
  lazy
    (let net = Generators.c17 () in
     let rng = Rng.create 7 in
     let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:64 in
     (net, pats))

(* Real signatures — one per collapsed fault, computed by the scalar
   simulator — packed into an arena, as a prewarmed session would. *)
let sweep net pats =
  let sim = Fault_sim.create net in
  let blocks = Pattern.blocks pats in
  let goods = List.map (Logic_sim.simulate_block net) blocks in
  let triples (f : Fault_list.fault) =
    let acc = ref [] in
    List.iteri
      (fun bi (block, good) ->
        Fault_sim.iter_po_diffs sim ~good ~width:block.Pattern.width ~site:f.Fault_list.site
          ~stuck:f.Fault_list.stuck (fun oi d -> acc := d :: oi :: bi :: !acc))
      (List.combine blocks goods);
    Array.of_list (List.rev !acc)
  in
  let faults = Fault_list.representatives (Fault_list.collapse net) in
  Sig_cache.of_entries net pats
    (Array.of_list
       (List.map
          (fun (f : Fault_list.fault) ->
            (Sig_cache.key ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck, triples f))
          faults))

let fresh_arena () =
  let net, pats = Lazy.force problem in
  (sweep net pats, net, pats)

let counter_value name = Obs.value (Obs.counter name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Save an arena, load it back, and compare every key's decode — plus
   the save/load counter deltas. *)
let test_round_trip () =
  Obs.enable ();
  let saves0 = counter_value "store.saves" and loads0 = counter_value "store.loads" in
  let a1, net, pats = fresh_arena () in
  let dir = tmpdir () in
  Alcotest.(check bool) "save succeeds" true (Sig_cache.save_frozen ~dir a1);
  Alcotest.(check int) "store.saves bumped" (saves0 + 1) (counter_value "store.saves");
  match Sig_cache.load_frozen ~dir net pats with
  | None -> Alcotest.fail "load refused"
  | Some a2 ->
    Alcotest.(check int) "store.loads bumped" (loads0 + 1) (counter_value "store.loads");
    Alcotest.(check int) "identical arena footprint" (Sig_cache.frozen_bytes a1)
      (Sig_cache.frozen_bytes a2);
    for k = 0 to (2 * Netlist.num_nets net) - 1 do
      let a = Sig_cache.find a1 k and b = Sig_cache.find a2 k in
      Alcotest.(check bool)
        (Printf.sprintf "key %d decodes identically" k)
        true
        (match (a, b) with
        | None, None -> true
        | Some x, Some y -> x = y
        | _ -> false)
    done;
    Obs.disable ()

(* A key stored with zero triples (a fault that diffs nowhere) must
   survive the round trip as [Some [||]], never collapse to [None] —
   the presence bitmap exists precisely for this case. *)
let test_empty_signature_round_trip () =
  let net, pats = Lazy.force problem in
  let a1 = Sig_cache.of_entries net pats [| (0, [||]) |] in
  Alcotest.(check bool) "find = Some [||]" true (Sig_cache.find a1 0 = Some [||]);
  Alcotest.(check bool) "mem of empty entry" true (Sig_cache.mem a1 0);
  Alcotest.(check bool) "absent key stays None" true (Sig_cache.find a1 2 = None);
  let dir = tmpdir () in
  Alcotest.(check bool) "save succeeds" true (Sig_cache.save_frozen ~dir a1);
  match Sig_cache.load_frozen ~dir net pats with
  | None -> Alcotest.fail "load refused"
  | Some a2 ->
    Alcotest.(check bool) "loaded find = Some [||]" true (Sig_cache.find a2 0 = Some [||]);
    Alcotest.(check bool) "loaded absent key stays None" true (Sig_cache.find a2 2 = None)

(* One rejection scenario: corrupt the snapshot with [mangle], then
   check the load is refused and ["store.rejects"] is bumped, and that
   a live sweep + save recovers — the fallback path a session actually
   takes. *)
let reject_case name mangle () =
  Obs.enable ();
  let a1, net, pats = fresh_arena () in
  let dir = tmpdir () in
  Alcotest.(check bool) "seed save succeeds" true (Sig_cache.save_frozen ~dir a1);
  let path = Sig_cache.store_path ~dir net in
  let raw = read_file path in
  let oc = open_out_bin path in
  output_bytes oc (mangle (Bytes.of_string raw));
  close_out oc;
  let rejects0 = counter_value "store.rejects" in
  Alcotest.(check bool) (name ^ ": load refused") true (Sig_cache.load_frozen ~dir net pats = None);
  Alcotest.(check int)
    (name ^ ": store.rejects bumped")
    (rejects0 + 1)
    (counter_value "store.rejects");
  (* Clean fallback: a fresh sweep overwrites the bad file. *)
  Alcotest.(check bool)
    (name ^ ": overwrite save")
    true
    (Sig_cache.save_frozen ~dir (sweep net pats));
  Alcotest.(check bool) (name ^ ": reload after overwrite") true
    (Sig_cache.load_frozen ~dir net pats <> None);
  Obs.disable ()

let flip b i =
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  b

let truncated b = Bytes.sub b 0 (Bytes.length b / 2)
let flipped_magic b = flip b 0
let stale_version b = flip b 8 (* the encode-version int64's low byte *)
let flipped_header_digest b = flip b 20 (* inside the problem digest *)
let flipped_body b = flip b (Bytes.length b - 3) (* in the slab, content-hash land *)

(* A snapshot saved for a different netlist, byte-copied onto this
   problem's path (the path is structure-keyed, so only a copy can put
   a foreign arena there): the problem digest must refuse it. *)
let test_foreign_netlist_rejected () =
  Obs.enable ();
  let other_net = Generators.ripple_adder 4 in
  let other_pats =
    Pattern.random (Rng.create 11) ~npis:(Netlist.num_pis other_net) ~count:64
  in
  let dir = tmpdir () in
  Alcotest.(check bool) "foreign save succeeds" true
    (Sig_cache.save_frozen ~dir (sweep other_net other_pats));
  let net, pats = Lazy.force problem in
  let oc = open_out_bin (Sig_cache.store_path ~dir net) in
  output_string oc (read_file (Sig_cache.store_path ~dir other_net));
  close_out oc;
  let rejects0 = counter_value "store.rejects" in
  Alcotest.(check bool) "foreign netlist refused" true (Sig_cache.load_frozen ~dir net pats = None);
  Alcotest.(check int) "store.rejects bumped" (rejects0 + 1)
    (counter_value "store.rejects");
  Obs.disable ()

(* Same structure, different pattern set: the file is found (the path
   only keys on netlist structure, by design — see [store_path]) but
   the header's problem digest covers the patterns and must refuse. *)
let test_foreign_patterns_rejected () =
  Obs.enable ();
  let a1, net, _ = fresh_arena () in
  let dir = tmpdir () in
  Alcotest.(check bool) "seed save succeeds" true (Sig_cache.save_frozen ~dir a1);
  let other_pats = Pattern.random (Rng.create 8) ~npis:(Netlist.num_pis net) ~count:64 in
  let rejects0 = counter_value "store.rejects" in
  Alcotest.(check bool) "foreign patterns refused" true
    (Sig_cache.load_frozen ~dir net other_pats = None);
  Alcotest.(check int) "store.rejects bumped" (rejects0 + 1)
    (counter_value "store.rejects");
  Obs.disable ()

(* A missing file is a cold fleet, not a rejection. *)
let test_missing_file_not_a_reject () =
  Obs.enable ();
  let net, pats = Lazy.force problem in
  let dir = tmpdir () in
  let rejects0 = counter_value "store.rejects" in
  Alcotest.(check bool) "load from empty dir" true (Sig_cache.load_frozen ~dir net pats = None);
  Alcotest.(check int) "no reject counted" rejects0 (counter_value "store.rejects");
  Obs.disable ()

(* Codec round trip through the public API: arbitrary triples —
   non-canonical order, negative and extreme diff words — must survive
   of_entries -> find and a full save/load cycle bit for bit.  The
   adversarial tail is appended deterministically so min_int, max_int
   and negative words are exercised on every run. *)
let prop_codec_round_trip =
  QCheck.Test.make ~name:"packed codec round-trips adversarial triples (memory + disk)"
    ~count:30
    QCheck.(small_list (triple (int_range 0 12) (int_range 0 40) int))
    (fun trips ->
      let adversarial = [ (0, 0, max_int); (5, 1, min_int); (3, 39, -1); (3, 0, 0) ] in
      let triples =
        List.concat_map (fun (bi, oi, w) -> [ bi; oi; w ]) (trips @ adversarial)
        |> Array.of_list
      in
      let net, pats = Lazy.force problem in
      let a1 = Sig_cache.of_entries net pats [| (0, triples) |] in
      let streamed = ref [] in
      Sig_cache.iter_frozen a1 0 (fun bi oi w -> streamed := w :: oi :: bi :: !streamed);
      let dir = tmpdir () in
      let saved = Sig_cache.save_frozen ~dir a1 in
      let from_disk =
        Option.bind (Sig_cache.load_frozen ~dir net pats) (fun a -> Sig_cache.find a 0)
      in
      saved
      && Sig_cache.find a1 0 = Some triples
      && Array.of_list (List.rev !streamed) = triples
      && from_disk = Some triples)

(* A store directory nested under paths that do not exist yet is
   created; one that cannot exist (under a regular file) fails the save
   visibly — counted, flagged on the session — and changes no report. *)
let test_save_failures_visible () =
  Obs.enable ();
  let net, pats = Lazy.force problem in
  let expected = Logic_sim.responses net pats in
  let dlog_of site =
    Datalog.of_responses ~expected
      ~observed:(Injection.observed_responses net pats [ Defect.Stuck (site, true) ])
  in
  let rec failing site =
    if Datalog.num_failing (dlog_of site) > 0 then dlog_of site else failing (site + 1)
  in
  let dlog = failing 0 in
  let render config =
    let session = Session.create ~config net pats in
    (session, Report.render net (Noassume.diagnose_session session dlog))
  in
  let prewarmed dir =
    { Session.default_config with Session.prewarm = true; store_dir = Some dir }
  in
  let _, reference = render Session.default_config in
  let nested = Filename.concat (Filename.concat (tmpdir ()) "a") "b" in
  let saves0 = counter_value "store.saves" in
  let s, text = render (prewarmed nested) in
  Alcotest.(check bool) "nested save lands" false (Session.save_failed s);
  Alcotest.(check int) "store.saves bumped" (saves0 + 1) (counter_value "store.saves");
  Alcotest.(check string) "nested-store report" reference text;
  let file = Filename.temp_file "mddstore" ".file" in
  let failures0 = counter_value "store.save_failures" in
  let s, text = render (prewarmed (Filename.concat file "store")) in
  Alcotest.(check bool) "save flagged as failed" true (Session.save_failed s);
  Alcotest.(check int) "store.save_failures = 1" 1
    (counter_value "store.save_failures" - failures0);
  Alcotest.(check string) "failed-save report" reference text;
  Sys.remove file;
  Obs.disable ()

let suite =
  [
    ( "sig_store",
      [
        Alcotest.test_case "save/load round trip (all keys identical)" `Quick
          test_round_trip;
        Alcotest.test_case "zero-triple signature survives round trip" `Quick
          test_empty_signature_round_trip;
        Alcotest.test_case "truncated file rejected" `Quick
          (reject_case "truncated" truncated);
        Alcotest.test_case "flipped magic byte rejected" `Quick
          (reject_case "magic" flipped_magic);
        Alcotest.test_case "stale encode version rejected" `Quick
          (reject_case "version" stale_version);
        Alcotest.test_case "flipped header digest byte rejected" `Quick
          (reject_case "header digest" flipped_header_digest);
        Alcotest.test_case "flipped body byte rejected" `Quick
          (reject_case "body" flipped_body);
        Alcotest.test_case "snapshot for another netlist rejected" `Quick
          test_foreign_netlist_rejected;
        Alcotest.test_case "snapshot for another pattern set rejected" `Quick
          test_foreign_patterns_rejected;
        Alcotest.test_case "missing file is cold, not a reject" `Quick
          test_missing_file_not_a_reject;
        Alcotest.test_case "save failures counted, reports unchanged" `Quick
          test_save_failures_visible;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_codec_round_trip ] );
  ]
