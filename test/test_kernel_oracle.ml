(* End-to-end oracles for the allocation-free simulation kernel: every
   fast path (event-driven propagation with PO-reachability screening,
   the direct-indexed [Explain.build] accumulators, precomputed-goods
   signatures) must agree bit for bit with a brute-force overlay
   resimulation that shares none of its code. *)

let random_problem seed multiplicity =
  let gates = 40 + (seed mod 100) in
  let net = Generators.random_logic ~gates ~pis:6 ~pos:5 ~seed in
  let rng = Rng.create (seed * 7) in
  let pats = Pattern.random rng ~npis:6 ~count:80 in
  let expected = Logic_sim.responses net pats in
  let k = min multiplicity (max 1 (Injection.capacity net / 4)) in
  let defects = Injection.random_defects rng net Injection.default_mix k in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog)

(* --- po_diffs against overlay resimulation -------------------------- *)

(* Unlike the stuck-at oracle in [Test_fault_sim], this drives
   [iter_po_diffs_delta] with an arbitrary injected error word, the
   entry point the aggressor screen in [Noassume] relies on. *)
let prop_delta_injection_matches_overlay =
  QCheck.Test.make
    ~name:"iter_po_diffs_delta matches overlay resimulation (random delta)"
    ~count:25
    QCheck.(pair (int_range 1 100_000) (int_range 0 0x3FFFFFF))
    (fun (seed, delta_bits) ->
      let net = Generators.random_logic ~gates:60 ~pis:6 ~pos:4 ~seed in
      let pats = Pattern.random (Rng.create seed) ~npis:6 ~count:50 in
      let sim = Fault_sim.create net in
      let site = Rng.int (Rng.create (seed + 1)) (Netlist.num_nets net) in
      List.for_all
        (fun (block : Pattern.block) ->
          let good = Logic_sim.simulate_block net block in
          let mask = Logic.mask_of_width block.width in
          let delta = delta_bits land mask in
          (* Reference: force the faulty word on the site and resimulate
             the whole block from scratch. *)
          let faulty_word = good.(site) lxor delta in
          let overlay =
            Logic_sim.simulate_block_overlay net block
              [
                {
                  Logic_sim.target = site;
                  behave =
                    (fun ~computed:_ ~value_of:_ ~driven_of:_ ~base:_ -> faulty_word);
                };
              ]
          in
          let got = Array.make (Netlist.num_pos net) 0 in
          Fault_sim.iter_po_diffs_delta sim ~good ~width:block.width ~site ~delta
            (fun oi w -> got.(oi) <- w);
          let ok = ref true in
          Array.iteri
            (fun oi po ->
              let expect = (overlay.(po) lxor good.(po)) land mask in
              if got.(oi) <> expect then ok := false)
            (Netlist.pos net);
          !ok)
        (Pattern.blocks pats))

(* --- Explain.build against a brute-force reference ------------------ *)

(* Same accumulators as [Explain.build], computed the slow way: one full
   overlay resimulation per (candidate, block), per-bit scans, and an
   association list for the observation index.  No CSR, no reachability
   screen, no event queue. *)
let naive_matrices net pats dlog (candidates : Fault_list.fault array) =
  let observations = Datalog.observations dlog in
  let nobs = Array.length observations in
  let failing = Array.of_list (Datalog.failing_patterns dlog) in
  let nfp = Array.length failing in
  let fp_of p =
    let r = ref (-1) in
    Array.iteri (fun i q -> if q = p then r := i) failing;
    !r
  in
  let obs_index p po =
    let r = ref (-1) in
    Array.iteri
      (fun i (ob : Datalog.observation) ->
        if ob.pattern = p && ob.po = po then r := i)
      observations;
    !r
  in
  let ncand = Array.length candidates in
  let covers = Array.init ncand (fun _ -> Bitvec.create nobs) in
  let matched = Array.make_matrix ncand nfp 0 in
  let spurious = Array.make_matrix ncand nfp 0 in
  let mispredict_pass = Array.make ncand 0 in
  Array.iteri
    (fun c (f : Fault_list.fault) ->
      List.iter
        (fun (block : Pattern.block) ->
          let good = Logic_sim.simulate_block net block in
          let faulty =
            Logic_sim.simulate_block_overlay net block
              [ Logic_sim.force f.site f.stuck ]
          in
          for k = 0 to block.width - 1 do
            let p = block.base + k in
            let any = ref false in
            Array.iteri
              (fun oi po ->
                if (good.(po) lxor faulty.(po)) lsr k land 1 = 1 then begin
                  any := true;
                  let fp = fp_of p in
                  if fp >= 0 then
                    let i = obs_index p oi in
                    if i >= 0 then begin
                      Bitvec.set covers.(c) i true;
                      matched.(c).(fp) <- matched.(c).(fp) + 1
                    end
                    else spurious.(c).(fp) <- spurious.(c).(fp) + 1
                end)
              (Netlist.pos net);
            if !any && fp_of p < 0 then
              mispredict_pass.(c) <- mispredict_pass.(c) + 1
          done)
        (Pattern.blocks pats))
    candidates;
  (covers, matched, spurious, mispredict_pass)

let prop_explain_matches_naive =
  QCheck.Test.make
    ~name:"Explain.build matches brute-force overlay reference" ~count:10
    QCheck.(pair (int_range 1 100_000) (int_range 1 3))
    (fun (seed, multiplicity) ->
      let net, pats, dlog = random_problem seed multiplicity in
      if Datalog.num_failing dlog = 0 then true
      else begin
        let m = Explain.build ~domains:1 net pats dlog in
        let candidates = Explain.candidates m in
        let covers, matched, spurious, mispredict_pass =
          naive_matrices net pats dlog candidates
        in
        let nfp = Array.length (Explain.failing m) in
        let ok = ref true in
        Array.iteri
          (fun c _ ->
            if not (Bitvec.equal (Explain.covers m c) covers.(c)) then ok := false;
            if Explain.mispredict_pass m c <> mispredict_pass.(c) then ok := false;
            for fp = 0 to nfp - 1 do
              if
                Explain.matched m c fp <> matched.(c).(fp)
                || Explain.spurious m c fp <> spurious.(c).(fp)
              then ok := false
            done)
          candidates;
        !ok
      end)

(* --- signature ~goods ----------------------------------------------- *)

let prop_signature_goods_equivalent =
  QCheck.Test.make
    ~name:"signature ~goods = signature recomputing goods" ~count:25
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let net = Generators.random_logic ~gates:50 ~pis:6 ~pos:4 ~seed in
      let pats = Pattern.random (Rng.create (seed + 3)) ~npis:6 ~count:70 in
      let sim = Fault_sim.create net in
      let goods =
        Array.of_list
          (List.map (Logic_sim.simulate_block net) (Pattern.blocks pats))
      in
      let site = Rng.int (Rng.create (seed + 4)) (Netlist.num_nets net) in
      List.for_all
        (fun stuck ->
          let a = Fault_sim.signature sim ~goods pats ~site ~stuck in
          let b = Fault_sim.signature sim pats ~site ~stuck in
          Array.for_all2 Bitvec.equal a b)
        [ false; true ])

(* --- PPSFP batch pass against the scalar sweep ---------------------- *)

(* [simulate_batch] must produce, fault by fault, exactly the masked
   diff words of the per-fault per-block scalar sweep — the property
   that makes a batch-swept [Sig_cache] arena equal to the scalar
   reference.  150 patterns gives two full blocks plus a partial one,
   so the tail mask is exercised. *)
let prop_simulate_batch_matches_scalar =
  QCheck.Test.make
    ~name:"simulate_batch matches per-fault per-block scalar sweep" ~count:20
    QCheck.(pair (int_range 1 100_000) (int_range 1 17))
    (fun (seed, nfaults) ->
      let gates = 40 + (seed mod 120) in
      let net = Generators.random_logic ~gates ~pis:7 ~pos:5 ~seed in
      let pats = Pattern.random (Rng.create (seed + 11)) ~npis:7 ~count:150 in
      let blocks = Array.of_list (Pattern.blocks pats) in
      let goods = Array.map (Logic_sim.simulate_block net) blocks in
      let sim = Fault_sim.create net in
      let b = Fault_sim.prepare_batch sim ~blocks ~goods in
      let rng = Rng.create (seed + 23) in
      let faults =
        Array.init nfaults (fun _ ->
            (Rng.int rng (Netlist.num_nets net), Rng.int rng 2 = 1))
      in
      let npos = Netlist.num_pos net in
      let nb = Array.length blocks in
      let got = Array.make_matrix nfaults (nb * npos) 0 in
      Fault_sim.simulate_batch b ~n:nfaults
        ~fault:(fun i -> faults.(i))
        (fun i bi oi w -> got.(i).((bi * npos) + oi) <- w);
      let want = Array.make_matrix nfaults (nb * npos) 0 in
      Array.iteri
        (fun i (site, stuck) ->
          Array.iteri
            (fun bi (block : Pattern.block) ->
              Fault_sim.iter_po_diffs sim ~good:goods.(bi) ~width:block.width
                ~site ~stuck (fun oi w -> want.(i).((bi * npos) + oi) <- w))
            blocks)
        faults;
      got = want)

(* Same property for the arbitrary-delta entry point (the aggressor
   screens): one sweep over all blocks vs. one scalar sweep per block. *)
let prop_batch_delta_matches_scalar =
  QCheck.Test.make
    ~name:"batch_po_diffs_delta matches per-block iter_po_diffs_delta"
    ~count:20
    QCheck.(pair (int_range 1 100_000) (int_range 0 max_int))
    (fun (seed, delta_seed) ->
      let net = Generators.random_logic ~gates:70 ~pis:6 ~pos:4 ~seed in
      let pats = Pattern.random (Rng.create (seed + 5)) ~npis:6 ~count:140 in
      let blocks = Array.of_list (Pattern.blocks pats) in
      let goods = Array.map (Logic_sim.simulate_block net) blocks in
      let sim = Fault_sim.create net in
      let b = Fault_sim.prepare_batch sim ~blocks ~goods in
      let rng = Rng.create delta_seed in
      let site = Rng.int (Rng.create (seed + 6)) (Netlist.num_nets net) in
      let deltas =
        Array.map (fun _ -> Rng.int rng (1 lsl 30)) blocks
      in
      let npos = Netlist.num_pos net in
      let nb = Array.length blocks in
      let got = Array.make (nb * npos) 0 in
      Fault_sim.batch_po_diffs_delta b ~site ~deltas (fun bi oi w ->
          got.((bi * npos) + oi) <- w);
      let want = Array.make (nb * npos) 0 in
      Array.iteri
        (fun bi (block : Pattern.block) ->
          Fault_sim.iter_po_diffs_delta sim ~good:goods.(bi) ~width:block.width
            ~site ~delta:deltas.(bi)
            (fun oi w -> want.((bi * npos) + oi) <- w))
        blocks;
      got = want)

(* --- evaluate_multiplet: batched = overlay resimulation ------------ *)

(* Whole-multiplet scoring by the PPSFP delta sweep must equal
   [Scoring.evaluate] of the same overlay, which resimulates every
   block under the overrides.  Odd seeds pin one site at both
   polarities, the byzantine (value-flip) overlay case with its own
   batch code path. *)
let prop_evaluate_multiplet_batch_identity =
  QCheck.Test.make
    ~name:"evaluate_multiplet: batched = per-block overlay Scoring.evaluate" ~count:12
    QCheck.(pair (int_range 1 100_000) (int_range 1 3))
    (fun (seed, multiplicity) ->
      let net, pats, dlog = random_problem seed multiplicity in
      let rng = Rng.create (seed + 31) in
      let k = 1 + (seed mod 3) in
      let faults =
        List.init k (fun _ ->
            {
              Fault_list.site = Rng.int rng (Netlist.num_nets net);
              stuck = Rng.int rng 2 = 1;
            })
      in
      let faults =
        if seed mod 2 = 1 then
          let s = Rng.int rng (Netlist.num_nets net) in
          { Fault_list.site = s; stuck = true }
          :: { Fault_list.site = s; stuck = false }
          :: faults
        else faults
      in
      Scoring.evaluate_multiplet net pats dlog faults
      = Scoring.evaluate ~domains:1 net pats dlog (Scoring.overlay_of_multiplet faults))

(* --- Explain: batched = per-fault reference = arena replay ---------- *)

let explain_equal m1 m2 =
  let c1 = Explain.candidates m1 and c2 = Explain.candidates m2 in
  let nfp = Array.length (Explain.failing m1) in
  c1 = c2
  && Explain.failing m1 = Explain.failing m2
  && Explain.num_seeded m1 = Explain.num_seeded m2
  && Array.for_all Fun.id
       (Array.mapi
          (fun c _ ->
            Bitvec.equal (Explain.covers m1 c) (Explain.covers m2 c)
            && Explain.mispredict_pass m1 c = Explain.mispredict_pass m2 c
            && Explain.mispredict_fail m1 c = Explain.mispredict_fail m2 c
            &&
            let ok = ref true in
            for fp = 0 to nfp - 1 do
              if
                Explain.matched m1 c fp <> Explain.matched m2 c fp
                || Explain.spurious m1 c fp <> Explain.spurious m2 c fp
                || Explain.exact m1 c fp <> Explain.exact m2 c fp
              then ok := false
            done;
            !ok)
          c1)

(* The same-binary A/B the benchmarks rely on: the batched build at
   four domains, the per-fault reference [Explain_ref] (what
   [bench batch] times it against), and a replay from a prewarmed
   session's arena must produce identical matrices, pruned or not. *)
let prop_explain_batch_ab_identity =
  QCheck.Test.make
    ~name:"Explain.build: batched = per-fault reference = arena replay (4 domains)"
    ~count:8
    QCheck.(triple (int_range 1 100_000) (int_range 1 3) bool)
    (fun (seed, multiplicity, prune) ->
      let net, pats, dlog = random_problem seed multiplicity in
      if Datalog.num_failing dlog = 0 then true
      else begin
        let session prewarm =
          Session.create
            ~config:{ Session.default_config with Session.prune; prewarm; domains = Some 4 }
            net pats
        in
        let cold = session false in
        let batched = Explain.build_session cold dlog in
        let reference = Explain_ref.build cold dlog (Explain.candidates batched) in
        let replayed = Explain.build_session (session true) dlog in
        Explain_ref.agrees batched reference && explain_equal batched replayed
      end)

(* --- Packed arena against scalar-computed triples -------------------- *)

(* A prewarmed session's arena — filled by the batched sweep — must
   decode, through [find] and through the streaming [iter_frozen], to
   exactly the triples the scalar simulator computes, fault by fault;
   and still must after a save/load cycle replaces the arena with bytes
   read back from disk. *)
let prop_packed_arena_matches_scalar =
  QCheck.Test.make
    ~name:"packed frozen arena (in-memory and loaded) decodes = scalar triples"
    ~count:10
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let net = Generators.random_logic ~gates:(40 + (seed mod 60)) ~pis:6 ~pos:5 ~seed in
      let pats = Pattern.random (Rng.create (seed * 3)) ~npis:6 ~count:70 in
      let session =
        Session.create ~config:{ Session.default_config with Session.prewarm = true } net pats
      in
      let arena = Option.get (Session.cache session) in
      let sim = Fault_sim.create net in
      let blocks = Session.blocks session and goods = Session.goods session in
      let reference =
        List.map
          (fun (f : Fault_list.fault) ->
            let acc = ref [] in
            Array.iteri
              (fun bi (block : Pattern.block) ->
                Fault_sim.iter_po_diffs sim ~good:goods.(bi) ~width:block.width
                  ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck (fun oi w ->
                    acc := w :: oi :: bi :: !acc))
              blocks;
            ( Sig_cache.key ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck,
              Array.of_list (List.rev !acc) ))
          (Fault_list.representatives (Fault_list.collapse net))
      in
      let agrees a =
        List.for_all
          (fun (k, triples) ->
            let decoded = Sig_cache.find a k = Some triples in
            let streamed =
              Sig_cache.mem a k
              &&
              let buf = ref [] in
              Sig_cache.iter_frozen a k (fun bi oi w -> buf := w :: oi :: bi :: !buf);
              Array.of_list (List.rev !buf) = triples
            in
            decoded && streamed)
          reference
      in
      let dir = Filename.temp_file "mddoracle" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let saved = Sig_cache.save_frozen ~dir arena in
      let loaded = Sig_cache.load_frozen ~dir net pats in
      saved && agrees arena && match loaded with Some a -> agrees a | None -> false)

let suite =
  [
    ( "kernel-oracle",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_delta_injection_matches_overlay;
          prop_explain_matches_naive;
          prop_signature_goods_equivalent;
          prop_simulate_batch_matches_scalar;
          prop_batch_delta_matches_scalar;
          prop_evaluate_multiplet_batch_identity;
          prop_explain_batch_ab_identity;
          prop_packed_arena_matches_scalar;
        ] );
  ]
