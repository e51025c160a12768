(* The session: one warm engine context per (netlist, pattern set)
   problem, threaded through every diagnosis phase.

   A [t] is built once by [create] and never changes afterwards, so it
   is safe to share across domains: the netlist, the test set, the
   good-machine words, the PO-reachability screen and — when the config
   asks for it — the signature arena are all frozen at construction.
   Volume diagnosis (thousands of datalogs against one design, one
   diagnosis per domain) computes the per-problem state once here, and
   two concurrent diagnoses can run under different configurations
   without touching shared mutable state. *)

type cover = Greedy | Exact

(* Node budget for the exact backend's whole implicit-hitting-set loop
   (all branch-and-bound sub-solves summed).  Generous: the suite
   circuits complete in well under 10^4 nodes; exhaustion on a
   pathological datalog falls back to the greedy cover and is surfaced
   (counter [cover.budget_fallbacks], [Run_report] meta). *)
let default_cover_budget = 2_000_000

type config = {
  prune : bool;  (* activation screen + class collapse in [Explain] *)
  domains : int option;  (* kernel fan-out; [None] = Parallel default *)
  prewarm : bool;  (* build the signature arena at create *)
  cover : cover;  (* covering backend: greedy (paper) or exact (minimal) *)
  cover_budget : int;  (* exact backend's hitting-set node budget *)
  store_dir : string option;  (* snapshot dir: load instead of sweeping, save after *)
}

let default_config =
  {
    prune = true;
    domains = None;
    prewarm = false;
    cover = Greedy;
    cover_budget = default_cover_budget;
    store_dir = None;
  }

type t = {
  net : Netlist.t;
  pats : Pattern.t;
  blocks : Pattern.block array;
  goods : Logic_sim.net_values array;
  reach : Po_reach.t;
  cache : Sig_cache.t option;
  save_failed : bool;  (* swept an arena that could not be saved to [store_dir] *)
  sink : Obs.sink option;
  config : config;
}

let netlist t = t.net
let patterns t = t.pats
let blocks t = t.blocks
let goods t = t.goods
let reach t = t.reach
let cache t = t.cache
let save_failed t = t.save_failed
let sink t = t.sink
let config t = t.config

let with_sink t f = match t.sink with None -> f () | Some sk -> Obs.with_sink sk f

(* Probe accounting lives here, not in [Sig_cache]: a session without an
   arena still has to report the signatures it simulated on demand. *)
let c_frozen_hits = Obs.counter "cache.frozen_hits"
let c_misses = Obs.counter "cache.misses"

let cached t k =
  match t.cache with
  | Some a when Sig_cache.mem a k ->
    if Obs.enabled () then Obs.incr c_frozen_hits;
    true
  | Some _ | None ->
    if Obs.enabled () then Obs.incr c_misses;
    false

(* --- Batched signature simulation ------------------------------------ *)

(* Tile cap on the fault axis, matching [Explain]: bounds the per-batch
   working set so slabs stay cache-sized. *)
let batch_tile = 512

type tbuf = { mutable buf : int array; mutable len : int }

let tbuf_push b v =
  if b.len = Array.length b.buf then begin
    let bigger = Array.make (2 * max 64 b.len) 0 in
    Array.blit b.buf 0 bigger 0 b.len;
    b.buf <- bigger
  end;
  b.buf.(b.len) <- v;
  b.len <- b.len + 1

(* Signature triples of every fault in one fork-join PPSFP sweep over
   [Fault_sim.prepare_batch] slabs: a shared good slab, per-slot delta
   slabs, [batch_tile]-fault tiles.  Results are written per fault index
   (chunks are contiguous, writes disjoint) and heavy scratch
   (simulator, delta slabs, triple buffers) is per drain slot, so the
   output is identical for any domain count.  Triples arrive in the
   canonical scalar order of [Fault_sim.iter_po_diffs]. *)
let simulate t (faults : Fault_list.fault array) =
  let n = Array.length faults in
  let out = Array.make n [||] in
  if n > 0 then begin
    let domains = t.config.domains in
    let plan =
      Parallel.weighted_chunks ?domains ~min_chunk_weight:64 ~max_chunk_size:batch_tile
        ~weights:(Array.make n 1) ()
    in
    let nslots = Parallel.plan_slots ?domains plan in
    let sims = Array.init nslots (fun _ -> Fault_sim.create ~reach:t.reach t.net) in
    let b0 = Fault_sim.prepare_batch sims.(0) ~blocks:t.blocks ~goods:t.goods in
    let batches =
      Array.init nslots (fun s ->
          if s = 0 then b0
          else Fault_sim.prepare_batch ~share:b0 sims.(s) ~blocks:t.blocks ~goods:t.goods)
    in
    let tbs = Array.init nslots (fun _ -> { buf = Array.make 4096 0; len = 0 }) in
    let startss = Array.init nslots (fun _ -> Array.make batch_tile 0) in
    Parallel.run_plan_slotted ?domains plan (fun ~slot _ci lo hi ->
        let b = batches.(slot) and tb = tbs.(slot) and starts = startss.(slot) in
        tb.len <- 0;
        let cur = ref (-1) in
        let close j =
          if j >= 0 then out.(lo + j) <- Array.sub tb.buf starts.(j) (tb.len - starts.(j))
        in
        Fault_sim.simulate_batch b ~n:(hi - lo)
          ~fault:(fun j ->
            let f = faults.(lo + j) in
            (f.Fault_list.site, f.Fault_list.stuck))
          (fun j bi oi w ->
            if j <> !cur then begin
              close !cur;
              cur := j;
              starts.(j) <- tb.len
            end;
            tbuf_push tb bi;
            tbuf_push tb oi;
            tbuf_push tb w);
        close !cur);
    if Obs.enabled () then begin
      Array.iter Fault_sim.publish_batch_stats batches;
      Array.iter Fault_sim.publish_stats sims
    end
  end;
  out

let fault_key (f : Fault_list.fault) =
  Sig_cache.key ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck

(* Arena hits replay; everything else is simulated in one batched sweep.
   This is the signature source of the baselines ([Single_diag],
   [Dict_diag]). *)
let fault_triples t (faults : Fault_list.fault array) =
  let n = Array.length faults in
  let out = Array.make n [||] in
  let miss = ref [] in
  for i = n - 1 downto 0 do
    let k = fault_key faults.(i) in
    if cached t k then out.(i) <- Option.get (Sig_cache.find (Option.get t.cache) k)
    else miss := i :: !miss
  done;
  let miss = Array.of_list !miss in
  let fresh = simulate t (Array.map (fun i -> faults.(i)) miss) in
  Array.iteri (fun j i -> out.(i) <- fresh.(j)) miss;
  out

let signature_of_triples t triples =
  let npos = Netlist.num_pos t.net in
  let npatterns = Pattern.count t.pats in
  let signature = Array.init npos (fun _ -> Bitvec.create npatterns) in
  let i = ref 0 in
  while !i < Array.length triples do
    let bi = triples.(!i) and oi = triples.(!i + 1) and d = triples.(!i + 2) in
    let base = t.blocks.(bi).Pattern.base in
    Logic.iter_bits d (fun bit -> Bitvec.set signature.(oi) (base + bit) true);
    i := !i + 3
  done;
  signature

(* --- Whole-pool arena -------------------------------------------------- *)

let c_prewarm_faults = Obs.counter "prewarm.faults"
let c_save_failures = Obs.counter "store.save_failures"

(* The whole fault pool, matching the keys the phases probe: class
   representatives when pruning (Explain rows and both baselines key by
   [Fault_list.representative_of]), the full [Fault_list.all] universe
   otherwise (raw candidate keys; the representatives are a subset, so
   either pool covers the baselines). *)
let sweep_pool t =
  Array.of_list
    (if t.config.prune then Fault_list.representatives (Fault_list.collapse t.net)
     else Fault_list.all t.net)

(* One sweep over the pool, packed into the arena: after this every
   signature a diagnosis asks for is a bitmap test plus a streaming
   decode. *)
let sweep t pool =
  Obs.phase "prewarm" (fun () ->
      let triples = simulate t pool in
      if Obs.enabled () then Obs.add c_prewarm_faults (Array.length pool);
      Sig_cache.of_entries t.net t.pats (Array.mapi (fun i f -> (fault_key f, triples.(i))) pool))

(* Load-or-sweep: a valid snapshot holding the whole pool yields the
   arena with zero simulation; anything else (no dir, no file, or a
   rejected file — [store.rejects], including one swept for a smaller
   pool under the other [prune] setting) falls through to the live
   sweep, which is then saved so the next process loads.  A failed save
   is counted and flagged on the session, never fatal.  Returns the
   arena and whether a save failed. *)
let arena t =
  let pool = sweep_pool t in
  let loaded =
    Option.bind t.config.store_dir (fun dir ->
        Sig_cache.load_frozen ~keys:(Array.map fault_key pool) ~dir t.net t.pats)
  in
  match loaded with
  | Some a -> (a, false)
  | None ->
    let a = sweep t pool in
    let failed =
      match t.config.store_dir with
      | Some dir -> not (Sig_cache.save_frozen ~dir a)
      | None -> false
    in
    if failed && Obs.enabled () then Obs.incr c_save_failures;
    (a, failed)

let create ?(config = default_config) ?sink net pats =
  let blocks = Array.of_list (Pattern.blocks pats) in
  let t =
    {
      net;
      pats;
      blocks;
      goods = Array.map (fun b -> Logic_sim.simulate_block net b) blocks;
      reach = Po_reach.compute net;
      cache = None;
      save_failed = false;
      sink;
      config;
    }
  in
  if config.prewarm then begin
    let a, save_failed = with_sink t (fun () -> arena t) in
    { t with cache = Some a; save_failed }
  end
  else t
