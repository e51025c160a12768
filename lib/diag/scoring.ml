type score = {
  explained : int;
  missed : int;
  spurious_fail : int;
  spurious_pass : int;
}

let total_observations s = s.explained + s.missed

(* Missing an observed failure weighs far more than predicting an extra
   one: a stuck-line multiplet standing in for a pattern-dependent defect
   (open, intermittent, bridge) over-predicts by construction, and that
   must not be cheaper than explaining nothing. *)
let penalty s = (10 * s.missed) + (2 * s.spurious_fail) + s.spurious_pass

let perfect s = s.missed = 0 && s.spurious_fail = 0 && s.spurious_pass = 0

let compare_score a b =
  match compare (penalty a) (penalty b) with
  | 0 -> (
    match compare (a.spurious_fail + a.spurious_pass) (b.spurious_fail + b.spurious_pass) with
    | 0 -> compare b.explained a.explained
    | c -> c)
  | c -> c

let zero = { explained = 0; missed = 0; spurious_fail = 0; spurious_pass = 0 }

let add a b =
  {
    explained = a.explained + b.explained;
    missed = a.missed + b.missed;
    spurious_fail = a.spurious_fail + b.spurious_fail;
    spurious_pass = a.spurious_pass + b.spurious_pass;
  }

(* One pattern block, scored with word-parallel bit counting: per output,
   the predicted-failure word is the good/overlay simulation difference,
   the observed-failure word comes from the datalog, and each score
   component is a popcount of a mask combination — no per-(pattern,
   output) scan.  Blocks are independent, so the whole evaluation is a
   map-reduce over blocks (score addition is associative and [zero] its
   identity, making the reduction order — and the domain count —
   irrelevant to the result). *)
let score_block net dlog overlay good (block : Pattern.block) =
  let faulty = Logic_sim.simulate_block_overlay net block overlay in
  let mask = Logic.mask_of_width block.width in
  let pos = Netlist.pos net in
  let npos = Array.length pos in
  (* Observed failing bits, as one word per output plus the
     pattern-failing mask. *)
  let observed = Array.make npos 0 in
  let fail_mask = ref 0 in
  for k = 0 to block.width - 1 do
    match Datalog.failing_pos dlog (block.base + k) with
    | [] -> ()
    | ois ->
      fail_mask := !fail_mask lor (1 lsl k);
      List.iter (fun oi -> observed.(oi) <- observed.(oi) lor (1 lsl k)) ois
  done;
  let explained = ref 0 and missed = ref 0 in
  let spurious_fail = ref 0 and spurious_pass = ref 0 in
  for oi = 0 to npos - 1 do
    let predicted = (good.(pos.(oi)) lxor faulty.(pos.(oi))) land mask in
    let obs = observed.(oi) in
    explained := !explained + Logic.popcount (predicted land obs);
    missed := !missed + Logic.popcount (obs land lnot predicted);
    let spurious = predicted land lnot obs in
    spurious_fail := !spurious_fail + Logic.popcount (spurious land !fail_mask);
    spurious_pass := !spurious_pass + Logic.popcount (spurious land lnot !fail_mask land mask)
  done;
  {
    explained = !explained;
    missed = !missed;
    spurious_fail = !spurious_fail;
    spurious_pass = !spurious_pass;
  }

(* Below this many blocks one evaluation is far cheaper than the domain
   spawns a parallel batch would cost (~1 ms each), so small pattern
   sets score inline whatever domain count the caller asked for — the
   greedy refinement loop in [Noassume] calls this hundreds of times.
   The reduction is associative either way, so the result is
   unaffected. *)
let parallel_grain_blocks = 64

let c_evaluations = Obs.counter "scoring.evaluations"
let c_blocks_scored = Obs.counter "scoring.blocks_scored"

let evaluate ?domains ?goods net pats dlog overlay =
  let blocks = Array.of_list (Pattern.blocks pats) in
  if Obs.enabled () then begin
    Obs.incr c_evaluations;
    Obs.add c_blocks_scored (Array.length blocks)
  end;
  (* The refinement loop re-evaluates hundreds of multiplets against one
     test set; session-threaded callers pass the shared good words so
     only the overlay side is resimulated. *)
  let goods =
    match goods with
    | Some g -> g
    | None -> Array.map (fun b -> Logic_sim.simulate_block net b) blocks
  in
  let domains = if Array.length blocks < parallel_grain_blocks then Some 1 else domains in
  Parallel.map_reduce ?domains
    ~map:(fun i -> score_block net dlog overlay goods.(i) blocks.(i))
    ~reduce:add ~init:zero
    (Array.init (Array.length blocks) Fun.id)

let overlay_of_multiplet faults =
  let sites = List.sort_uniq compare (List.map (fun f -> f.Fault_list.site) faults) in
  List.map
    (fun site ->
      let polarities =
        List.sort_uniq compare
          (List.filter_map
             (fun f -> if f.Fault_list.site = site then Some f.Fault_list.stuck else None)
             faults)
      in
      match polarities with
      | [ v ] -> Logic_sim.force site v
      | _ ->
        {
          Logic_sim.target = site;
          behave = (fun ~computed ~value_of:_ ~driven_of:_ ~base:_ -> lnot computed);
        })
    sites

(* Batched multiplet scoring (the PPSFP pass, DESIGN.md §11): seed every
   member of the multiplet into one delta-propagation sweep instead of
   resimulating the whole netlist under an overlay.  Identical by
   construction to [evaluate (overlay_of_multiplet faults)]: pins read no
   other net and the netlist is feedback-free, so one levelized pass is
   already the overlay simulator's fixpoint, and the emitted diff words
   equal the predicted-failure words [score_block] popcounts.

   The scratch — a simulator plus batch slabs bound to one (netlist,
   pattern set), and the datalog's observed words — is domain-local and
   keyed on physical identity: the refinement loop re-scores hundreds of
   multiplets against one problem, and a diagnosis touches at most a
   couple of problems at once (two slots, oldest evicted). *)
type batch_scratch = {
  s_net : Netlist.t;
  s_pats : Pattern.t;
  s_blocks : Pattern.block array;
  s_batch : Fault_sim.batch;
  mutable s_dlog : Datalog.t option; (* tables below are for this log *)
  mutable s_obs : int array; (* observed-failing words, [bi * npos + oi] *)
  mutable s_fail : int array; (* per block: observed-failing pattern mask *)
  mutable s_totobs : int; (* total observations in the datalog *)
}

let scratch_key : batch_scratch list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let get_scratch ?goods net pats =
  let r = Domain.DLS.get scratch_key in
  match List.find_opt (fun sc -> sc.s_net == net && sc.s_pats == pats) !r with
  | Some sc -> sc
  | None ->
    let blocks = Array.of_list (Pattern.blocks pats) in
    let goods =
      match goods with
      | Some g -> g
      | None -> Array.map (fun b -> Logic_sim.simulate_block net b) blocks
    in
    let sim = Fault_sim.create net in
    let sc =
      {
        s_net = net;
        s_pats = pats;
        s_blocks = blocks;
        s_batch = Fault_sim.prepare_batch sim ~blocks ~goods;
        s_dlog = None;
        s_obs = [||];
        s_fail = [||];
        s_totobs = 0;
      }
    in
    (r := match !r with [] -> [ sc ] | keep :: _ -> [ sc; keep ]);
    sc

let prep_dlog sc dlog npos =
  match sc.s_dlog with
  | Some d when d == dlog -> ()
  | _ ->
    let nblocks = Array.length sc.s_blocks in
    let obs = Array.make (max 1 (nblocks * npos)) 0 in
    let fail = Array.make (max 1 nblocks) 0 in
    let tot = ref 0 in
    Array.iteri
      (fun bi (block : Pattern.block) ->
        for k = 0 to block.width - 1 do
          match Datalog.failing_pos dlog (block.base + k) with
          | [] -> ()
          | ois ->
            fail.(bi) <- fail.(bi) lor (1 lsl k);
            List.iter
              (fun oi ->
                obs.((bi * npos) + oi) <- obs.((bi * npos) + oi) lor (1 lsl k);
                incr tot)
              ois
        done)
      sc.s_blocks;
    sc.s_obs <- obs;
    sc.s_fail <- fail;
    sc.s_totobs <- !tot;
    sc.s_dlog <- Some dlog

let evaluate_multiplet ?goods net pats dlog faults =
  let sc = get_scratch ?goods net pats in
  let npos = Datalog.npos dlog in
  prep_dlog sc dlog npos;
  if Obs.enabled () then begin
    Obs.incr c_evaluations;
    Obs.add c_blocks_scored (Array.length sc.s_blocks)
  end;
  let explained = ref 0 and spurious_fail = ref 0 and spurious_pass = ref 0 in
  let s_obs = sc.s_obs and s_fail = sc.s_fail in
  Fault_sim.batch_multiplet_diffs sc.s_batch
    ~faults:(List.map (fun f -> (f.Fault_list.site, f.Fault_list.stuck)) faults)
    (fun bi oi w ->
      (* [w] is already masked to the block's live width. *)
      let obs = s_obs.((bi * npos) + oi) in
      let fm = s_fail.(bi) in
      explained := !explained + Logic.popcount (w land obs);
      spurious_fail := !spurious_fail + Logic.popcount (w land lnot obs land fm);
      (* Observed bits only occur on failing patterns, so
         [w land lnot fm] is exactly predicted-and-not-observed on
         passing patterns. *)
      spurious_pass := !spurious_pass + Logic.popcount (w land lnot fm));
  Fault_sim.publish_stats (Fault_sim.batch_sim sc.s_batch);
  (* Unemitted (block, PO) words predict nothing, so every observation
     they carry is missed: total minus explained needs no scan. *)
  {
    explained = !explained;
    missed = sc.s_totobs - !explained;
    spurious_fail = !spurious_fail;
    spurious_pass = !spurious_pass;
  }

let pp ppf s =
  Format.fprintf ppf "explained %d, missed %d, spurious %d+%d (penalty %d)" s.explained
    s.missed s.spurious_fail s.spurious_pass (penalty s)
