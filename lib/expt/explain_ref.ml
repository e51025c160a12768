(* Per-fault reference for the explanation matrix: the scalar fill that
   [Explain] ran before the PPSFP batch pass, kept out of production
   code.  One cone walk per (fault, block), bits scattered into the
   accumulators one at a time.  See the interface. *)

type t = {
  candidates : Fault_list.fault array;
  row_of : int array; (* candidate -> simulated row (class-shared) *)
  nfp : int;
  covers : Bitvec.t array; (* per row *)
  matched : int array; (* flat row x failing-pattern *)
  spurious : int array;
  mispredict_pass : int array;
}

let build session dlog candidates =
  let net = Session.netlist session in
  let blocks = Session.blocks session and goods = Session.goods session in
  let observations = Datalog.observations dlog in
  let failing = Array.of_list (Datalog.failing_patterns dlog) in
  let nfp = Array.length failing and npos = Datalog.npos dlog in
  let fp_of_pattern = Array.make (max 1 (Datalog.npatterns dlog)) (-1) in
  Array.iteri (fun i p -> fp_of_pattern.(p) <- i) failing;
  let obs_of = Array.make (max 1 (nfp * npos)) (-1) in
  Array.iteri
    (fun i (ob : Datalog.observation) ->
      obs_of.((fp_of_pattern.(ob.pattern) * npos) + ob.po) <- i)
    observations;
  let fail_masks =
    Array.map
      (fun (block : Pattern.block) ->
        let m = ref 0 in
        for k = 0 to block.width - 1 do
          if fp_of_pattern.(block.base + k) >= 0 then m := !m lor (1 lsl k)
        done;
        !m)
      blocks
  in
  (* One simulated row per class representative under pruning, exactly
     the rows [Explain] simulates. *)
  let rep_of =
    if (Session.config session).Session.prune then
      Fault_list.representative_of (Fault_list.collapse net)
    else Fun.id
  in
  let ncand = Array.length candidates in
  let row_of = Array.make ncand 0 in
  let row_index = Hashtbl.create (2 * ncand) in
  let reps = ref [] and nrows = ref 0 in
  Array.iteri
    (fun c f ->
      let rep = rep_of f in
      match Hashtbl.find_opt row_index rep with
      | Some r -> row_of.(c) <- r
      | None ->
        Hashtbl.add row_index rep !nrows;
        row_of.(c) <- !nrows;
        reps := rep :: !reps;
        incr nrows)
    candidates;
  let nrows = !nrows in
  let covers = Array.init nrows (fun _ -> Bitvec.create (Array.length observations)) in
  let matched = Array.make (max 1 (nrows * nfp)) 0 in
  let spurious = Array.make (max 1 (nrows * nfp)) 0 in
  let mispredict_pass = Array.make (max 1 nrows) 0 in
  let sim = Fault_sim.create ~reach:(Session.reach session) net in
  List.iteri
    (fun r (f : Fault_list.fault) ->
      let ro = r * nfp in
      Array.iteri
        (fun bi (block : Pattern.block) ->
          let any = ref 0 in
          Fault_sim.iter_po_diffs sim ~good:goods.(bi) ~width:block.width ~site:f.site
            ~stuck:f.stuck (fun oi d ->
              any := !any lor d;
              Logic.iter_bits (d land fail_masks.(bi)) (fun k ->
                  let fp = fp_of_pattern.(block.base + k) in
                  let o = obs_of.((fp * npos) + oi) in
                  if o >= 0 then begin
                    Bitvec.set covers.(r) o true;
                    matched.(ro + fp) <- matched.(ro + fp) + 1
                  end
                  else spurious.(ro + fp) <- spurious.(ro + fp) + 1));
          let pass_pred = !any land lnot fail_masks.(bi) land Logic.mask_of_width block.width in
          mispredict_pass.(r) <- mispredict_pass.(r) + Logic.popcount pass_pred)
        blocks)
    (List.rev !reps);
  { candidates; row_of; nfp; covers; matched; spurious; mispredict_pass }

let agrees m r =
  Explain.candidates m = r.candidates
  && Array.length (Explain.failing m) = r.nfp
  &&
  let ok = ref true in
  Array.iteri
    (fun c row ->
      if
        (not (Bitvec.equal (Explain.covers m c) r.covers.(row)))
        || Explain.mispredict_pass m c <> r.mispredict_pass.(row)
      then ok := false;
      for fp = 0 to r.nfp - 1 do
        if
          Explain.matched m c fp <> r.matched.((row * r.nfp) + fp)
          || Explain.spurious m c fp <> r.spurious.((row * r.nfp) + fp)
        then ok := false
      done)
    r.row_of;
  !ok
