type ranked = { fault : Fault_list.fault; score : Scoring.score }

type result = { best : ranked list; ranking : ranked list }

(* Score one fault from its signature without a full overlay simulation:
   a single stuck line's predicted failures are exactly its signature. *)
let score_signature dlog signature =
  let npos = Array.length signature in
  let npatterns = if npos = 0 then 0 else Bitvec.length signature.(0) in
  let explained = ref 0 in
  let missed = ref 0 in
  let spurious_fail = ref 0 in
  let spurious_pass = ref 0 in
  for p = 0 to npatterns - 1 do
    let failing = Datalog.is_failing dlog p in
    let fail_set = Datalog.failing_pos dlog p in
    for oi = 0 to npos - 1 do
      let predicted = Bitvec.get signature.(oi) p in
      let observed = failing && List.mem oi fail_set in
      match (observed, predicted) with
      | true, true -> incr explained
      | true, false -> incr missed
      | false, true -> if failing then incr spurious_fail else incr spurious_pass
      | false, false -> ()
    done
  done;
  {
    Scoring.explained = !explained;
    missed = !missed;
    spurious_fail = !spurious_fail;
    spurious_pass = !spurious_pass;
  }

let diagnose_session ?(keep = 20) session dlog =
  let net = Session.netlist session in
  let collapsed = Fault_list.collapse net in
  let faults = Array.of_list (Fault_list.representatives collapsed) in
  (* All representative signatures at once: arena hits replay, the rest
     go through the session's PPSFP slabs instead of one scalar cone
     walk per (fault, block) — the former cold-path hot spot of this
     baseline. *)
  let triples = Session.fault_triples session faults in
  let scored =
    List.init (Array.length faults) (fun i ->
        {
          fault = faults.(i);
          score =
            score_signature dlog (Session.signature_of_triples session triples.(i));
        })
  in
  let sorted =
    List.sort
      (fun a b ->
        match Scoring.compare_score a.score b.score with
        | 0 -> Fault_list.compare_fault a.fault b.fault
        | c -> c)
      scored
  in
  match sorted with
  | [] -> { best = []; ranking = [] }
  | top :: _ ->
    let best =
      List.filter (fun r -> Scoring.compare_score r.score top.score = 0) sorted
    in
    let ranking = List.filteri (fun i _ -> i < keep) sorted in
    { best; ranking }

let diagnose ?keep net pats dlog = diagnose_session ?keep (Session.create net pats) dlog

let callout_nets r =
  List.sort_uniq compare (List.map (fun r -> r.fault.Fault_list.site) r.best)
