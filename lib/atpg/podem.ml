(* PODEM with event-driven, allocation-free implication.

   Both machines share one int per net, dual-rail: bit 0 "can be 0" and
   bit 1 "can be 1" of the good machine, bits 2 and 3 the same for the
   faulty machine.  V0 = 0b01, V1 = 0b10 and X = 0b11 in each half, so
   one pass over a gate's CSR fanin slice evaluates it in both machines
   with the same X-pessimism as [Gate.eval_v3].

   A decision sets one primary input; the change travels level by level
   through the fanouts whose value actually changes, with the fault site
   pinned to its stuck value in the faulty half.  Ternary simulation of
   a DAG is a function of the PI vector alone, so after propagation the
   values equal a full re-simulation of the current assignment, and a
   backtrack only re-propagates the inputs it unassigns or flips: no
   undo trail.

   The search (conflict check, D-frontier objective, backtrace, decision
   stack, random fill) visits nets in the order of the classic
   full-resimulation formulation, so every fault gets the same result,
   byte for byte.  The test suite keeps that formulation as the
   differential oracle. *)

type result = Test of bool array | Untestable | Aborted

(* Plain ints in the engine, published once per [generate] call. *)
let c_calls = Obs.counter "atpg.podem_calls"
let c_backtracks = Obs.counter "atpg.backtracks"
let c_gate_evals = Obs.counter "atpg.gate_evals"

let v0 = 0b01
let v1 = 0b10
let vx = 0b11

(* The "can be 0" and "can be 1" rails of both machines at once. *)
let rail0 = 0b0101
let rail1 = 0b1010

(* Complement in both machines: exchange the rails. *)
let swap w = ((w land rail0) lsl 1) lor ((w lsr 1) land rail0)

let good w = w land 3
let faulty w = w lsr 2
let is_d w = (w lxor (w lsr 2)) land 3 = 3
let is_potential w = good w = vx || faulty w = vx

let eval code (v : int array) (fanin : int array) lo hi =
  if code = Gate.code_buf then v.(fanin.(lo))
  else if code = Gate.code_not then swap v.(fanin.(lo))
  else if code = Gate.code_xor || code = Gate.code_xnor then begin
    (* X in a machine if any operand is X there; else the parity of the
       "can be 1" rails. *)
    let x = ref 0 and p = ref 0 in
    for i = lo to hi - 1 do
      let w = v.(fanin.(i)) in
      x := !x lor (w land (w lsr 1));
      p := !p lxor w
    done;
    let x = !x land rail0 and p = !p land rail1 in
    let r = p lor ((p lsr 1) land rail0 lxor rail0) lor x lor (x lsl 1) in
    if code = Gate.code_xnor then swap r else r
  end
  else if code = Gate.code_const0 then v0 lor (v0 lsl 2)
  else if code = Gate.code_const1 then v1 lor (v1 lsl 2)
  else begin
    (* AND: can be 1 iff every operand can; can be 0 iff some operand
       can.  OR is the dual. *)
    let a = ref 0b1111 and o = ref 0 in
    for i = lo to hi - 1 do
      let w = v.(fanin.(i)) in
      a := !a land w;
      o := !o lor w
    done;
    let conj = !a land rail1 lor (!o land rail0) in
    let disj = !o land rail1 lor (!a land rail0) in
    if code = Gate.code_and then conj
    else if code = Gate.code_nand then swap conj
    else if code = Gate.code_or then disj
    else if code = Gate.code_nor then swap disj
    else invalid_arg "Podem.eval: a primary input has no function"
  end

(* One [generate] call's scratch state: flat arrays over the netlist's
   CSR views, allocated once per call and never during the search. *)
type state = {
  net : Netlist.t;
  fanin : int array;
  fanin_off : int array;
  fanout : int array;
  fanout_off : int array;
  codes : int array;
  level : int array;
  site : int;
  pin : int;  (* the stuck value, in the faulty half *)
  v : int array;  (* dual-rail good and faulty value per net *)
  (* Level-bucketed event queue: the nets of level [l] waiting to be
     re-evaluated are [bucket.(bucket_off.(l) + i)], [i < fill.(l)]. *)
  queued : bool array;
  bucket : int array;
  bucket_off : int array;
  fill : int array;
  mutable lo : int;
  mutable hi : int;
  (* The site's fanout cone in topological order: every D net, and every
     gate with a D fanin, lies in it. *)
  cone : int array;
  (* BFS scratch; a net is seen when [seen.(n) = stamp]. *)
  seen : int array;
  mutable stamp : int;
  queue : int array;
  mutable evals : int;
}

let pinned s n w = if n = s.site then good w lor s.pin else w

let settle s n w =
  let w = pinned s n w in
  if w <> s.v.(n) then begin
    s.v.(n) <- w;
    for i = s.fanout_off.(n) to s.fanout_off.(n + 1) - 1 do
      let g = s.fanout.(i) in
      if not s.queued.(g) then begin
        s.queued.(g) <- true;
        let l = s.level.(g) in
        s.bucket.(s.bucket_off.(l) + s.fill.(l)) <- g;
        s.fill.(l) <- s.fill.(l) + 1;
        if l < s.lo then s.lo <- l;
        if l > s.hi then s.hi <- l
      end
    done
  end

let eval_net s n =
  s.evals <- s.evals + 1;
  eval s.codes.(n) s.v s.fanin s.fanin_off.(n) s.fanin_off.(n + 1)

(* Fanouts sit on strictly higher levels, so a level's bucket is final
   once the loop reaches it. *)
let propagate s =
  let l = ref s.lo in
  while !l <= s.hi do
    let lvl = !l in
    let base = s.bucket_off.(lvl) in
    for i = 0 to s.fill.(lvl) - 1 do
      let g = s.bucket.(base + i) in
      s.queued.(g) <- false;
      settle s g (eval_net s g)
    done;
    s.fill.(lvl) <- 0;
    incr l
  done;
  s.lo <- max_int;
  s.hi <- -1

(* Assign a primary input ([vx] unassigns it). *)
let assign s pi value = settle s pi (value lor (value lsl 2))

let create t (fault : Fault_list.fault) =
  let n = Netlist.num_nets t in
  let level = Netlist.level_array t in
  let depth = Netlist.depth t in
  let bucket_off = Array.make (depth + 2) 0 in
  Array.iter (fun l -> bucket_off.(l + 1) <- bucket_off.(l + 1) + 1) level;
  for l = 1 to depth + 1 do
    bucket_off.(l) <- bucket_off.(l) + bucket_off.(l - 1)
  done;
  let fanout = Netlist.fanout_csr t and fanout_off = Netlist.fanout_offsets t in
  let site = fault.Fault_list.site in
  (* Mark the fanout cone of the site, then keep it in topo order. *)
  let seen = Array.make n 0 and queue = Array.make n 0 in
  seen.(site) <- 1;
  queue.(0) <- site;
  let tail = ref 1 in
  let head = ref 0 in
  while !head < !tail do
    let m = queue.(!head) in
    incr head;
    for i = fanout_off.(m) to fanout_off.(m + 1) - 1 do
      let g = fanout.(i) in
      if seen.(g) = 0 then begin
        seen.(g) <- 1;
        queue.(!tail) <- g;
        incr tail
      end
    done
  done;
  let cone = Array.make !tail 0 in
  let k = ref 0 in
  Array.iter
    (fun m ->
      if seen.(m) = 1 then begin
        cone.(!k) <- m;
        incr k
      end)
    (Netlist.topo_order t);
  let s =
    {
      net = t;
      fanin = Netlist.fanin_csr t;
      fanin_off = Netlist.fanin_offsets t;
      fanout;
      fanout_off;
      codes = Netlist.gate_codes t;
      level;
      site;
      pin = (if fault.Fault_list.stuck then v1 else v0) lsl 2;
      v = Array.make n 0b1111;
      queued = Array.make n false;
      bucket = Array.make n 0;
      bucket_off;
      fill = Array.make (depth + 1) 0;
      lo = max_int;
      hi = -1;
      cone;
      seen;
      stamp = 1;
      queue;
      evals = 0;
    }
  in
  (* Every input X: one full pass sets the constants and the site. *)
  Array.iter
    (fun m ->
      let w = if s.codes.(m) = Gate.code_input then 0b1111 else eval_net s m in
      s.v.(m) <- pinned s m w)
    (Netlist.topo_order t);
  s

let detected s =
  let pos = Netlist.pos s.net in
  let found = ref false in
  let i = ref 0 in
  while (not !found) && !i < Array.length pos do
    found := is_d s.v.(pos.(!i));
    incr i
  done;
  !found

(* Can the fault effect still reach an output?  BFS from every D net
   through nets that are D or undecided (X in either machine). *)
let x_path_exists s =
  s.stamp <- s.stamp + 1;
  let stamp = s.stamp in
  let tail = ref 0 in
  for i = 0 to Array.length s.cone - 1 do
    let m = s.cone.(i) in
    if is_d s.v.(m) then begin
      s.seen.(m) <- stamp;
      s.queue.(!tail) <- m;
      incr tail
    end
  done;
  let head = ref 0 in
  let found = ref false in
  while (not !found) && !head < !tail do
    let m = s.queue.(!head) in
    incr head;
    if Netlist.is_po s.net m then found := true
    else
      for i = s.fanout_off.(m) to s.fanout_off.(m + 1) - 1 do
        let w = s.fanout.(i) in
        if s.seen.(w) <> stamp && (is_d s.v.(w) || is_potential s.v.(w)) then begin
          s.seen.(w) <- stamp;
          s.queue.(!tail) <- w;
          incr tail
        end
      done
  done;
  !found

(* First fanin of [g] that is X in the good machine, or -1. *)
let first_x s g =
  let r = ref (-1) in
  let i = ref s.fanin_off.(g) in
  while !r < 0 && !i < s.fanin_off.(g + 1) do
    let src = s.fanin.(!i) in
    if good s.v.(src) = vx then r := src;
    incr i
  done;
  !r

let has_d_fanin s g =
  let r = ref false in
  let i = ref s.fanin_off.(g) in
  while (not !r) && !i < s.fanin_off.(g + 1) do
    r := is_d s.v.(s.fanin.(!i));
    incr i
  done;
  !r

(* Objectives and PI decisions travel as [(net lsl 1) lor value]; -1 is
   "none". *)

(* The gate objective to pursue next: excite the fault if not excited,
   otherwise extend the D-frontier — the first gate in topo order that
   is undecided and has a D fanin, driving its first X input to the
   non-controlling value. *)
let objective s stuck =
  if good s.v.(s.site) = vx then (s.site lsl 1) lor Bool.to_int (not stuck)
  else begin
    let result = ref (-1) in
    let i = ref 0 in
    while !result < 0 && !i < Array.length s.cone do
      let g = s.cone.(!i) in
      incr i;
      let code = s.codes.(g) in
      if is_potential s.v.(g) && code <> Gate.code_input && has_d_fanin s g then begin
        let src = first_x s g in
        if src >= 0 then
          let value = Bool.to_int (code = Gate.code_and || code = Gate.code_nand) in
          result := (src lsl 1) lor value
      end
    done;
    !result
  end

(* Walk an objective down to an unassigned primary input. *)
let rec walk s net v guard =
  if guard = 0 then -1
  else
    let code = s.codes.(net) in
    if code = Gate.code_input then (net lsl 1) lor v
    else if code = Gate.code_const0 || code = Gate.code_const1 then -1
    else if code = Gate.code_buf then walk s s.fanin.(s.fanin_off.(net)) v (guard - 1)
    else if code = Gate.code_not then walk s s.fanin.(s.fanin_off.(net)) (1 - v) (guard - 1)
    else
      let inverting =
        code = Gate.code_nand || code = Gate.code_nor || code = Gate.code_xnor
      in
      let v_eff = if inverting then 1 - v else v in
      let src = first_x s net in
      if src < 0 then -1
      else if code = Gate.code_xor || code = Gate.code_xnor then begin
        (* Parity of the other inputs that are already 1 (by net id, so
           a repeated fanin of [src] is skipped in every position). *)
        let parity = ref 0 in
        for i = s.fanin_off.(net) to s.fanin_off.(net + 1) - 1 do
          let other = s.fanin.(i) in
          if other <> src && good s.v.(other) = v1 then parity := 1 - !parity
        done;
        walk s src (v_eff lxor !parity) (guard - 1)
      end
      else walk s src v_eff (guard - 1)

let backtrace s obj = walk s (obj lsr 1) (obj land 1) (Array.length s.v + 1)

type status = Searching | Found | Exhausted | Gave_up

let generate ?(backtrack_limit = 512) ?(fill_seed = 7) t fault =
  let s = create t fault in
  let stuck = fault.Fault_list.stuck in
  let pis = Netlist.pis t in
  let npis = Array.length pis in
  (* Decision stack: PI net, current value, whether already flipped. *)
  let d_net = Array.make npis 0 in
  let d_value = Array.make npis 0 in
  let d_flipped = Array.make npis false in
  let depth = ref 0 in
  let backtracks = ref 0 in
  let rng = Rng.create (fill_seed + (fault.Fault_list.site * 2) + Bool.to_int stuck) in
  let rail value = if value = 1 then v1 else v0 in
  let status = ref Searching in
  while !status = Searching do
    propagate s;
    if detected s then status := Found
    else begin
      let g = good s.v.(s.site) in
      (* Fault can no longer be excited, or no propagation path remains:
         every extension of this assignment fails too. *)
      let conflict = g <> vx && ((g = v1) = stuck || not (x_path_exists s)) in
      let decision =
        if conflict then -1
        else
          let obj = objective s stuck in
          if obj < 0 then -1 else backtrace s obj
      in
      if decision >= 0 then begin
        let pi = decision lsr 1 and value = decision land 1 in
        assign s pi (rail value);
        d_net.(!depth) <- pi;
        d_value.(!depth) <- value;
        d_flipped.(!depth) <- false;
        incr depth
      end
      else begin
        incr backtracks;
        if !backtracks > backtrack_limit then status := Gave_up
        else begin
          (* Unassign flipped decisions, flip the newest unflipped one. *)
          let resumed = ref false in
          while (not !resumed) && !depth > 0 do
            let d = !depth - 1 in
            if d_flipped.(d) then begin
              assign s d_net.(d) vx;
              depth := d
            end
            else begin
              d_flipped.(d) <- true;
              d_value.(d) <- 1 - d_value.(d);
              assign s d_net.(d) (rail d_value.(d));
              resumed := true
            end
          done;
          if not !resumed then status := Exhausted
        end
      end
    end
  done;
  if Obs.enabled () then begin
    Obs.incr c_calls;
    Obs.add c_backtracks !backtracks;
    Obs.add c_gate_evals s.evals
  end;
  match !status with
  | Found ->
    Test
      (Array.init npis (fun i ->
           let g = good s.v.(pis.(i)) in
           if g = vx then Rng.bool rng else g = v1))
  | Gave_up -> Aborted
  | Searching | Exhausted -> Untestable
