(* Three-valued (0/1/X) simulation: a whole-netlist pass per call over
   [Gate.eval_v3].  The full-resimulation PODEM oracle ([Podem_ref])
   runs on it. *)

(* [simulate_forced t pi_values forced]: per-net values for the PI
   assignment (indexed by PI position, X allowed), the listed nets
   taking the forced value instead of their computed one. *)
let simulate_forced t pi_values forced =
  let npis = Netlist.num_pis t in
  if Array.length pi_values <> npis then
    invalid_arg "Ternary_sim: PI vector width mismatch";
  let n = Netlist.num_nets t in
  let values = Array.make n Logic.X in
  Array.iteri (fun i pi -> values.(pi) <- pi_values.(i)) (Netlist.pis t);
  let forced_tbl = Hashtbl.create 8 in
  List.iter (fun (net, v) -> Hashtbl.replace forced_tbl net v) forced;
  Array.iter
    (fun net ->
      match Hashtbl.find_opt forced_tbl net with
      | Some v -> values.(net) <- v
      | None ->
        if not (Netlist.is_pi t net) then
          let args =
            Array.to_list (Array.map (fun src -> values.(src)) (Netlist.fanin t net))
          in
          values.(net) <- Gate.eval_v3 (Netlist.kind t net) args)
    (Netlist.topo_order t);
  values

let simulate t pi_values = simulate_forced t pi_values []
