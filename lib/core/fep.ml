open Mdsp_util

type topology_info = {
  topo : Mdsp_ff.Topology.t;
  solute : bool array;  (** atoms being decoupled *)
  cutoff : float;
  elec : Mdsp_ff.Pair_interactions.electrostatics;
  sc_alpha : float;  (** soft-core alpha *)
}

let make_info ?(sc_alpha = 0.5) topo ~solute ~cutoff ~elec =
  if Array.length solute <> Mdsp_ff.Topology.n_atoms topo then
    invalid_arg "Fep.make_info: solute mask length mismatch";
  { topo; solute; cutoff; elec; sc_alpha }

(* Evaluator at coupling lambda: solute-environment LJ turns into Beutler
   soft-core scaled by lambda; solute-environment charges scale by lambda.
   Other pairs are untouched. lambda = 1 recovers the fully coupled
   system; lambda = 0 decouples the solute. *)
let evaluator info ~lambda =
  let topo = info.topo in
  let base =
    Mdsp_ff.Pair_interactions.of_topology topo ~cutoff:info.cutoff
      ~trunc:Mdsp_ff.Nonbonded.Shift ~elec:info.elec
  in
  if lambda >= 1. then base
  else begin
    let charges = Mdsp_ff.Topology.charges topo in
    let types =
      Array.map (fun (a : Mdsp_ff.Topology.atom) -> a.type_id) topo.atoms
    in
    let rc2 = info.cutoff *. info.cutoff in
    let eval i j r2 =
      let cross = info.solute.(i) <> info.solute.(j) in
      if not cross then base.Mdsp_ff.Pair_interactions.eval i j r2
      else if r2 >= rc2 then (0., 0.)
      else begin
        let eps_i, sig_i = topo.lj_types.(types.(i)) in
        let eps_j, sig_j = topo.lj_types.(types.(j)) in
        let epsilon = sqrt (eps_i *. eps_j) in
        let sigma = 0.5 *. (sig_i +. sig_j) in
        let sc =
          Mdsp_ff.Nonbonded.Soft_core_lj
            { epsilon; sigma; alpha = info.sc_alpha; lambda }
        in
        let e_lj, f_lj =
          Mdsp_ff.Nonbonded.eval_truncated sc ~cutoff:info.cutoff
            ~trunc:Mdsp_ff.Nonbonded.Shift r2
        in
        let qq = Units.coulomb *. charges.(i) *. charges.(j) *. lambda in
        let e_c, f_c =
          if qq = 0. then (0., 0.)
          else begin
            match info.elec with
            | Mdsp_ff.Pair_interactions.No_coulomb -> (0., 0.)
            | _ ->
                let r = sqrt r2 in
                ((qq /. r) -. (qq /. info.cutoff), qq /. (r2 *. r))
          end
        in
        (e_lj +. e_c, f_lj +. f_c)
      end
    in
    Mdsp_ff.Pair_interactions.of_eval ~cutoff:info.cutoff eval
  end

(* Per-window machine compilation: the cross interaction becomes one
   soft-core table per type pair plus the charge-scaled electrostatic
   shape table; every other pair uses the topology's standard table set. *)
let table_evaluator info ~lambda ~n =
  let topo = info.topo in
  let cutoff = info.cutoff in
  let base_tables =
    Table.table_set_of_topology topo ~cutoff ~elec:info.elec ~n ()
  in
  let types =
    Array.map (fun (a : Mdsp_ff.Topology.atom) -> a.type_id) topo.atoms
  in
  let charges = Mdsp_ff.Topology.charges topo in
  let base_ev =
    Mdsp_machine.Htis.evaluator base_tables ~types ~charges ~cutoff
  in
  if lambda >= 1. then base_ev
  else begin
    let ntypes = Array.length topo.lj_types in
    let r_min = 0.8 in
    (* Soft-core tables are finite at r = 0, so they can start at 0.1. *)
    let cross_lj =
      Array.init ntypes (fun i ->
          Array.init ntypes (fun j ->
              let eps_i, sig_i = topo.lj_types.(i) in
              let eps_j, sig_j = topo.lj_types.(j) in
              let form =
                Mdsp_ff.Nonbonded.Soft_core_lj
                  {
                    epsilon = sqrt (eps_i *. eps_j);
                    sigma = 0.5 *. (sig_i +. sig_j);
                    alpha = info.sc_alpha;
                    lambda;
                  }
              in
              Table.compile ~r_min:0.1 ~r_cut:cutoff ~n
                (Table.of_form form ~cutoff)))
    in
    let cross_es =
      match info.elec with
      | Mdsp_ff.Pair_interactions.No_coulomb -> None
      | _ ->
          (* Cross electrostatics use the shifted-cutoff Coulomb shape
             scaled by lambda * qq (matching [evaluator]). *)
          Some
            (Table.compile ~r_min ~r_cut:cutoff ~n (fun r2 ->
                 let r = sqrt r2 in
                 ((1. /. r) -. (1. /. cutoff), 1. /. (r2 *. r))))
    in
    let rc2 = cutoff *. cutoff in
    let eval i j r2 =
      if info.solute.(i) = info.solute.(j) then
        base_ev.Mdsp_ff.Pair_interactions.eval i j r2
      else if r2 >= rc2 then (0., 0.)
      else begin
        let e_lj, f_lj =
          Mdsp_machine.Interp_table.eval cross_lj.(types.(i)).(types.(j)) r2
        in
        match cross_es with
        | None -> (e_lj, f_lj)
        | Some es ->
            let qq = Units.coulomb *. charges.(i) *. charges.(j) *. lambda in
            if qq = 0. then (e_lj, f_lj)
            else begin
              let e_c, f_c = Mdsp_machine.Interp_table.eval es r2 in
              (e_lj +. (qq *. e_c), f_lj +. (qq *. f_c))
            end
      end
    in
    Mdsp_ff.Pair_interactions.of_eval ~cutoff eval
  end

(* Cross (solute-environment) energy at a given lambda for one
   configuration — iterates solute atoms against everything, honoring
   exclusions and minimum image. *)
let cross_energy info ~lambda box positions =
  let ev = evaluator info ~lambda in
  let n = Array.length positions in
  let e = ref 0. in
  for i = 0 to n - 1 do
    if info.solute.(i) then
      for j = 0 to n - 1 do
        if
          (not info.solute.(j))
          && not
               (Mdsp_space.Exclusions.excluded
                  info.topo.Mdsp_ff.Topology.exclusions i j)
        then begin
          let r2 = Pbc.dist2 box positions.(i) positions.(j) in
          if r2 < info.cutoff *. info.cutoff then
            e := !e +. fst (ev.Mdsp_ff.Pair_interactions.eval i j r2)
        end
      done
  done;
  !e

type window_samples = {
  lambda : float;
  du_forward : float array;  (** U(next) - U(this) sampled at this lambda *)
  du_backward : float array;  (** U(prev) - U(this) sampled at this lambda *)
}

type result = {
  windows : window_samples list;
  delta_f : float;  (** total, by BAR over adjacent windows *)
  per_stage : float array;
}

(* Dual-topology style run: at each lambda window, equilibrate then sample
   energy differences toward both neighbors. *)
let run info ~engine ~lambdas ~temp ~equil_steps ~sample_steps ~sample_stride =
  let m = Array.length lambdas in
  if m < 2 then invalid_arg "Fep.run: need at least two lambda windows";
  let fc = Mdsp_md.Engine.force_calc engine in
  let windows = ref [] in
  for w = 0 to m - 1 do
    let lam = lambdas.(w) in
    Mdsp_md.Force_calc.set_evaluator fc (evaluator info ~lambda:lam);
    Mdsp_md.Engine.refresh_forces engine;
    Mdsp_md.Engine.run engine equil_steps;
    let fwd = ref [] and bwd = ref [] in
    let n_samples = sample_steps / sample_stride in
    for _ = 1 to n_samples do
      Mdsp_md.Engine.run engine sample_stride;
      let st = Mdsp_md.Engine.state engine in
      let box = st.Mdsp_md.State.box in
      let pos = st.Mdsp_md.State.positions in
      let u_here = cross_energy info ~lambda:lam box pos in
      if w < m - 1 then
        fwd :=
          (cross_energy info ~lambda:lambdas.(w + 1) box pos -. u_here)
          :: !fwd;
      if w > 0 then
        bwd :=
          (cross_energy info ~lambda:lambdas.(w - 1) box pos -. u_here)
          :: !bwd
    done;
    windows :=
      {
        lambda = lam;
        du_forward = Array.of_list (List.rev !fwd);
        du_backward = Array.of_list (List.rev !bwd);
      }
      :: !windows
  done;
  let windows = List.rev !windows in
  let arr = Array.of_list windows in
  let per_stage =
    Array.init (m - 1) (fun i ->
        Mdsp_analysis.Free_energy.bar ~temp ~forward:arr.(i).du_forward
          ~backward:arr.(i + 1).du_backward)
  in
  let delta_f = Array.fold_left ( +. ) 0. per_stage in
  { windows; delta_f; per_stage }

(* Machine mapping: the soft-core cross interactions need a second table
   pass through the pipelines (separate tables per lambda window), i.e. the
   pair workload for cross pairs runs twice when sampling du. *)
let pair_passes _ = 1.3
let flex_ops_per_step _ = 100.
