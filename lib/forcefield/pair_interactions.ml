open Mdsp_util

type electrostatics =
  | No_coulomb
  | Cutoff_coulomb
  | Reaction_field of { epsilon_rf : float }
  | Ewald_real of { beta : float }

type analytic = {
  topo : Topology.t;
  trunc : Nonbonded.truncation;
  elec : electrostatics;
}

type evaluator = {
  eval : int -> int -> float -> float * float;
  cutoff : float;
  analytic : analytic option;
}

let of_eval ~cutoff eval = { eval; cutoff; analytic = None }

let of_topology (topo : Topology.t) ~cutoff ~trunc ~elec =
  let charges = Topology.charges topo in
  let types = Array.map (fun (a : Topology.atom) -> a.type_id) topo.atoms in
  let ntypes = Array.length topo.lj_types in
  (* Precombine LJ for every type pair. *)
  let lj_table =
    Array.init ntypes (fun i ->
        Array.init ntypes (fun j ->
            Nonbonded.lorentz_berthelot topo.lj_types.(i) topo.lj_types.(j)))
  in
  let rc2 = cutoff *. cutoff in
  (* Reaction-field constants (Tironi et al.): krf and crf. *)
  let krf, crf =
    match elec with
    | Reaction_field { epsilon_rf } ->
        let k =
          (epsilon_rf -. 1.)
          /. ((2. *. epsilon_rf) +. 1.)
          /. (cutoff *. cutoff *. cutoff)
        in
        (k, (1. /. cutoff) +. (k *. cutoff *. cutoff))
    | _ -> (0., 0.)
  in
  let eval i j r2 =
    if r2 >= rc2 then (0., 0.)
    else begin
      let lj = lj_table.(types.(i)).(types.(j)) in
      let e_lj, f_lj = Nonbonded.eval_truncated lj ~cutoff ~trunc r2 in
      let qq = Units.coulomb *. charges.(i) *. charges.(j) in
      let e_c, f_c =
        if qq = 0. then (0., 0.)
        else
          match elec with
          | No_coulomb -> (0., 0.)
          | Cutoff_coulomb ->
              let r = sqrt r2 in
              (* Shifted so the energy is continuous at the cutoff. *)
              ((qq /. r) -. (qq /. cutoff), qq /. (r2 *. r))
          | Reaction_field _ ->
              let r = sqrt r2 in
              let e = (qq /. r) +. (qq *. krf *. r2) -. (qq *. crf) in
              let f_over_r = (qq /. (r2 *. r)) -. (2. *. qq *. krf) in
              (e, f_over_r)
          | Ewald_real { beta } ->
              Nonbonded.eval (Nonbonded.Coulomb_erfc { qq; beta }) r2
      in
      (e_lj +. e_c, f_lj +. f_c)
    end
  in
  { eval; cutoff; analytic = Some { topo; trunc; elec } }

let apply_pair evaluator box positions (acc : Bonded.accum) energy i j =
  let d = Pbc.min_image box positions.(i) positions.(j) in
  let r2 = Vec3.norm2 d in
  if r2 < evaluator.cutoff *. evaluator.cutoff then begin
    let e, f_over_r = evaluator.eval i j r2 in
    energy := !energy +. e;
    let f = Vec3.scale f_over_r d in
    acc.forces.(i) <- Vec3.add acc.forces.(i) f;
    acc.forces.(j) <- Vec3.sub acc.forces.(j) f;
    acc.virial <- acc.virial +. Vec3.dot f d
  end

let compute ?(exec = Exec.serial) evaluator box nlist positions acc =
  let ns = Exec.n_slots exec in
  let slots, privates = Bonded.slot_accums exec acc in
  let tiles = Mdsp_space.Neighbor_list.tiles nlist ~ntiles:ns in
  let total = snd tiles.(ns - 1) in
  let natoms = Array.length positions in
  let energies = Array.make ns 0. in
  Exec.parallel_run ~phase:"pair" exec (fun s ->
      let a = slots.(s) in
      let energy = ref 0. in
      let lo, hi = tiles.(s) in
      Exec.declare_write ~slot:s ~resource:"pair.tiles" ~total ~lo ~hi exec;
      (* Each slot reads its own pair range of the neighbor list and, via
         the pair indices, arbitrary positions. *)
      Exec.declare_read ~slot:s ~resource:"nlist.pairs" ~total ~lo ~hi exec;
      Exec.declare_read ~slot:s ~resource:"state.positions" ~lo:0 ~hi:natoms
        exec;
      Mdsp_space.Neighbor_list.iter_range nlist lo hi (fun i j ->
          apply_pair evaluator box positions a energy i j);
      energies.(s) <- !energy);
  Bonded.reduce_slots ~exec ~phase:"pair.reduce"
    ~reads:[ ("pair.tiles", total) ]
    ~into:acc privates;
  Exec.sum_tree energies

let apply_pair14 (topo : Topology.t) ~charges ~types ~cutoff box positions
    (acc : Bonded.accum) energy i j =
  let d = Pbc.min_image box positions.(i) positions.(j) in
  let r2 = Vec3.norm2 d in
  if r2 < cutoff *. cutoff then begin
    let lj =
      Nonbonded.lorentz_berthelot topo.lj_types.(types.(i))
        topo.lj_types.(types.(j))
    in
    let e_lj, f_lj =
      Nonbonded.eval_truncated lj ~cutoff ~trunc:Nonbonded.Shift r2
    in
    let qq =
      Units.coulomb *. charges.(i) *. charges.(j) *. topo.scale14_coul
    in
    let e_c, f_c =
      if qq = 0. then (0., 0.)
      else begin
        let r = sqrt r2 in
        ((qq /. r) -. (qq /. cutoff), qq /. (r2 *. r))
      end
    in
    let e = (topo.scale14_lj *. e_lj) +. e_c in
    let f_over_r = (topo.scale14_lj *. f_lj) +. f_c in
    energy := !energy +. e;
    let f = Vec3.scale f_over_r d in
    acc.forces.(i) <- Vec3.add acc.forces.(i) f;
    acc.forces.(j) <- Vec3.sub acc.forces.(j) f;
    acc.virial <- acc.virial +. Vec3.dot f d
  end

let compute_pairs14 ?(exec = Exec.serial) (topo : Topology.t) ~cutoff
    box positions (acc : Bonded.accum) =
  let npairs = Array.length topo.pairs14 in
  if npairs = 0 || (topo.scale14_lj <= 0. && topo.scale14_coul <= 0.) then 0.
  else begin
    let charges = Topology.charges topo in
    let types = Array.map (fun (a : Topology.atom) -> a.type_id) topo.atoms in
    let slots, privates = Bonded.slot_accums exec acc in
    let energies = Array.make (Exec.n_slots exec) 0. in
    Exec.sweep ~phase:"pair14" ~writes:[ "pair.pairs14" ]
      ~whole:[ ("state.positions", Array.length positions) ]
      exec ~total:npairs (fun s lo hi ->
        let a = slots.(s) in
        let energy = ref 0. in
        for k = lo to hi - 1 do
          let i, j = topo.pairs14.(k) in
          apply_pair14 topo ~charges ~types ~cutoff box positions a energy i j
        done;
        energies.(s) <- !energy);
    Bonded.reduce_slots ~exec ~phase:"pair.reduce"
      ~reads:[ ("pair.pairs14", npairs) ]
      ~into:acc privates;
    Exec.sum_tree energies
  end

let compute_all_pairs ?exclusions evaluator box positions acc =
  let energy = ref 0. in
  let n = Array.length positions in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let skip =
        match exclusions with
        | Some ex -> Mdsp_space.Exclusions.excluded ex i j
        | None -> false
      in
      if not skip then apply_pair evaluator box positions acc energy i j
    done
  done;
  !energy
