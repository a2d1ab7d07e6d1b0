open Mdsp_util

type system = {
  topo : Mdsp_ff.Topology.t;
  positions : Vec3.t array;
  box : Pbc.t;
  label : string;
}

(* Argon-like LJ parameters. *)
let ar_eps = 0.238
let ar_sigma = 3.405
let ar_mass = 39.948

let cubic_lattice_points n box_l =
  (* Smallest simple cubic lattice holding n points. *)
  let side = int_of_float (ceil (float_of_int n ** (1. /. 3.))) in
  let spacing = box_l /. float_of_int side in
  let pts = ref [] in
  (try
     for x = 0 to side - 1 do
       for y = 0 to side - 1 do
         for z = 0 to side - 1 do
           if List.length !pts >= n then raise Exit;
           pts :=
             Vec3.make
               ((float_of_int x +. 0.5) *. spacing)
               ((float_of_int y +. 0.5) *. spacing)
               ((float_of_int z +. 0.5) *. spacing)
             :: !pts
         done
       done
     done
   with Exit -> ());
  Array.of_list (List.rev !pts)

let lj_fluid ?(rho_star = 0.8) ~n () =
  if n < 2 then invalid_arg "Workloads.lj_fluid: need at least 2 atoms";
  (* rho* = rho sigma^3  =>  box volume = n sigma^3 / rho*. *)
  let vol = float_of_int n *. (ar_sigma ** 3.) /. rho_star in
  let box_l = vol ** (1. /. 3.) in
  let box = Pbc.cubic box_l in
  let positions = cubic_lattice_points n box_l in
  let b = Mdsp_ff.Topology.Builder.create () in
  Mdsp_ff.Topology.Builder.set_lj_types b [| (ar_eps, ar_sigma) |];
  for i = 0 to n - 1 do
    ignore i;
    ignore
      (Mdsp_ff.Topology.Builder.add_atom b ~mass:ar_mass ~charge:0. ~type_id:0
         ~name:"AR")
  done;
  let topo = Mdsp_ff.Topology.Builder.finish b in
  { topo; positions; box; label = Printf.sprintf "lj_fluid_%d" n }

(* Kob-Andersen units: eps_AA = ar_eps, sigma_AA = ar_sigma. *)
let ka_pairs =
  (* (eps, sigma) per (type_i, type_j), canonical KA ratios. *)
  [|
    [| (1.0, 1.0); (1.5, 0.8) |];
    [| (1.5, 0.8); (0.5, 0.88) |];
  |]

let kob_andersen ~n () =
  if n < 10 then invalid_arg "Workloads.kob_andersen: need >= 10 atoms";
  (* rho* = 1.2 in AA units. *)
  let vol = float_of_int n *. (ar_sigma ** 3.) /. 1.2 in
  let box_l = vol ** (1. /. 3.) in
  let box = Pbc.cubic box_l in
  let positions = cubic_lattice_points n box_l in
  let b = Mdsp_ff.Topology.Builder.create () in
  (* Per-type self parameters; cross terms come from the dedicated
     evaluator (KA is non-additive, so LB mixing would be wrong). *)
  Mdsp_ff.Topology.Builder.set_lj_types b
    [| (ar_eps, ar_sigma); (0.5 *. ar_eps, 0.88 *. ar_sigma) |];
  let n_b = n / 5 in
  for i = 0 to n - 1 do
    let is_b = i mod 5 = 4 in
    ignore
      (Mdsp_ff.Topology.Builder.add_atom b ~mass:ar_mass ~charge:0.
         ~type_id:(if is_b then 1 else 0)
         ~name:(if is_b then "B" else "A"))
  done;
  ignore n_b;
  let topo = Mdsp_ff.Topology.Builder.finish b in
  { topo; positions; box; label = Printf.sprintf "ka_%d" n }

let kob_andersen_evaluator sys ~cutoff =
  let topo = sys.topo in
  let types =
    Array.map (fun (a : Mdsp_ff.Topology.atom) -> a.type_id) topo.atoms
  in
  let forms =
    Array.map
      (Array.map (fun (e_rel, s_rel) ->
           Mdsp_ff.Nonbonded.Lennard_jones
             { epsilon = e_rel *. ar_eps; sigma = s_rel *. ar_sigma }))
      ka_pairs
  in
  let rc2 = cutoff *. cutoff in
  let eval i j r2 =
    if r2 >= rc2 then (0., 0.)
    else
      Mdsp_ff.Nonbonded.eval_truncated forms.(types.(i)).(types.(j)) ~cutoff
        ~trunc:Mdsp_ff.Nonbonded.Shift r2
  in
  Mdsp_ff.Pair_interactions.of_eval ~cutoff eval

let water_box ?(seed = 11) ~n_side () =
  if n_side < 2 then invalid_arg "Workloads.water_box: n_side >= 2";
  let n_mol = n_side * n_side * n_side in
  (* Lattice spacing from liquid number density. *)
  let spacing = (1. /. Mdsp_ff.Water.number_density) ** (1. /. 3.) in
  let box_l = spacing *. float_of_int n_side in
  let box = Pbc.cubic box_l in
  let rng = Rng.create seed in
  let b = Mdsp_ff.Topology.Builder.create () in
  (* type 0: water O; type 1: water H (no LJ). *)
  Mdsp_ff.Topology.Builder.set_lj_types b [| Mdsp_ff.Water.o_lj; (0., 1.) |];
  let coords = ref [] in
  for x = 0 to n_side - 1 do
    for y = 0 to n_side - 1 do
      for z = 0 to n_side - 1 do
        let center =
          Vec3.make
            ((float_of_int x +. 0.5) *. spacing)
            ((float_of_int y +. 0.5) *. spacing)
            ((float_of_int z +. 0.5) *. spacing)
        in
        let _, pos =
          Mdsp_ff.Water.add_molecule b ~o_type:0 ~h_type:1 ~center ~orient:rng
        in
        coords := pos :: !coords
      done
    done
  done;
  let positions = Array.concat (List.rev !coords) in
  let topo = Mdsp_ff.Topology.Builder.finish b in
  { topo; positions; box; label = Printf.sprintf "water_%d" (3 * n_mol) }

let water_box_tip4p ?(seed = 11) ~n_side () =
  if n_side < 2 then invalid_arg "Workloads.water_box_tip4p: n_side >= 2";
  let n_mol = n_side * n_side * n_side in
  let spacing = (1. /. Mdsp_ff.Water.number_density) ** (1. /. 3.) in
  let box_l = spacing *. float_of_int n_side in
  let box = Pbc.cubic box_l in
  let rng = Rng.create seed in
  let b = Mdsp_ff.Topology.Builder.create () in
  (* type 0: O; type 1: H and the M virtual site (no LJ). *)
  Mdsp_ff.Topology.Builder.set_lj_types b
    [| Mdsp_ff.Water.Tip4p.o_lj; (0., 1.) |];
  let coords = ref [] in
  for x = 0 to n_side - 1 do
    for y = 0 to n_side - 1 do
      for z = 0 to n_side - 1 do
        let center =
          Vec3.make
            ((float_of_int x +. 0.5) *. spacing)
            ((float_of_int y +. 0.5) *. spacing)
            ((float_of_int z +. 0.5) *. spacing)
        in
        let _, pos =
          Mdsp_ff.Water.Tip4p.add_molecule b ~o_type:0 ~h_type:1 ~m_type:1
            ~center ~orient:rng
        in
        coords := pos :: !coords
      done
    done
  done;
  let positions = Array.concat (List.rev !coords) in
  let topo = Mdsp_ff.Topology.Builder.finish b in
  { topo; positions; box; label = Printf.sprintf "tip4p_%d" (4 * n_mol) }

let bead_chain ?(seed = 13) ?(charged = true) ~n_beads ~n_total () =
  if n_beads < 4 then invalid_arg "Workloads.bead_chain: n_beads >= 4";
  if n_total < n_beads then
    invalid_arg "Workloads.bead_chain: n_total >= n_beads";
  let n_solvent = n_total - n_beads in
  (* Size the box from the solvent LJ fluid density. *)
  let vol =
    float_of_int (max n_total 64) *. (ar_sigma ** 3.) /. 0.7
  in
  let box_l = vol ** (1. /. 3.) in
  let box = Pbc.cubic box_l in
  let rng = Rng.create seed in
  let b = Mdsp_ff.Topology.Builder.create () in
  (* type 0: chain bead; type 1: solvent. *)
  Mdsp_ff.Topology.Builder.set_lj_types b
    [| (0.2, 4.0); (ar_eps, ar_sigma) |];
  let bond_r0 = 3.8 in
  (* Chain as a self-avoiding-ish random walk from the box center. *)
  let chain_pos = Array.make n_beads Vec3.zero in
  chain_pos.(0) <- Vec3.make (box_l /. 2.) (box_l /. 2.) (box_l /. 2.);
  for i = 1 to n_beads - 1 do
    let dir = Rng.unit_vector rng in
    (* Bias the walk to extend, reducing overlaps. *)
    let prev_dir =
      if i = 1 then dir
      else Vec3.normalize (Vec3.sub chain_pos.(i - 1) chain_pos.(i - 2))
    in
    let step = Vec3.normalize (Vec3.add dir (Vec3.scale 1.5 prev_dir)) in
    chain_pos.(i) <- Vec3.add chain_pos.(i - 1) (Vec3.scale bond_r0 step)
  done;
  for i = 0 to n_beads - 1 do
    let charge =
      if charged && i mod 4 = 0 then if i mod 8 = 0 then 0.5 else -0.5 else 0.
    in
    ignore
      (Mdsp_ff.Topology.Builder.add_atom b ~mass:110. ~charge ~type_id:0
         ~name:(Printf.sprintf "B%d" i))
  done;
  for i = 0 to n_beads - 2 do
    Mdsp_ff.Topology.Builder.add_bond b ~i ~j:(i + 1) ~k:100. ~r0:bond_r0
  done;
  for i = 0 to n_beads - 3 do
    Mdsp_ff.Topology.Builder.add_angle b ~i ~j:(i + 1) ~k:(i + 2) ~k_theta:20.
      ~theta0:(110. *. Float.pi /. 180.)
  done;
  for i = 0 to n_beads - 4 do
    Mdsp_ff.Topology.Builder.add_dihedral b ~i ~j:(i + 1) ~k:(i + 2)
      ~l:(i + 3) ~k_phi:1.0 ~mult:3 ~phase:0.
  done;
  (* Solvent on a lattice, skipping sites too close to the chain. *)
  let solvent_sites = cubic_lattice_points (n_solvent * 2) box_l in
  let solvent_pos = ref [] in
  let taken = ref 0 in
  Array.iter
    (fun p ->
      if !taken < n_solvent then begin
        let clash =
          Array.exists (fun c -> Pbc.dist2 box p c < 3.0 *. 3.0) chain_pos
        in
        if not clash then begin
          solvent_pos := p :: !solvent_pos;
          incr taken
        end
      end)
    solvent_sites;
  if !taken < n_solvent then
    invalid_arg "Workloads.bead_chain: box too crowded for requested solvent";
  List.iter
    (fun _ ->
      ignore
        (Mdsp_ff.Topology.Builder.add_atom b ~mass:ar_mass ~charge:0.
           ~type_id:1 ~name:"SOL"))
    !solvent_pos;
  let topo = Mdsp_ff.Topology.Builder.finish b in
  let positions =
    Array.append chain_pos (Array.of_list (List.rev !solvent_pos))
  in
  { topo; positions; box; label = Printf.sprintf "chain%d_%d" n_beads n_total }

let ion_pair ?(seed = 17) ?(separation = 5.) ?(charge = 1.) ~n_solvent () =
  let n = n_solvent + 2 in
  let vol = float_of_int (max n 64) *. (ar_sigma ** 3.) /. 0.7 in
  let box_l = vol ** (1. /. 3.) in
  let box = Pbc.cubic box_l in
  ignore seed;
  let b = Mdsp_ff.Topology.Builder.create () in
  (* type 0: ion; type 1: solvent. *)
  Mdsp_ff.Topology.Builder.set_lj_types b
    [| (0.1, 2.8); (ar_eps, ar_sigma) |];
  let c = box_l /. 2. in
  let ion1 = Vec3.make (c -. (separation /. 2.)) c c in
  let ion2 = Vec3.make (c +. (separation /. 2.)) c c in
  ignore
    (Mdsp_ff.Topology.Builder.add_atom b ~mass:22.99 ~charge ~type_id:0
       ~name:"NA");
  ignore
    (Mdsp_ff.Topology.Builder.add_atom b ~mass:35.45 ~charge:(-.charge)
       ~type_id:0 ~name:"CL");
  let solvent_sites = cubic_lattice_points (n_solvent * 2) box_l in
  let solvent_pos = ref [] in
  let taken = ref 0 in
  Array.iter
    (fun p ->
      if !taken < n_solvent then begin
        if
          Pbc.dist2 box p ion1 > 9. && Pbc.dist2 box p ion2 > 9.
        then begin
          solvent_pos := p :: !solvent_pos;
          incr taken
        end
      end)
    solvent_sites;
  List.iter
    (fun _ ->
      ignore
        (Mdsp_ff.Topology.Builder.add_atom b ~mass:ar_mass ~charge:0.
           ~type_id:1 ~name:"SOL"))
    !solvent_pos;
  let topo = Mdsp_ff.Topology.Builder.finish b in
  let positions =
    Array.append [| ion1; ion2 |] (Array.of_list (List.rev !solvent_pos))
  in
  { topo; positions; box; label = Printf.sprintf "ionpair_%d" n }

let double_well_bias ~barrier ~half_width =
  {
    Mdsp_md.Force_calc.bias_name = "double_well";
    bias_compute =
      (fun box positions acc ->
        let open Pbc in
        let center = Vec3.make (box.lx /. 2.) (box.ly /. 2.) (box.lz /. 2.) in
        let e = ref 0. in
        Array.iteri
          (fun i p ->
            let d = Pbc.min_image box p center in
            let u = d.Vec3.x /. half_width in
            let v = barrier *. (((u *. u) -. 1.) ** 2.) in
            (* dv/dx = barrier * 2(u^2-1) * 2u / half_width *)
            let dv_dx = 4. *. barrier *. u *. ((u *. u) -. 1.) /. half_width in
            (* Harmonic confinement in y and z. *)
            let k_yz = 1.0 in
            let vy = k_yz *. d.Vec3.y *. d.Vec3.y in
            let vz = k_yz *. d.Vec3.z *. d.Vec3.z in
            e := !e +. v +. vy +. vz;
            let f =
              Vec3.make (-.dv_dx)
                (-2. *. k_yz *. d.Vec3.y)
                (-2. *. k_yz *. d.Vec3.z)
            in
            acc.Mdsp_ff.Bonded.forces.(i) <-
              Vec3.add acc.Mdsp_ff.Bonded.forces.(i) f)
          positions;
        !e);
  }

let double_well_energy ~barrier ~half_width x =
  let u = x /. half_width in
  barrier *. (((u *. u) -. 1.) ** 2.)

let double_well_barrier = 3.0
let double_well_half_width = 2.5
let double_well_2d_bow = 1.5

let double_well () =
  let box = Pbc.cubic 20. in
  let b = Mdsp_ff.Topology.Builder.create () in
  Mdsp_ff.Topology.Builder.set_lj_types b [| (0., 1.) |];
  ignore
    (Mdsp_ff.Topology.Builder.add_atom b ~mass:12. ~charge:0. ~type_id:0
       ~name:"DW");
  let topo = Mdsp_ff.Topology.Builder.finish b in
  let positions = [| Vec3.make (10. -. double_well_half_width) 10. 10. |] in
  { topo; positions; box; label = "double_well" }

let double_well_2d_bias ~barrier ~half_width ~bow =
  {
    Mdsp_md.Force_calc.bias_name = "double_well_2d";
    bias_compute =
      (fun box positions acc ->
        let open Pbc in
        let center = Vec3.make (box.lx /. 2.) (box.ly /. 2.) (box.lz /. 2.) in
        let a = half_width in
        let ky = 1.0 and kz = 2.0 in
        let e = ref 0. in
        Array.iteri
          (fun i p ->
            let d = Pbc.min_image box p center in
            let x = d.Vec3.x and y = d.Vec3.y and z = d.Vec3.z in
            let u = x /. a in
            let g = 1. -. (u *. u) in
            (* wells along x *)
            let vx = barrier *. (((u *. u) -. 1.) ** 2.) in
            let dvx_dx = 4. *. barrier *. u *. ((u *. u) -. 1.) /. a in
            (* channel bowing through y = bow * (1 - (x/a)^2) *)
            let dy = y -. (bow *. g) in
            let vy = ky *. dy *. dy in
            let dvy_dy = 2. *. ky *. dy in
            let dvy_dx = 2. *. ky *. dy *. (bow *. 2. *. u /. a) in
            let vz = kz *. z *. z in
            e := !e +. vx +. vy +. vz;
            let f =
              Vec3.make
                (-.(dvx_dx +. dvy_dx))
                (-.dvy_dy)
                (-2. *. kz *. z)
            in
            acc.Mdsp_ff.Bonded.forces.(i) <-
              Vec3.add acc.Mdsp_ff.Bonded.forces.(i) f)
          positions;
        !e);
  }

let double_well_2d_path ~half_width ~bow x =
  bow *. (1. -. ((x /. half_width) ** 2.))

let double_well_2d () =
  let box = Pbc.cubic 20. in
  let b = Mdsp_ff.Topology.Builder.create () in
  Mdsp_ff.Topology.Builder.set_lj_types b [| (0., 1.) |];
  ignore
    (Mdsp_ff.Topology.Builder.add_atom b ~mass:12. ~charge:0. ~type_id:0
       ~name:"DW2");
  let topo = Mdsp_ff.Topology.Builder.finish b in
  let positions = [| Vec3.make (10. -. double_well_half_width) 10. 10. |] in
  { topo; positions; box; label = "double_well_2d" }

type preset = { name : string; atoms : int; build : unit -> system }

let presets =
  [
    { name = "lj1k"; atoms = 1000; build = (fun () -> lj_fluid ~n:1000 ()) };
    {
      name = "water6k";
      atoms = 6591;
      build = (fun () -> water_box ~n_side:13 ());
    };
    {
      name = "water23k";
      atoms = 23625;
      build = (fun () -> water_box ~n_side:20 ());
    };
    {
      name = "chain2k";
      atoms = 2048;
      build = (fun () -> bead_chain ~n_beads:64 ~n_total:2048 ());
    };
    {
      name = "chain10k";
      atoms = 10000;
      build = (fun () -> bead_chain ~n_beads:256 ~n_total:10_000 ());
    };
  ]

let of_name name =
  match List.find_opt (fun p -> p.name = name) presets with
  | Some p -> p.build ()
  | None ->
      let numeric_suffix prefix =
        let np = String.length prefix in
        if
          String.length name > np
          && String.sub name 0 np = prefix
        then int_of_string_opt (String.sub name np (String.length name - np))
        else None
      in
      (match (numeric_suffix "lj", numeric_suffix "water") with
      | Some n, _ when n > 0 -> lj_fluid ~n ()
      | _, Some s when s > 0 -> water_box ~n_side:s ()
      | _ ->
          failwith
            (Printf.sprintf
               "unknown preset %S (see `mdsp presets', or lj<N> / water<S>)"
               name))

let make_engine ?(config = Mdsp_md.Engine.default_config) ?cutoff ?elec
    ?gse_grid ?(seed = 23) ?(exec = Exec.serial) ?soa:_ sys =
  let has_charges =
    Array.exists (fun (a : Mdsp_ff.Topology.atom) -> a.charge <> 0.)
      sys.topo.atoms
  in
  let cutoff =
    match cutoff with
    | Some c -> c
    | None -> Float.min 9. (0.45 *. Pbc.min_edge sys.box)
  in
  let use_gse = has_charges && gse_grid <> None in
  let beta = 3.0 /. cutoff in
  let elec =
    match elec with
    | Some e -> e
    | None ->
        if not has_charges then Mdsp_ff.Pair_interactions.No_coulomb
        else if use_gse then Mdsp_ff.Pair_interactions.Ewald_real { beta }
        else Mdsp_ff.Pair_interactions.Reaction_field { epsilon_rf = 78.5 }
  in
  let evaluator =
    Mdsp_ff.Pair_interactions.of_topology sys.topo ~cutoff
      ~trunc:Mdsp_ff.Nonbonded.Shift ~elec
  in
  let nlist =
    Mdsp_space.Neighbor_list.create ~exclusions:sys.topo.exclusions ~exec
      ~cutoff ~skin:1.0 sys.box sys.positions
  in
  let longrange =
    match gse_grid with
    | Some grid when has_charges ->
        Mdsp_md.Force_calc.Lr_gse
          (Mdsp_longrange.Gse.create ~beta ~grid sys.box)
    | _ -> Mdsp_md.Force_calc.Lr_none
  in
  let fc =
    Mdsp_md.Force_calc.create ~exec sys.topo ~evaluator ~longrange ~nlist
  in
  let barrier = double_well_barrier and half_width = double_well_half_width in
  if sys.label = "double_well" then
    Mdsp_md.Force_calc.add_bias fc (double_well_bias ~barrier ~half_width);
  if sys.label = "double_well_2d" then
    Mdsp_md.Force_calc.add_bias fc
      (double_well_2d_bias ~barrier ~half_width ~bow:double_well_2d_bow);
  let st =
    Mdsp_md.State.create ~positions:sys.positions
      ~masses:(Mdsp_ff.Topology.masses sys.topo) ~box:sys.box
  in
  let rng = Rng.create seed in
  Mdsp_md.State.thermalize st rng ~temp:config.Mdsp_md.Engine.temperature;
  Mdsp_md.Engine.create ~seed sys.topo fc st config
