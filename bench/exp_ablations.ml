(* Ablations A1-A5: design choices called out in DESIGN.md. *)

open Mdsp_util
open Bench_common
module E = Mdsp_md.Engine

(* A1: interpolation-table indexing in r vs r^2. The hardware indexes by
   squared distance to avoid a square root and to concentrate intervals at
   small r; this ablation fits the same LJ form both ways at equal interval
   budget and compares worst-case force error. *)
let a1 () =
  section "A1" "Ablation: table indexing variable (r vs r^2)";
  let lj = Mdsp_ff.Nonbonded.Lennard_jones { epsilon = 0.238; sigma = 3.405 } in
  let cutoff = 9.0 and r_min = 2.0 in
  let radial = Mdsp_core.Table.of_form lj ~cutoff in
  (* r^2-indexed: the production path. *)
  let err_r2 n =
    let t = Mdsp_core.Table.compile ~r_min ~r_cut:cutoff ~n ~quantize:false radial in
    (Mdsp_core.Table.accuracy t radial ()).Mdsp_core.Table.max_rel_force
  in
  (* r-indexed: cubic Hermite fit over equal r intervals, evaluated on the
     same dense grid. *)
  let err_r n =
    let width = (cutoff -. r_min) /. float_of_int n in
    let knot_val k =
      let r = r_min +. (float_of_int k *. width) in
      let _, g = radial (r *. r) in
      (* dg/dr by central difference *)
      let h = width *. 1e-4 in
      let _, gp = radial ((r +. h) ** 2.) in
      let _, gm = radial ((r -. h) ** 2.) in
      (g, (gp -. gm) /. (2. *. h))
    in
    let coeffs =
      Array.init n (fun i ->
          let f0, d0 = knot_val i and f1, d1 = knot_val (i + 1) in
          Poly.hermite_cubic ~x0:0. ~x1:width ~f0 ~f1 ~d0 ~d1)
    in
    let eval r =
      let x = (r -. r_min) /. width in
      let i = min (n - 1) (max 0 (int_of_float x)) in
      Poly.eval coeffs.(i) (r -. r_min -. (float_of_int i *. width))
    in
    let worst = ref 0. in
    let floor_scale =
      let acc = ref 0. in
      for k = 0 to 99 do
        let r = r_min +. ((cutoff -. r_min) *. (float_of_int k +. 0.5) /. 100.) in
        acc := !acc +. abs_float (snd (radial (r *. r)))
      done;
      !acc /. 100. *. 1e-3
    in
    for k = 0 to 19_999 do
      let r = r_min +. ((cutoff -. r_min) *. (float_of_int k +. 0.5) /. 20_000.) in
      let _, g_ref = radial (r *. r) in
      let g = eval r in
      worst :=
        Float.max !worst
          (abs_float (g -. g_ref) /. Float.max (abs_float g_ref) floor_scale)
    done;
    !worst
  in
  let t =
    T.create ~title:"Max relative force error, LJ 12-6, equal interval budget"
      ~columns:
        [ ("intervals", T.Right); ("r^2-indexed", T.Right); ("r-indexed", T.Right) ]
  in
  List.iter
    (fun n ->
      T.row t [ T.cell_i n; T.cell_f ~prec:2 (err_r2 n); T.cell_f ~prec:2 (err_r n) ])
    [ 64; 256; 1024 ];
  T.print t;
  note
    "r^2 indexing also removes the pipeline square root; with Hermite\n\
     fitting both variants converge, r^2 concentrating error differently\n\
     across the domain.\n"

(* A2: fixed-point force-accumulation width vs error against float. *)
let a2 () =
  section "A2" "Ablation: fixed-point accumulation width";
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:200 () in
  let open Mdsp_workload.Workloads in
  let cutoff = 8.0 in
  let ts =
    Mdsp_core.Table.table_set_of_topology sys.topo ~cutoff
      ~elec:Mdsp_ff.Pair_interactions.No_coulomb ~n:4096 ()
  in
  let types = Array.make 200 0 in
  let charges = Array.make 200 0. in
  let nlist =
    Mdsp_space.Neighbor_list.create ~cutoff ~skin:1. sys.box sys.positions
  in
  (* Float reference through the same tables. *)
  let ev = Mdsp_machine.Htis.evaluator ts ~types ~charges ~cutoff in
  let acc = Mdsp_ff.Bonded.make_accum 200 in
  ignore (Mdsp_ff.Pair_interactions.compute ev sys.box nlist sys.positions acc);
  let rms =
    sqrt
      (Array.fold_left (fun a f -> a +. Vec3.norm2 f) 0. acc.Mdsp_ff.Bonded.forces
      /. 200.)
  in
  let t =
    T.create ~title:"Force error vs accumulator fractional bits (48-bit words)"
      ~columns:
        [ ("frac bits", T.Right); ("max abs err", T.Right); ("rel to RMS force", T.Right) ]
  in
  List.iter
    (fun frac ->
      let format = Fixed.format ~frac_bits:frac ~total_bits:48 in
      let r =
        Mdsp_machine.Htis.compute_forces ~format ts ~types ~charges ~cutoff
          sys.box nlist sys.positions
      in
      let worst = ref 0. in
      Array.iteri
        (fun i v ->
          worst := Float.max !worst (Vec3.dist v acc.Mdsp_ff.Bonded.forces.(i)))
        r.Mdsp_machine.Htis.forces;
      T.row t
        [
          T.cell_i frac;
          T.cell_f ~prec:2 !worst;
          T.cell_f ~prec:2 (!worst /. rms);
        ])
    [ 8; 12; 16; 20; 24; 28; 32 ];
  T.print t;
  note
    "Each extra fractional bit halves the quantization error; ~20+ bits\n\
     put accumulation error far below the table-fit error.\n"

(* A3: neighbor-list skin vs rebuild frequency vs modeled step cost. *)
let a3 () =
  section "A3" "Ablation: Verlet skin radius";
  let t =
    T.create
      ~title:"LJ-256, 2000 steps at 2 fs: skin vs rebuilds vs pair work"
      ~columns:
        [
          ("skin (A)", T.Right);
          ("rebuilds", T.Right);
          ("stored pairs", T.Right);
          ("relative cost", T.Right);
        ]
  in
  let costs =
    List.map
      (fun skin ->
        let sys = Mdsp_workload.Workloads.lj_fluid ~n:256 () in
        let cutoff = 8.0 in
        let evaluator =
          Mdsp_ff.Pair_interactions.of_topology sys.Mdsp_workload.Workloads.topo
            ~cutoff ~trunc:Mdsp_ff.Nonbonded.Shift
            ~elec:Mdsp_ff.Pair_interactions.No_coulomb
        in
        let nlist =
          Mdsp_space.Neighbor_list.create
            ~exclusions:sys.Mdsp_workload.Workloads.topo.Mdsp_ff.Topology.exclusions
            ~cutoff ~skin sys.Mdsp_workload.Workloads.box
            sys.Mdsp_workload.Workloads.positions
        in
        let fc =
          Mdsp_md.Force_calc.create sys.Mdsp_workload.Workloads.topo ~evaluator
            ~longrange:Mdsp_md.Force_calc.Lr_none ~nlist
        in
        let st =
          Mdsp_md.State.create ~positions:sys.Mdsp_workload.Workloads.positions
            ~masses:(Mdsp_ff.Topology.masses sys.Mdsp_workload.Workloads.topo)
            ~box:sys.Mdsp_workload.Workloads.box
        in
        Mdsp_md.State.thermalize st (Rng.create 9) ~temp:120.;
        let cfg =
          {
            E.default_config with
            dt_fs = 2.0;
            temperature = 120.;
            thermostat = E.Langevin { gamma_fs = 0.02 };
          }
        in
        let eng = E.create ~seed:9 sys.Mdsp_workload.Workloads.topo fc st cfg in
        E.run eng 2000;
        let rebuilds = Mdsp_space.Neighbor_list.rebuild_count nlist in
        let pairs = Mdsp_space.Neighbor_list.length nlist in
        (* Cost model: per-step pair evaluations + rebuild cost (a rebuild
           costs ~ one full cell-list pass ~ stored pairs). *)
        let cost =
          (2000. *. float_of_int pairs)
          +. (float_of_int rebuilds *. 3. *. float_of_int pairs)
        in
        (skin, rebuilds, pairs, cost))
      [ 0.25; 0.5; 1.0; 1.5; 2.0; 3.0 ]
  in
  let cost_min =
    List.fold_left (fun a (_, _, _, c) -> Float.min a c) infinity costs
  in
  List.iter
    (fun (skin, rebuilds, pairs, cost) ->
      T.row t
        [
          T.cell_f ~prec:2 skin;
          T.cell_i rebuilds;
          T.cell_i pairs;
          Printf.sprintf "%.2fx" (cost /. cost_min);
        ])
    costs;
  T.print t;
  note
    "Small skins rebuild constantly; large skins carry dead pairs every\n\
     step. The optimum sits in between, as expected.\n"

(* A4: RESPA inner-step count vs drift. *)
let a4 () =
  section "A4" "Ablation: RESPA multiple time stepping";
  let t =
    T.create
      ~title:"Bead chain (bonded fast forces), outer dt = 4 fs, 1 ps"
      ~columns:
        [ ("inner steps", T.Right); ("final T (K)", T.Right); ("stable", T.Right) ]
  in
  List.iter
    (fun inner ->
      let sys = Mdsp_workload.Workloads.bead_chain ~n_beads:12 ~n_total:96 () in
      let cfg =
        {
          E.default_config with
          dt_fs = 4.0;
          temperature = 120.;
          thermostat = E.Langevin { gamma_fs = 0.02 };
          respa_inner = (if inner = 1 then None else Some inner);
        }
      in
      let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
      E.minimize eng ~steps:150;
      Mdsp_md.State.thermalize (E.state eng) (Rng.create 2) ~temp:120.;
      E.refresh_forces eng;
      let blew_up = ref false in
      (try
         E.run eng 250;
         if not (Float.is_finite (E.total_energy eng)) then blew_up := true
       with _ -> blew_up := true);
      T.row t
        [
          T.cell_i inner;
          (if !blew_up then "-" else Printf.sprintf "%.0f" (E.temperature eng));
          (if !blew_up then "NO" else "yes");
        ])
    [ 1; 2; 4; 8 ];
  T.print t;
  note
    "Sub-stepping the stiff bonded forces keeps the long outer step\n\
     usable — the machine runs bonded terms on the flexible subsystem at\n\
     the inner rate.\n"

(* A5: import policy (full vs half shell vs midpoint) communication
   volume. *)
let a5 () =
  section "A5" "Ablation: import region policy (communication)";
  let sys = Mdsp_workload.Workloads.water_box ~n_side:10 () in
  let open Mdsp_workload.Workloads in
  let t =
    T.create ~title:"Mean imported atoms per node, water-3000, cutoff 9 A"
      ~columns:
        [
          ("torus", T.Left);
          ("full shell", T.Right);
          ("half shell", T.Right);
          ("midpoint", T.Right);
          ("mid vs half", T.Right);
        ]
  in
  List.iter
    (fun nodes ->
      let mean policy =
        let d = Mdsp_machine.Decomp.create sys.box ~nodes ~cutoff:9.0 in
        let counts = Mdsp_machine.Decomp.import_counts d ~policy sys.positions in
        float_of_int (Array.fold_left ( + ) 0 counts)
        /. float_of_int (Array.length counts)
      in
      let full = mean Mdsp_machine.Decomp.Full_shell in
      let half = mean Mdsp_machine.Decomp.Half_shell in
      let mid = mean Mdsp_machine.Decomp.Midpoint in
      let px, py, pz = nodes in
      T.row t
        [
          Printf.sprintf "%dx%dx%d" px py pz;
          T.cell_f ~prec:4 full;
          T.cell_f ~prec:4 half;
          T.cell_f ~prec:4 mid;
          Printf.sprintf "%.0f%%" (100. *. (1. -. (mid /. half)));
        ])
    [ (2, 2, 2); (3, 3, 3); (4, 4, 4) ];
  T.print t;
  note
    "Half-shell import (compute each pair once, return forces) halves the\n\
     import volume; the neutral-territory midpoint region (cutoff/2 shell,\n\
     what Mdsp_machine.Decomp realizes) shrinks it further as home boxes\n\
     shrink against the cutoff.\n"

(* A6: truncation scheme vs energy conservation. Plain truncation leaves a
   force discontinuity at the cutoff that pumps energy; shifting fixes the
   energy jump, switching smooths the force too. *)
let a6 () =
  section "A6" "Ablation: cutoff truncation scheme vs NVE drift";
  let t =
    T.create ~title:"LJ-108, NVE 2 ps at 2 fs after equilibration"
      ~columns:
        [ ("scheme", T.Left); ("max |dE/E|", T.Right); ("drift/ps", T.Right) ]
  in
  List.iter
    (fun (name, trunc) ->
      let sys = Mdsp_workload.Workloads.lj_fluid ~n:108 () in
      let cutoff = 8.0 in
      let evaluator =
        Mdsp_ff.Pair_interactions.of_topology sys.Mdsp_workload.Workloads.topo
          ~cutoff ~trunc ~elec:Mdsp_ff.Pair_interactions.No_coulomb
      in
      let nlist =
        Mdsp_space.Neighbor_list.create ~cutoff ~skin:1.
          sys.Mdsp_workload.Workloads.box sys.Mdsp_workload.Workloads.positions
      in
      let fc =
        Mdsp_md.Force_calc.create sys.Mdsp_workload.Workloads.topo ~evaluator
          ~longrange:Mdsp_md.Force_calc.Lr_none ~nlist
      in
      let st =
        Mdsp_md.State.create ~positions:sys.Mdsp_workload.Workloads.positions
          ~masses:(Mdsp_ff.Topology.masses sys.Mdsp_workload.Workloads.topo)
          ~box:sys.Mdsp_workload.Workloads.box
      in
      Mdsp_md.State.thermalize st (Rng.create 6) ~temp:120.;
      let cfg =
        {
          E.default_config with
          dt_fs = 2.0;
          temperature = 120.;
          thermostat = E.Langevin { gamma_fs = 0.02 };
        }
      in
      let eng = E.create ~seed:6 sys.Mdsp_workload.Workloads.topo fc st cfg in
      E.run eng 2000;
      (* Switch to NVE in place by rebuilding config. *)
      let nve_cfg = { cfg with E.thermostat = E.No_thermostat } in
      let eng2 = E.create ~seed:6 sys.Mdsp_workload.Workloads.topo fc st nve_cfg in
      E.refresh_forces eng2;
      let e0 = E.total_energy eng2 in
      let worst = ref 0. in
      for _ = 1 to 10 do
        E.run eng2 100;
        worst :=
          Float.max !worst
            (abs_float (E.total_energy eng2 -. e0) /. abs_float e0)
      done;
      T.row t
        [
          name;
          T.cell_f ~prec:2 !worst;
          T.cell_f ~prec:2 (!worst /. 2.0);
        ])
    [
      ("hard truncation", Mdsp_ff.Nonbonded.Truncate);
      ("energy shift", Mdsp_ff.Nonbonded.Shift);
      ("CHARMM switch (6-8 A)", Mdsp_ff.Nonbonded.Switch { r_on = 6. });
    ];
  T.print t;
  note
    "Energy shifting removes the potential jump (force discontinuity\n\
     remains but is weak at 8 A); switching smooths both. The compiled\n\
     tables inherit whichever scheme the radial function encodes.\n"
