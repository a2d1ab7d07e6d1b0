(* End-to-end integration tests: the whole engine running on machine-model
   tables, machine-vs-reference agreement on realistic systems, and
   cross-module workflows. *)

open Mdsp_util
open Testsupport
module E = Mdsp_md.Engine

(* Build an engine whose pair evaluator is the machine's table-backed
   HTIS model instead of the analytic reference. *)
let machine_engine ?(n_table = 2048) ?(config = E.default_config) sys =
  let open Mdsp_workload.Workloads in
  let cutoff = Float.min 9. (0.45 *. Pbc.min_edge sys.box) in
  let has_charges =
    Array.exists
      (fun (a : Mdsp_ff.Topology.atom) -> a.Mdsp_ff.Topology.charge <> 0.)
      sys.topo.Mdsp_ff.Topology.atoms
  in
  let elec =
    if has_charges then
      Mdsp_ff.Pair_interactions.Reaction_field { epsilon_rf = 78.5 }
    else Mdsp_ff.Pair_interactions.No_coulomb
  in
  let ts =
    Mdsp_core.Table.table_set_of_topology sys.topo ~cutoff ~elec ~n:n_table ()
  in
  let types =
    Array.map
      (fun (a : Mdsp_ff.Topology.atom) -> a.Mdsp_ff.Topology.type_id)
      sys.topo.Mdsp_ff.Topology.atoms
  in
  let charges = Mdsp_ff.Topology.charges sys.topo in
  let evaluator = Mdsp_machine.Htis.evaluator ts ~types ~charges ~cutoff in
  let nlist =
    Mdsp_space.Neighbor_list.create
      ~exclusions:sys.topo.Mdsp_ff.Topology.exclusions ~cutoff ~skin:1.0
      sys.box sys.positions
  in
  let fc =
    Mdsp_md.Force_calc.create sys.topo ~evaluator
      ~longrange:Mdsp_md.Force_calc.Lr_none ~nlist
  in
  let st =
    Mdsp_md.State.create ~positions:sys.positions
      ~masses:(Mdsp_ff.Topology.masses sys.topo)
      ~box:sys.box
  in
  Mdsp_md.State.thermalize st (Rng.create 23)
    ~temp:config.E.temperature;
  E.create ~seed:23 sys.topo fc st config

let test_machine_tables_forces_match_reference_water () =
  (* Water box: LJ + reaction-field electrostatics through tables. *)
  let sys = Mdsp_workload.Workloads.water_box ~n_side:4 () in
  let open Mdsp_workload.Workloads in
  let cutoff = Float.min 9. (0.45 *. Pbc.min_edge sys.box) in
  let elec = Mdsp_ff.Pair_interactions.Reaction_field { epsilon_rf = 78.5 } in
  let ts =
    Mdsp_core.Table.table_set_of_topology sys.topo ~cutoff ~elec ~n:4096 ()
  in
  let types =
    Array.map
      (fun (a : Mdsp_ff.Topology.atom) -> a.Mdsp_ff.Topology.type_id)
      sys.topo.Mdsp_ff.Topology.atoms
  in
  let charges = Mdsp_ff.Topology.charges sys.topo in
  let mach = Mdsp_machine.Htis.evaluator ts ~types ~charges ~cutoff in
  let refe =
    Mdsp_ff.Pair_interactions.of_topology sys.topo ~cutoff
      ~trunc:Mdsp_ff.Nonbonded.Shift ~elec
  in
  let r1 = Mdsp_baseline.Reference.compute sys.topo sys.box sys.positions ~evaluator:refe in
  let r2 = Mdsp_baseline.Reference.compute sys.topo sys.box sys.positions ~evaluator:mach in
  let err =
    Mdsp_baseline.Reference.max_force_error r1.Mdsp_baseline.Reference.forces
      r2.Mdsp_baseline.Reference.forces
  in
  check_true (Printf.sprintf "water force error %.2e < 1e-4" err) (err < 1e-4);
  check_close ~rel:1e-4 "pair energies"
    r1.Mdsp_baseline.Reference.pair_energy r2.Mdsp_baseline.Reference.pair_energy

let test_engine_runs_on_machine_evaluator () =
  (* NVE on machine tables: energy stays conserved at the table accuracy. *)
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:108 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 120.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = machine_engine ~config:cfg sys in
  E.run eng 1000;
  (* switch to effectively-NVE by removing the thermostat via fresh config *)
  let sys2 =
    { sys with Mdsp_workload.Workloads.positions = Array.copy (E.state eng).Mdsp_md.State.positions }
  in
  let nve = machine_engine ~config:{ cfg with E.thermostat = E.No_thermostat } sys2 in
  Array.blit (E.state eng).Mdsp_md.State.velocities 0
    (E.state nve).Mdsp_md.State.velocities 0 108;
  E.refresh_forces nve;
  let e0 = E.total_energy nve in
  E.run nve 1000;
  let drift = abs_float (E.total_energy nve -. e0) /. abs_float e0 in
  check_true (Printf.sprintf "machine NVE drift %.2e < 1e-3" drift) (drift < 1e-3)

let test_machine_vs_reference_trajectories_agree_initially () =
  (* With identical initial conditions, machine-table and reference engines
     should track each other closely for a short horizon (Lyapunov growth
     separates them eventually). *)
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:64 () in
  let cfg = { E.default_config with dt_fs = 2.0; temperature = 120. } in
  let eng_m = machine_engine ~n_table:4096 ~config:cfg sys in
  let eng_r = Mdsp_workload.Workloads.make_engine ~config:cfg ~cutoff:8. sys in
  (* Same cutoff for both: rebuild machine engine with cutoff 8. *)
  ignore eng_m;
  let sys8 = sys in
  let ts =
    Mdsp_core.Table.table_set_of_topology sys8.Mdsp_workload.Workloads.topo
      ~cutoff:8. ~elec:Mdsp_ff.Pair_interactions.No_coulomb ~n:4096 ()
  in
  let types = Array.make 64 0 in
  let charges = Array.make 64 0. in
  let evaluator = Mdsp_machine.Htis.evaluator ts ~types ~charges ~cutoff:8. in
  Mdsp_md.Force_calc.set_evaluator (E.force_calc eng_r) evaluator;
  (* eng_r now runs on tables; compare against a fresh reference engine. *)
  let eng_ref = Mdsp_workload.Workloads.make_engine ~config:cfg ~cutoff:8. sys in
  E.refresh_forces eng_r;
  E.run eng_r 50;
  E.run eng_ref 50;
  let d =
    max_vec_diff (E.state eng_r).Mdsp_md.State.positions
      (E.state eng_ref).Mdsp_md.State.positions
  in
  check_true (Printf.sprintf "trajectories agree to %.2e A after 50 steps" d)
    (d < 1e-3)

let test_full_stack_water_with_gse () =
  (* Water with grid-based long-range electrostatics end to end. *)
  let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  let open Mdsp_workload.Workloads in
  let cutoff = 0.45 *. Pbc.min_edge sys.box in
  let beta = 3.0 /. cutoff in
  let evaluator =
    Mdsp_ff.Pair_interactions.of_topology sys.topo ~cutoff
      ~trunc:Mdsp_ff.Nonbonded.Shift
      ~elec:(Mdsp_ff.Pair_interactions.Ewald_real { beta })
  in
  let nlist =
    Mdsp_space.Neighbor_list.create
      ~exclusions:sys.topo.Mdsp_ff.Topology.exclusions ~cutoff ~skin:1.
      sys.box sys.positions
  in
  let gse = Mdsp_longrange.Gse.create ~beta ~grid:(32, 32, 32) sys.box in
  let fc =
    Mdsp_md.Force_calc.create sys.topo ~evaluator
      ~longrange:(Mdsp_md.Force_calc.Lr_gse gse) ~nlist
  in
  let st =
    Mdsp_md.State.create ~positions:sys.positions
      ~masses:(Mdsp_ff.Topology.masses sys.topo)
      ~box:sys.box
  in
  Mdsp_md.State.thermalize st (Rng.create 31) ~temp:300.;
  let cfg =
    {
      E.default_config with
      dt_fs = 1.0;
      temperature = 300.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = E.create ~seed:31 sys.topo fc st cfg in
  E.run eng 200;
  check_true "GSE run finite" (Float.is_finite (E.total_energy eng));
  let energies = E.energies eng in
  check_true "reciprocal energy nonzero"
    (abs_float energies.Mdsp_md.Force_calc.recip > 1e-6);
  check_true "correction negative (self energy dominates)"
    (energies.Mdsp_md.Force_calc.correction < 0.);
  let viol =
    Mdsp_md.Constraints.max_violation (E.constraints eng)
      (E.state eng).Mdsp_md.State.box (E.state eng).Mdsp_md.State.positions
  in
  check_true "waters stay rigid" (viol < 1e-6)

let test_bead_chain_full_workflow () =
  (* Chain + solvent + restraint kernel + metadynamics on an end-to-end
     distance CV, all simultaneously. *)
  let sys = Mdsp_workload.Workloads.bead_chain ~n_beads:10 ~n_total:80 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 150.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  (* Flat-bottom container on the chain. *)
  let fb =
    Mdsp_core.Restraints.flat_bottom ~name:"container"
      ~particles:(Array.init 10 Fun.id) ~k:1. ~radius:15.
  in
  Mdsp_core.Restraints.attach_kernel eng fb;
  (* Metadynamics on the end-to-end distance. *)
  let cv = Mdsp_core.Cv.distance ~i:0 ~j:9 in
  let meta =
    Mdsp_core.Metadynamics.create ~cvs:[| cv |] ~sigmas:[| 0.5 |] ~height:0.1
      ~stride:50 ~temp:150. ()
  in
  Mdsp_core.Metadynamics.attach meta eng;
  E.refresh_forces eng;
  E.minimize eng ~steps:200;
  Mdsp_md.State.thermalize (E.state eng) (Rng.create 3) ~temp:150.;
  E.refresh_forces eng;
  E.run eng 2000;
  check_true "workflow stays finite" (Float.is_finite (E.total_energy eng));
  check_true "hills deposited" (Mdsp_core.Metadynamics.n_hills meta = 40);
  check_true "biases registered"
    (List.length (Mdsp_md.Force_calc.biases (E.force_calc eng)) >= 2)

let test_determinism_same_seed_same_trajectory () =
  let run () =
    let sys = Mdsp_workload.Workloads.lj_fluid ~n:64 () in
    let cfg =
      {
        E.default_config with
        dt_fs = 2.0;
        temperature = 120.;
        thermostat = E.Langevin { gamma_fs = 0.02 };
      }
    in
    let eng = Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:99 sys in
    E.run eng 500;
    Array.copy (E.state eng).Mdsp_md.State.positions
  in
  let a = run () and b = run () in
  Array.iteri
    (fun i v ->
      if v <> b.(i) then Alcotest.failf "trajectories diverge at atom %d" i)
    a

let test_machine_tables_follow_gse_evaluator () =
  (* Under the grid solver the engine's pairs are Ewald real-space, and
     the reciprocal and correction terms carry the rest of the
     electrostatics. Tables compiled from the installed evaluator take the
     same split, so the table-path energy matches the analytic one;
     reaction-field tables would count the electrostatics twice. *)
  let sys = Mdsp_workload.Workloads.water_box ~n_side:4 () in
  let eng = Mdsp_workload.Workloads.make_engine ~gse_grid:(16, 16, 16) sys in
  let analytic = E.potential_energy eng in
  let fc = E.force_calc eng in
  Mdsp_md.Force_calc.set_evaluator fc
    (Mdsp_core.Table.machine_evaluator (Mdsp_md.Force_calc.evaluator fc));
  E.refresh_forces eng;
  let tabled = E.potential_energy eng in
  check_true
    (Printf.sprintf "table-path PE %.6g within 1e-3 relative of analytic %.6g"
       tabled analytic)
    (Float.abs (tabled -. analytic) <= 1e-3 *. Float.abs analytic)

let test_tip4p_on_machine_tables () =
  (* The full stack at once: virtual sites + compiled tables + reaction
     field + constraints, running stably. *)
  let sys = Mdsp_workload.Workloads.water_box_tip4p ~n_side:3 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 1.0;
      temperature = 300.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = machine_engine ~n_table:2048 ~config:cfg sys in
  E.run eng 500;
  check_true "finite" (Float.is_finite (E.total_energy eng));
  let st = E.state eng in
  (* M sites still exactly placed. *)
  for m = 0 to 26 do
    let d = Pbc.dist st.Mdsp_md.State.box st.Mdsp_md.State.positions.(4 * m)
        st.Mdsp_md.State.positions.((4 * m) + 3)
    in
    check_close ~rel:1e-6 "O-M held on tables" Mdsp_ff.Water.Tip4p.om_dist d
  done

let test_kob_andersen_mixture () =
  let sys = Mdsp_workload.Workloads.kob_andersen ~n:250 () in
  (* Composition: exactly 20% B particles. *)
  let n_b =
    Array.fold_left
      (fun acc (a : Mdsp_ff.Topology.atom) ->
        if a.Mdsp_ff.Topology.name = "B" then acc + 1 else acc)
      0 sys.Mdsp_workload.Workloads.topo.Mdsp_ff.Topology.atoms
  in
  Alcotest.(check int) "80:20 composition" 50 n_b;
  (* Non-additivity: the AB interaction is NOT the LB mixture of AA and
     BB (sigma_AB = 0.8 < (1.0 + 0.88)/2 = 0.94). *)
  let ev =
    Mdsp_workload.Workloads.kob_andersen_evaluator sys ~cutoff:8.
  in
  let a_idx = 0 and b_idx = 4 in
  (* Find the zero crossing of the AB pair energy: should be near
     0.8 * 3.405 = 2.72 A, far below the LB 3.2 A. *)
  let e_ab r = fst (ev.Mdsp_ff.Pair_interactions.eval a_idx b_idx (r *. r)) in
  check_true "AB zero crossing below LB prediction"
    (e_ab 2.8 < 0. && e_ab 2.6 > 0.);
  (* And it runs: build an engine on the custom evaluator. *)
  let nlist =
    Mdsp_space.Neighbor_list.create ~cutoff:8. ~skin:1.
      sys.Mdsp_workload.Workloads.box sys.Mdsp_workload.Workloads.positions
  in
  let fc =
    Mdsp_md.Force_calc.create sys.Mdsp_workload.Workloads.topo ~evaluator:ev
      ~longrange:Mdsp_md.Force_calc.Lr_none ~nlist
  in
  let st =
    Mdsp_md.State.create ~positions:sys.Mdsp_workload.Workloads.positions
      ~masses:(Mdsp_ff.Topology.masses sys.Mdsp_workload.Workloads.topo)
      ~box:sys.Mdsp_workload.Workloads.box
  in
  Mdsp_md.State.thermalize st (Rng.create 8) ~temp:180.;
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 180.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = E.create ~seed:8 sys.Mdsp_workload.Workloads.topo fc st cfg in
  E.run eng 500;
  check_true "KA mixture runs" (Float.is_finite (E.total_energy eng))

let test_presets_all_build () =
  List.iter
    (fun p ->
      let sys = p.Mdsp_workload.Workloads.build () in
      let n = Mdsp_ff.Topology.n_atoms sys.Mdsp_workload.Workloads.topo in
      check_close ~rel:0.02
        (Printf.sprintf "%s atom count" p.Mdsp_workload.Workloads.name)
        (float_of_int p.Mdsp_workload.Workloads.atoms)
        (float_of_int n))
    Mdsp_workload.Workloads.presets

let () =
  Alcotest.run "mdsp_integration"
    [
      ( "machine_tables",
        [
          Alcotest.test_case "water forces match reference" `Slow
            test_machine_tables_forces_match_reference_water;
          Alcotest.test_case "engine runs on machine evaluator" `Slow
            test_engine_runs_on_machine_evaluator;
          Alcotest.test_case "short-horizon trajectory agreement" `Slow
            test_machine_vs_reference_trajectories_agree_initially;
          Alcotest.test_case "GSE water: tables follow the evaluator" `Quick
            test_machine_tables_follow_gse_evaluator;
        ] );
      ( "full_stack",
        [
          Alcotest.test_case "water + GSE long range" `Slow
            test_full_stack_water_with_gse;
          Alcotest.test_case "chain + restraints + metadynamics" `Slow
            test_bead_chain_full_workflow;
        ] );
      ( "reproducibility",
        [
          Alcotest.test_case "same seed, same trajectory" `Slow
            test_determinism_same_seed_same_trajectory;
          Alcotest.test_case "presets build" `Slow test_presets_all_build;
          Alcotest.test_case "Kob-Andersen mixture" `Slow
            test_kob_andersen_mixture;
          Alcotest.test_case "TIP4P on machine tables" `Slow
            test_tip4p_on_machine_tables;
        ] );
    ]
