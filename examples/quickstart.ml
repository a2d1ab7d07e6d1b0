(* Quickstart: build a system, run thermostatted MD, then swap the analytic
   pair evaluator for the machine's interpolation-table path and keep
   running — the whole engine is agnostic to which one is installed.

   Run with: dune exec examples/quickstart.exe *)

open Mdsp_workload
module E = Mdsp_md.Engine

let () =
  (* 1. A 500-atom Lennard-Jones fluid at liquid density. *)
  let sys = Workloads.lj_fluid ~n:500 () in
  Printf.printf "system: %s (%d atoms, box %s)\n" sys.Workloads.label
    (Mdsp_ff.Topology.n_atoms sys.Workloads.topo)
    (Format.asprintf "%a" Mdsp_util.Pbc.pp sys.Workloads.box);

  (* 2. An engine with a Langevin thermostat at 120 K, dt = 2 fs. *)
  let config =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 120.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = Workloads.make_engine ~config sys in

  (* 3. Equilibrate and report. *)
  E.run eng 2000;
  Printf.printf "after 4 ps:  T = %6.1f K   PE = %10.2f kcal/mol   P = %8.1f atm\n"
    (E.temperature eng) (E.potential_energy eng) (E.pressure_atm eng);

  (* 4. Compile the force field into machine interpolation tables and swap
        the evaluator — the engine now runs "on the machine". *)
  let fc = E.force_calc eng in
  Mdsp_md.Force_calc.set_evaluator fc
    (Mdsp_core.Table.machine_evaluator (Mdsp_md.Force_calc.evaluator fc));
  E.refresh_forces eng;
  E.run eng 2000;
  Printf.printf "on tables:   T = %6.1f K   PE = %10.2f kcal/mol   P = %8.1f atm\n"
    (E.temperature eng) (E.potential_energy eng) (E.pressure_atm eng);

  (* 5. What would this run at on the machine vs a cluster? *)
  let w =
    Mdsp_machine.Perf.of_system ~dt_fs:2.0 sys.Workloads.topo sys.Workloads.box
  in
  Printf.printf "modeled rates: machine %.0f ns/day, commodity cluster %.0f ns/day\n"
    (Mdsp_machine.Perf.ns_per_day (Mdsp_machine.Config.anton_like ()) w)
    (Mdsp_baseline.Cluster.ns_per_day (Mdsp_baseline.Cluster.commodity ()) w)
