(* mdsp — command-line front end.

   Subcommands:
     mdsp presets                  list built-in workloads
     mdsp run ...                  run MD on a preset and report
     mdsp ensemble ...             sharded replica-exchange on the Exec pool
     mdsp model ...                machine/cluster performance model
     mdsp project ...              multi-node decomposition + torus network
     mdsp table ...                compile a pair form and report accuracy
     mdsp check ...                verify kernels, tables, parallel phases
     mdsp serve ...                JSON-lines job service over stdin/stdout
     mdsp submit ...               spool a job into a serve directory
     mdsp jobs ...                 list a spool directory, check hygiene *)

open! Cmdliner
module E = Mdsp_md.Engine

(* --- presets --- *)

let presets_cmd =
  let doc = "List the built-in benchmark workloads." in
  let run () =
    Printf.printf "%-10s %8s\n" "name" "atoms";
    List.iter
      (fun p ->
        Printf.printf "%-10s %8d\n" p.Mdsp_workload.Workloads.name
          p.Mdsp_workload.Workloads.atoms)
      Mdsp_workload.Workloads.presets
  in
  Cmd.v (Cmd.info "presets" ~doc) Term.(const run $ const ())

(* --- run --- *)

let preset_arg =
  let doc = "Workload preset (see `mdsp presets'), or lj<N> / water<S> for a\n
             custom LJ fluid of N atoms / water box of S^3 molecules." in
  Arg.(value & opt string "lj1k" & info [ "p"; "preset" ] ~docv:"NAME" ~doc)

let steps_arg =
  Arg.(value & opt int 2000 & info [ "n"; "steps" ] ~docv:"STEPS" ~doc:"MD steps.")

let temp_arg =
  let open! Arg in
  value & opt float 300.
  & info [ "t"; "temperature" ] ~docv:"K" ~doc:"Target temperature (K)."

let dt_arg =
  let open! Arg in
  value & opt float 2.0 & info [ "dt" ] ~docv:"FS" ~doc:"Time step (fs)."

let thermostat_arg =
  Arg.(
    value
    & opt (enum [ ("none", `None); ("langevin", `Langevin); ("nose-hoover", `Nh); ("berendsen", `Ber) ]) `Langevin
    & info [ "thermostat" ] ~docv:"KIND" ~doc:"none | langevin | nose-hoover | berendsen.")

let tables_arg =
  Arg.(
    value & flag
    & info [ "machine-tables" ]
        ~doc:"Run the pair interactions through compiled machine tables.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ]
        ~docv:"N"
        ~doc:
          "Run the pair/bonded force phases on N OCaml domains (1 = serial, \
           0 = one per recommended core).")

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:
          "Print the measured wall time per step of every executor phase \
           after the run (project: per machine resource, next to the \
           model).")

let gse_arg =
  Arg.(
    value & opt int 0
    & info [ "gse" ] ~docv:"N"
        ~doc:
          "Grid electrostatics for charged systems: real-space Ewald pairs \
           plus the GSE reciprocal solver on an NxNxN grid (N a power of \
           two; 0 = off). All grid phases run on the --domains backend.")

let xyz_arg =
  Arg.(
    value & opt (some string) None
    & info [ "xyz" ] ~docv:"FILE" ~doc:"Write an XYZ trajectory to FILE.")

let xyz_stride_arg =
  Arg.(
    value & opt int 100
    & info [ "xyz-stride" ] ~docv:"N" ~doc:"Steps between trajectory frames.")

let checkpoint_arg =
  Arg.(
    value & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Write an exact checkpoint of the engine to FILE at the end of the \
           run (the format of $(b,mdsp ensemble) and the job service).")

let restart_arg =
  Arg.(
    value & opt (some string) None
    & info [ "restart" ] ~docv:"FILE"
        ~doc:
          "Resume exactly from a checkpoint written by --checkpoint: the step \
           counter, RNG stream, thermostat state, in-flight forces and \
           neighbor list come from FILE, and its target temperature wins \
           over -t. Use the preset and force flags of the saved run.")

let build_system name = Mdsp_workload.Workloads.of_name name

(* Turn Failure — unknown preset, missing/truncated/mismatched checkpoint,
   malformed job spec — into a one-line diagnostic and a nonzero exit
   instead of a raw exception backtrace. *)
let or_die f =
  try f () with
  | Failure msg | Sys_error msg ->
      Printf.eprintf "mdsp: %s\n" msg;
      exit 1

(* One row per charged phase name, per step of the run, then the phases'
   total next to the run's wall time: the gap is the serial remainder that
   no phase covers. *)
let print_timings exec ~steps ~wall_s =
  let phases = Mdsp_util.Exec.phase_times exec in
  let us s = s /. float_of_int (max 1 steps) *. 1e6 in
  Printf.printf "per-step phase times over %d steps:\n" steps;
  List.iter
    (fun (name, s) -> Printf.printf "  %-20s %12.3f us\n" name (us s))
    phases;
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. phases in
  Printf.printf "  %-20s %12.3f us   (run wall time %.3f us)\n" "phases total"
    (us total) (us wall_s)

(* [--domains]: 1 = serial, 0 = one slot per recommended core. Always a
   created executor, so its phase clock serves [--timings]. *)
let exec_of_domains domains =
  let module X = Mdsp_util.Exec in
  X.create
    (match domains with
    | 1 -> X.Serial
    | 0 -> X.Domains { n = X.recommended_domains () }
    | n -> X.Domains { n })

let run_cmd =
  let doc = "Run molecular dynamics on a workload and report observables." in
  let run preset steps temp dt thermostat use_tables seed domains gse timings
      xyz xyz_stride checkpoint restart =
   or_die @@ fun () ->
    let sys = build_system preset in
    let exec = exec_of_domains domains in
    let gse_grid = if gse > 0 then Some (gse, gse, gse) else None in
    let thermostat =
      match thermostat with
      | `None -> E.No_thermostat
      | `Langevin -> E.Langevin { gamma_fs = 0.02 }
      | `Nh -> E.Nose_hoover { tau_fs = 100. }
      | `Ber -> E.Berendsen { tau_fs = 100. }
    in
    let cfg = { E.default_config with dt_fs = dt; temperature = temp; thermostat } in
    let eng =
      Mdsp_workload.Workloads.make_engine ~config:cfg ?gse_grid ~seed ~exec
        sys
    in
    (match Mdsp_util.Exec.backend exec with
    | Mdsp_util.Exec.Serial -> ()
    | Mdsp_util.Exec.Domains { n } ->
        Printf.printf "execution backend: %d domains\n" n);
    (match Mdsp_md.Force_calc.(longrange_kind (E.force_calc eng)) with
    | `Gse (gx, gy, gz) ->
        Printf.printf "long-range: GSE grid %dx%dx%d\n" gx gy gz
    | _ -> ());
    let traj =
      Option.map
        (fun path ->
          let names =
            Array.map
              (fun (a : Mdsp_ff.Topology.atom) -> a.Mdsp_ff.Topology.name)
              sys.Mdsp_workload.Workloads.topo.Mdsp_ff.Topology.atoms
          in
          let t = Mdsp_md.Trajectory.open_xyz path ~names in
          E.add_post_step eng ~name:"xyz" (fun eng ->
              if E.steps_done eng mod xyz_stride = 0 then begin
                let st = E.state eng in
                Mdsp_md.Trajectory.write_frame t st.Mdsp_md.State.box
                  ~time_fs:(Mdsp_util.Units.to_fs st.Mdsp_md.State.time)
                  st.Mdsp_md.State.positions
              end);
          t)
        xyz
    in
    if use_tables then begin
      let fc = E.force_calc eng in
      Mdsp_md.Force_calc.set_evaluator fc
        (Mdsp_core.Table.machine_evaluator (Mdsp_md.Force_calc.evaluator fc));
      E.refresh_forces eng;
      Printf.printf "pair interactions: compiled machine tables (2048 intervals)\n"
    end;
    (* After the tables are installed, so the in-flight forces come from
       the file rather than from a refresh. *)
    Option.iter
      (fun path ->
        Mdsp_ensemble.Checkpoint.resume ~expect_preset:preset path [| eng |];
        Printf.printf "restarted from %s (step %d)\n" path (E.steps_done eng))
      restart;
    Printf.printf "%s: %d atoms, %d steps at %.1f fs\n"
      sys.Mdsp_workload.Workloads.label
      (Mdsp_ff.Topology.n_atoms sys.Mdsp_workload.Workloads.topo)
      steps dt;
    let report () =
      Printf.printf
        "  t = %7.2f ps   T = %7.1f K   PE = %12.3f   E = %12.3f   P = %9.1f atm\n%!"
        (Mdsp_util.Units.to_ns (E.state eng).Mdsp_md.State.time *. 1000.)
        (E.temperature eng) (E.potential_energy eng) (E.total_energy eng)
        (E.pressure_atm eng)
    in
    report ();
    Mdsp_util.Exec.reset_phase_times exec;
    let t0 = Unix.gettimeofday () in
    let chunk = max 1 (steps / 10) in
    let remaining = ref steps in
    (try
       while !remaining > 0 do
         let todo = min chunk !remaining in
         E.run eng todo;
         remaining := !remaining - todo;
         report ()
       done
     with Mdsp_md.Constraints.Unconverged u ->
       (* The structured payload names the offending cluster; the CLI adds
          the workload context. *)
       Printf.eprintf "mdsp: preset %s: %s\n" preset
         (Mdsp_md.Constraints.unconverged_message u);
       exit 1);
    let wall_s = Unix.gettimeofday () -. t0 in
    Option.iter Mdsp_md.Trajectory.close_xyz traj;
    if timings then print_timings exec ~steps ~wall_s;
    Option.iter
      (fun path ->
        Mdsp_ensemble.Checkpoint.save ~preset path [| eng |];
        Printf.printf "checkpoint written to %s\n" path)
      checkpoint;
    Mdsp_util.Exec.shutdown exec
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ preset_arg $ steps_arg $ temp_arg $ dt_arg $ thermostat_arg
      $ tables_arg $ seed_arg $ domains_arg $ gse_arg $ timings_arg
      $ xyz_arg $ xyz_stride_arg $ checkpoint_arg $ restart_arg)

(* --- ensemble --- *)

let replicas_arg =
  Arg.(
    value & opt int 4
    & info [ "replicas" ] ~docv:"M" ~doc:"Replica (temperature rung) count.")

let stride_arg =
  Arg.(
    value & opt int 25
    & info [ "stride" ] ~docv:"S" ~doc:"MD steps between exchange attempts.")

let temp_min_arg =
  let open! Arg in
  value & opt float 120.
  & info [ "temp-min" ] ~docv:"K" ~doc:"Bottom rung temperature (K)."

let temp_max_arg =
  let open! Arg in
  value & opt float 160.
  & info [ "temp-max" ] ~docv:"K" ~doc:"Top rung temperature (K)."

let ens_checkpoint_arg =
  Arg.(
    value & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:"Write an exact ensemble checkpoint to FILE after the run.")

let ens_resume_arg =
  Arg.(
    value & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume an interrupted ensemble from a checkpoint written by \
           --checkpoint; the continued run reproduces the uninterrupted one \
           bit for bit.")

let ensemble_cmd =
  let doc =
    "Run temperature replica exchange with the replicas sharded across the \
     execution pool (one engine per slot, exchange at the barrier) — \
     bitwise identical to the sequential ladder for any --domains count."
  in
  let run preset steps replicas domains stride tmin tmax seed checkpoint
      resume =
   or_die @@ fun () ->
    if replicas < 2 then failwith "ensemble: need --replicas >= 2";
    if stride < 1 then failwith "ensemble: need --stride >= 1";
    if not (tmax > tmin && tmin > 0.) then
      failwith "ensemble: need 0 < --temp-min < --temp-max";
    let remd =
      Mdsp_service.Scheduler.remd_ladder ~preset ~dt_fs:2.0 ~seed ~replicas
        ~temp_min:tmin ~temp_max:tmax ~stride
    in
    let exec =
      let module X = Mdsp_util.Exec in
      match domains with
      | 1 -> X.serial
      | 0 -> X.create (X.Domains { n = X.recommended_domains () })
      | n -> X.create (X.Domains { n })
    in
    let ens = Mdsp_ensemble.Ensemble.create ~exec remd in
    Printf.printf "%s ladder: %d replicas (%.0f-%.0f K) on %d slot(s), \
                   exchange stride %d\n"
      preset replicas tmin tmax
      (Mdsp_ensemble.Shard.n_slots (Mdsp_ensemble.Ensemble.shard ens))
      stride;
    (match resume with
    | None -> ()
    | Some path ->
        Mdsp_ensemble.Checkpoint.resume ~expect_preset:preset path ~remd
          (Mdsp_core.Remd.engines remd);
        Printf.printf "resumed from %s (sweep %d)\n" path
          (Mdsp_core.Remd.sweeps_done remd));
    let sweeps = max 1 (steps / stride) in
    Mdsp_ensemble.Ensemble.run ens ~sweeps;
    print_string (Mdsp_ensemble.Ensemble.metrics_table ens);
    let temps = Mdsp_core.Remd.temps remd in
    let acc = Mdsp_core.Remd.acceptance remd in
    Array.iteri
      (fun i a ->
        Printf.printf "exchange %.0fK <-> %.0fK: acceptance %.2f\n"
          temps.(i)
          temps.(i + 1)
          a)
      acc;
    (match checkpoint with
    | None -> ()
    | Some path ->
        Mdsp_ensemble.Checkpoint.save ~preset path ~remd
          (Mdsp_core.Remd.engines remd);
        Printf.printf "ensemble checkpoint written to %s (sweep %d)\n" path
          (Mdsp_core.Remd.sweeps_done remd));
    Mdsp_util.Exec.shutdown exec
  in
  Cmd.v (Cmd.info "ensemble" ~doc)
    Term.(
      const run $ preset_arg $ steps_arg $ replicas_arg $ domains_arg
      $ stride_arg $ temp_min_arg $ temp_max_arg $ seed_arg
      $ ens_checkpoint_arg $ ens_resume_arg)

(* --- service: serve / submit / jobs --- *)

let spool_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR" ~doc:"Job spool directory.")

let slots_arg =
  Arg.(
    value & opt int 1
    & info [ "slots" ] ~docv:"N"
        ~doc:"Scheduler pool slots (jobs advanced concurrently per slice).")

let quantum_arg =
  Arg.(
    value
    & opt int Mdsp_service.Scheduler.default_quantum
    & info [ "quantum" ] ~docv:"STEPS"
        ~doc:"MD steps a job runs per slice before preempting to a checkpoint.")

let serve_cmd =
  let doc =
    "Serve simulation jobs: JSON-lines requests on stdin, responses on \
     stdout (see Protocol in lib/service). Jobs persist in --dir and \
     survive restarts."
  in
  let run dir slots quantum =
    or_die @@ fun () ->
    Mdsp_service.Server.serve ~quantum ~slots ~dir ~input:Unix.stdin
      ~output:stdout ()
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ spool_arg $ slots_arg $ quantum_arg)

let label_arg =
  Arg.(
    value & opt string ""
    & info [ "label" ] ~docv:"TEXT" ~doc:"Free-form job label (one line).")

let submit_replicas_arg =
  Arg.(
    value & opt int 0
    & info [ "replicas" ] ~docv:"M"
        ~doc:"Make the job an REMD ladder of M replicas (0 = single run).")

let porcelain_arg =
  Arg.(
    value & flag
    & info [ "porcelain" ] ~doc:"Print only the job id (for scripts).")

let submit_cmd =
  let doc = "Spool a job into a serve directory (no server required)." in
  let run dir preset steps temp dt seed label replicas tmin tmax stride
      porcelain =
    or_die @@ fun () ->
    let kind =
      if replicas = 0 then Mdsp_service.Job.Single
      else
        Mdsp_service.Job.Remd
          { replicas; temp_min = tmin; temp_max = tmax; stride }
    in
    let spec =
      {
        Mdsp_service.Job.label;
        preset;
        steps;
        dt_fs = dt;
        temperature = temp;
        seed;
        kind;
      }
    in
    let queue = Mdsp_service.Queue.create ~dir in
    match Mdsp_service.Queue.submit queue spec with
    | Error msg -> failwith ("submit: " ^ msg)
    | Ok e ->
        if porcelain then print_endline e.Mdsp_service.Queue.id
        else
          Printf.printf "%s %s (%s)\n" e.Mdsp_service.Queue.id
            (Mdsp_service.Queue.status_to_string e.Mdsp_service.Queue.status)
            (Mdsp_service.Job.describe spec)
  in
  Cmd.v (Cmd.info "submit" ~doc)
    Term.(
      const run $ spool_arg $ preset_arg $ steps_arg $ temp_arg $ dt_arg
      $ seed_arg $ label_arg $ submit_replicas_arg $ temp_min_arg
      $ temp_max_arg $ stride_arg $ porcelain_arg)

let jobs_check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Also scan for spool orphans (leftover .tmp staging files, \
           records without a .job spec, unreadable .job or .state \
           records); exit 1 if any.")

let jobs_cmd =
  let doc = "List the jobs in a spool directory." in
  let run dir check =
    or_die @@ fun () ->
    let queue = Mdsp_service.Queue.create ~dir in
    Printf.printf "%-18s %-8s %10s %10s  %s\n" "id" "status" "done" "total"
      "label";
    List.iter
      (fun (e : Mdsp_service.Queue.entry) ->
        Printf.printf "%-18s %-8s %10d %10d  %s\n" e.Mdsp_service.Queue.id
          (Mdsp_service.Queue.status_to_string e.Mdsp_service.Queue.status)
          e.Mdsp_service.Queue.steps_done
          e.Mdsp_service.Queue.spec.Mdsp_service.Job.steps
          e.Mdsp_service.Queue.spec.Mdsp_service.Job.label)
      (Mdsp_service.Queue.entries queue);
    if check then begin
      let orphans = Mdsp_service.Queue.orphans ~dir in
      List.iter (fun o -> Printf.printf "orphan: %s\n" o) orphans;
      if orphans <> [] then exit 1;
      print_endline "spool clean: no orphans"
    end
  in
  Cmd.v (Cmd.info "jobs" ~doc) Term.(const run $ spool_arg $ jobs_check_arg)

(* --- model --- *)

let atoms_arg =
  Arg.(value & opt int 23500 & info [ "atoms" ] ~docv:"N" ~doc:"Atom count.")

let nodes_arg =
  Arg.(
    value & opt (t3 int int int) (8, 8, 8)
    & info [ "nodes" ] ~docv:"X,Y,Z" ~doc:"Torus dimensions.")

let model_cmd =
  let doc = "Report the machine and cluster performance models for a workload." in
  let run atoms nodes =
    let g =
      Mdsp_longrange.Fft.next_pow2
        (int_of_float ((float_of_int atoms /. 0.1) ** (1. /. 3.)))
    in
    let w =
      {
        (Mdsp_machine.Perf.plain_workload ~n_atoms:atoms ~density:0.1
           ~cutoff:9.0 ~dt_fs:2.5)
        with
        Mdsp_machine.Perf.n_constraints = atoms;
        fft_grid = Some (g, g, g);
      }
    in
    let cfg = Mdsp_machine.Config.anton_like ~nodes () in
    let b = Mdsp_machine.Perf.step_time cfg w in
    let px, py, pz = nodes in
    Printf.printf "machine %dx%dx%d, %d atoms:\n" px py pz atoms;
    Printf.printf "  pipelines   %8.3f us\n" (b.Mdsp_machine.Perf.htis_s *. 1e6);
    Printf.printf "  flex cores  %8.3f us\n" (b.Mdsp_machine.Perf.flex_s *. 1e6);
    Printf.printf "  network     %8.3f us\n" (b.Mdsp_machine.Perf.comm_s *. 1e6);
    Printf.printf "  long-range  %8.3f us\n" (b.Mdsp_machine.Perf.fft_s *. 1e6);
    Printf.printf "  sync        %8.3f us\n" (b.Mdsp_machine.Perf.sync_s *. 1e6);
    Printf.printf "  step        %8.3f us  ->  %.0f ns/day\n"
      (b.Mdsp_machine.Perf.step_s *. 1e6)
      (Mdsp_machine.Perf.ns_per_day cfg w);
    let cl = Mdsp_baseline.Cluster.commodity () in
    Printf.printf "commodity cluster (64 nodes): %.0f ns/day\n"
      (Mdsp_baseline.Cluster.ns_per_day cl w)
  in
  Cmd.v (Cmd.info "model" ~doc) Term.(const run $ atoms_arg $ nodes_arg)

(* --- project --- *)

let project_steps_arg =
  Arg.(
    value & opt int 200
    & info [ "steps" ] ~docv:"N"
        ~doc:"MD steps for the measured --timings run.")

let project_cmd =
  let module M = Mdsp_machine in
  let module WL = Mdsp_workload.Workloads in
  let doc =
    "Project multi-node performance: decompose a workload over a torus, \
     price the per-step network traffic, and report the resulting step-time \
     breakdown and ns/day."
  in
  let run preset nodes gse domains timings steps =
    let sys = build_system preset in
    let exec = exec_of_domains domains in
    let cutoff = Float.min 9.0 (Mdsp_util.Pbc.min_edge sys.WL.box /. 2.) in
    let d = M.Decomp.create sys.WL.box ~nodes ~cutoff in
    let stats = M.Decomp.analyze ~exec d sys.WL.positions in
    let cfg = M.Config.anton_like ~nodes () in
    let grid = if gse > 0 then Some (gse, gse, gse) else None in
    let comm = M.Comm_model.of_stats cfg ?grid stats in
    let w =
      { (M.Perf.of_system ?fft_grid:grid sys.WL.topo sys.WL.box) with
        M.Perf.cutoff }
    in
    let b = M.Perf.step_time_decomposed cfg w ~comm in
    let px, py, pz = nodes in
    let nn = M.Decomp.node_count d in
    let imax a = Array.fold_left max 0 a in
    let isum a = Array.fold_left ( + ) 0 a in
    Printf.printf "decomposition %dx%dx%d (%d nodes), %s (%d atoms), cutoff %.2f A:\n"
      px py pz nn sys.WL.label stats.M.Decomp.n_atoms cutoff;
    Printf.printf "  home atoms   max %6d   mean %8.1f\n"
      (imax stats.M.Decomp.home_atoms)
      (float_of_int stats.M.Decomp.n_atoms /. float_of_int nn);
    Printf.printf "  import atoms max %6d   mean %8.1f\n"
      (imax stats.M.Decomp.import_atoms)
      (float_of_int (isum stats.M.Decomp.import_atoms) /. float_of_int nn);
    Printf.printf "  pairs/node   max %6d   (total %d)\n"
      (M.Decomp.max_pairs_per_node stats)
      stats.M.Decomp.n_pairs;
    Printf.printf "  exactly-once pair assignment: %s\n"
      (if stats.M.Decomp.pair_once_ok then
         "ok (matches single-node cell list, 0 residency violations)"
       else
         Printf.sprintf "FAILED (%d vs %d pairs, %d residency violations)"
           stats.M.Decomp.n_pairs stats.M.Decomp.singlenode_pairs
           stats.M.Decomp.residency_violations);
    Printf.printf "per-step torus traffic:\n";
    List.iter
      (fun (p : M.Comm_model.phase) ->
        Printf.printf
          "  %-16s %6d msgs  %11.0f bytes  hops <= %2d (avg %.2f)  %8.3f us\n"
          p.M.Comm_model.label p.M.Comm_model.messages p.M.Comm_model.bytes
          p.M.Comm_model.max_hops p.M.Comm_model.avg_hops
          (p.M.Comm_model.time_s *. 1e6))
      (M.Comm_model.phases comm);
    Printf.printf "step-time breakdown:\n";
    Printf.printf "  pipelines   %8.3f us\n" (b.M.Perf.htis_s *. 1e6);
    Printf.printf "  flex cores  %8.3f us\n" (b.M.Perf.flex_s *. 1e6);
    Printf.printf "  network     %8.3f us\n" (b.M.Perf.comm_s *. 1e6);
    Printf.printf "  long-range  %8.3f us\n" (b.M.Perf.fft_s *. 1e6);
    Printf.printf "  sync        %8.3f us\n" (b.M.Perf.sync_s *. 1e6);
    Printf.printf "  step        %8.3f us  ->  %.0f ns/day\n"
      (b.M.Perf.step_s *. 1e6)
      (M.Perf.ns_per_day_decomposed cfg w ~comm);
    if timings then begin
      let eng = WL.make_engine ?gse_grid:grid ~exec sys in
      Mdsp_util.Exec.reset_phase_times exec;
      E.run eng steps;
      Printf.printf
        "model vs measured (per step over %d steps, torus phases have no \
         host analogue):\n"
        steps;
      List.iter
        (fun (r : M.Perf.resource_row) ->
          Printf.printf "  %-18s %10.3f us  %s\n" r.M.Perf.resource
            (r.M.Perf.model_s *. 1e6)
            (match r.M.Perf.measured_s with
            | Some v -> Printf.sprintf "%10.3f us" (v *. 1e6)
            | None -> "        --"))
        (M.Perf.resource_rows ~comm b ~steps (Mdsp_util.Exec.phase_times exec))
    end
  in
  Cmd.v (Cmd.info "project" ~doc)
    Term.(
      const run $ preset_arg $ nodes_arg $ gse_arg $ domains_arg $ timings_arg
      $ project_steps_arg)

(* --- table --- *)

let form_arg =
  Arg.(
    value
    & opt (enum [ ("lj", `Lj); ("buckingham", `Buck); ("gauss", `Gauss); ("erfc", `Erfc) ]) `Lj
    & info [ "form" ] ~docv:"FORM" ~doc:"lj | buckingham | gauss | erfc.")

let width_arg =
  Arg.(value & opt int 1024 & info [ "width" ] ~docv:"N" ~doc:"Table intervals.")

let table_cmd =
  let doc = "Compile a pair functional form into the machine table format." in
  let run form width =
    let name, f =
      match form with
      | `Lj ->
          ("LJ 12-6", Mdsp_ff.Nonbonded.Lennard_jones { epsilon = 0.238; sigma = 3.405 })
      | `Buck -> ("Buckingham", Mdsp_ff.Nonbonded.Buckingham { a = 40000.; b = 3.5; c = 300. })
      | `Gauss ->
          ("Gaussian", Mdsp_ff.Nonbonded.Gaussian_repulsion { height = 10.; width = 3. })
      | `Erfc -> ("erfc-Coulomb", Mdsp_ff.Nonbonded.Coulomb_erfc { qq = 332.; beta = 0.35 })
    in
    let radial = Mdsp_core.Table.of_form f ~cutoff:9. in
    let t = Mdsp_core.Table.compile ~r_min:2. ~r_cut:9. ~n:width radial in
    let rep = Mdsp_core.Table.accuracy t radial () in
    Printf.printf "%s, %d intervals over [2, 9] A (r^2-indexed):\n" name width;
    Printf.printf "  max |dE|          %.3e kcal/mol\n" rep.Mdsp_core.Table.max_abs_energy;
    Printf.printf "  max |df/r|        %.3e\n" rep.Mdsp_core.Table.max_abs_force;
    Printf.printf "  max rel force err %.3e\n" rep.Mdsp_core.Table.max_rel_force;
    Printf.printf "  rms force err     %.3e\n" rep.Mdsp_core.Table.rms_force;
    Printf.printf "  SRAM              %d bytes\n"
      (Mdsp_machine.Interp_table.sram_bytes t);
    match
      Mdsp_core.Table.width_for_accuracy ~r_min:2. ~r_cut:9. ~target:1e-4 radial
    with
    | Some n -> Printf.printf "  width for 1e-4:   %d intervals\n" n
    | None -> Printf.printf "  width for 1e-4:   not reachable\n"
  in
  Cmd.v (Cmd.info "table" ~doc) Term.(const run $ form_arg $ width_arg)

(* --- check --- *)

let check_json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the per-check verdicts as a flat JSON object.")

let seed_hazard_arg =
  Arg.(
    value & flag
    & info [ "seed-hazard" ]
        ~doc:
          "Additionally check a deliberately hazardous kernel; the command \
           must then fail (a self-test of the analyzer).")

let slots_arg =
  Arg.(
    value
    & opt (list int) [ 1; 2; 4 ]
    & info [ "slots" ] ~docv:"N,..."
        ~doc:"Slot counts for the race-sanitized parallel phase sweep.")

let datapath_arg =
  Arg.(
    value & flag
    & info [ "datapath" ]
        ~doc:
          "Print the full fixed-point datapath certificates (per-accumulator \
           worst cases, limits and margins) instead of only the per-format \
           verdict lines of the summary.")

let seed_narrow_arg =
  Arg.(
    value & flag
    & info [ "seed-narrow" ]
        ~doc:
          "Additionally certify each datapath envelope against a \
           deliberately narrowed force format; the command must then fail \
           (a self-test of the certifier).")

let phases_arg =
  Arg.(
    value & flag
    & info [ "phases" ]
        ~doc:
          "Additionally run the phase-dataflow analysis: record every \
           parallel phase's read/write footprint through the sanitizer, \
           derive the static happens-before graph, and require full phase \
           coverage, acyclicity and an identical graph at every slot count.")

let seed_race_arg =
  Arg.(
    value & flag
    & info [ "seed-race" ]
        ~doc:
          "Additionally drive a deliberately racy phase (tiled writes under \
           a whole-array read) through the dataflow sweep; the command must \
           then fail (a self-test of the conflict matrix). Implies \
           $(b,--phases).")

let dot_arg =
  Arg.(
    value & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:
          "Write the happens-before graph of the last slot count as a \
           Graphviz DOT file (deterministic output). Implies $(b,--phases).")

let seed_cycle_arg =
  Arg.(
    value & flag
    & info [ "seed-cycle" ]
        ~doc:
          "Additionally drive a race-free but deliberately cyclic phase \
           pair through the dataflow sweep; the command must then fail the \
           acyclicity check (a self-test of the cycle branch). Implies \
           $(b,--phases).")

let constraints_arg =
  Arg.(
    value & flag
    & info [ "constraints" ]
        ~doc:
          "Additionally certify the constraint schedule the SHAKE/RATTLE \
           solver runs on each registered workload envelope — the list of \
           clusters fusing constraints that share an atom: no two clusters \
           share an atom, every constraint is covered exactly once, and the \
           clusters' atom footprints stay disjoint across slots — plus the \
           registered envelope bound (max cluster size).")

let seed_conflict_arg =
  Arg.(
    value & flag
    & info [ "seed-conflict" ]
        ~doc:
          "Additionally certify a deliberately broken schedule (two units \
           sharing an atom); the command must then fail, naming the shared \
           atom (a self-test of the schedule certifier). Implies \
           $(b,--constraints).")

let check_cmd =
  let doc =
    "Verify the built-in kernels, tables, parallel phases and datapaths."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the static-verification passes: interval analysis of every \
         built-in kernel's energy and force expressions over its declared \
         input bounds, domain / fit / quantization checks of every compiled \
         interpolation table, a write-set race sanitization sweep of all \
         parallel force phases, and the fixed-point datapath certifier, \
         which proves every machine accumulator (pair conversion, per-atom \
         force, node partials and reduction tree, whole-system energy, \
         positions, coefficient Horner steps) cannot saturate under the \
         registered workload envelopes. With $(b,--phases), also records \
         every parallel phase's declared read/write footprint and certifies \
         the static happens-before graph: full coverage of the expected \
         phase set, acyclicity, and an identical graph shape at every slot \
         count. With $(b,--constraints), also certifies the constraint-\
         cluster list the parallel SHAKE/RATTLE sweeps run (no shared \
         atom, exactly-once cover, cross-slot footprint disjointness, \
         registered envelope bound). Exits non-zero if any check fails.";
    ]
  in
  let run json seed_hazard slots datapath seed_narrow phases seed_race
      seed_cycle constraints seed_conflict dot =
    let constraints = constraints || seed_conflict in
    let phases = phases || seed_race || seed_cycle || dot <> None in
    let s =
      Mdsp_verify.Check.run ~seed_hazard ~seed_narrow ~seed_race ~seed_cycle
        ~seed_conflict ~phases ~constraints ~slots ()
    in
    Format.printf "%a" Mdsp_verify.Check.pp_summary s;
    if datapath then
      List.iter
        (fun r ->
          Format.printf "@[<v>%a@]@." Mdsp_verify.Fixed_check.pp_report r)
        s.Mdsp_verify.Check.datapath;
    (match (dot, s.Mdsp_verify.Check.phases) with
    | None, _ -> ()
    | Some _, (None | Some { Mdsp_verify.Dataflow.df_graphs = []; _ }) ->
        prerr_endline "mdsp check: no dataflow graph recorded, no DOT written"
    | Some path, Some { Mdsp_verify.Dataflow.df_graphs = gs; _ } ->
        let g = List.nth gs (List.length gs - 1) in
        let oc = open_out path in
        output_string oc (Mdsp_verify.Dataflow.dot g);
        close_out oc;
        Printf.printf "dataflow graph (%d slots) written to %s\n"
          g.Mdsp_verify.Dataflow.g_slots path);
    (match json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Mdsp_verify.Check.to_json s);
        close_out oc);
    if not (Mdsp_verify.Check.ok s) then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc ~man)
    Term.(
      const run $ check_json_arg $ seed_hazard_arg $ slots_arg $ datapath_arg
      $ seed_narrow_arg $ phases_arg $ seed_race_arg $ seed_cycle_arg
      $ constraints_arg $ seed_conflict_arg $ dot_arg)

(* --- analyze --- *)

let traj_arg =
  Arg.(
    required & opt (some string) None
    & info [ "xyz" ] ~docv:"FILE" ~doc:"XYZ trajectory to analyze.")

let rmax_arg =
  let open! Arg in
  value & opt float 8. & info [ "r-max" ] ~docv:"A" ~doc:"g(r) range."

let bins_arg =
  Arg.(value & opt int 40 & info [ "bins" ] ~docv:"N" ~doc:"Histogram bins.")

let analyze_cmd =
  let doc = "Compute the radial distribution function of an XYZ trajectory." in
  let run path r_max bins =
    let frames = Mdsp_md.Trajectory.read_xyz path in
    (match frames with
    | [] -> failwith "empty trajectory"
    | (comment, _) :: _ ->
        (* Parse the box from the Lattice= comment written by the engine. *)
        let box =
          try
            Scanf.sscanf comment "Lattice=\"%f 0 0 0 %f 0 0 0 %f\""
              (fun lx ly lz -> Mdsp_util.Pbc.make ~lx ~ly ~lz)
          with _ -> failwith "could not parse Lattice from the comment line"
        in
        let sd = Mdsp_analysis.Structure.create ~r_max ~bins in
        List.iter
          (fun (_, pos) -> Mdsp_analysis.Structure.sample sd box pos ())
          frames;
        Printf.printf "# %d frames, %d atoms, box %s\n" (List.length frames)
          (Array.length (snd (List.hd frames)))
          (Format.asprintf "%a" Mdsp_util.Pbc.pp box);
        Printf.printf "# r(A)  g(r)\n";
        Array.iter
          (fun (r, g) -> Printf.printf "%8.3f  %8.4f\n" r g)
          (Mdsp_analysis.Structure.g sd);
        let r_peak, g_peak = Mdsp_analysis.Structure.first_peak ~r_min:1. sd in
        Printf.printf "# first peak: r = %.2f A, g = %.2f\n" r_peak g_peak)
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ traj_arg $ rmax_arg $ bins_arg)

let main =
  let doc = "Molecular dynamics on a modeled special-purpose machine." in
  Cmd.group (Cmd.info "mdsp" ~version:"1.0.0" ~doc)
    [
      presets_cmd;
      run_cmd;
      ensemble_cmd;
      model_cmd;
      project_cmd;
      table_cmd;
      check_cmd;
      analyze_cmd;
      serve_cmd;
      submit_cmd;
      jobs_cmd;
    ]

let () = exit (Cmd.eval main)
