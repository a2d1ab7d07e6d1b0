open Mdsp_util
module E = Mdsp_md.Engine
module FC = Mdsp_md.Force_calc
module W = Mdsp_workload.Workloads

(* Each window is a named unit of recorded work: [setup] builds whatever
   the window drives (engines, queues) while no observer watches, then the
   returned thunk is the body the race sweep executes and the dataflow
   analysis records. The split matters for the happens-before graph:
   engine creation runs a full force evaluation, and recording it in the
   same window as the step that follows would thread a stale
   gather -> kick1 ordering through the per-name graph and manufacture a
   cycle that no single step contains. *)

(* One velocity-Verlet step of a solvated water box with the GSE grid
   solver: the integrator sweeps (kick1 / drift / kick2), the boxed<->flat
   sync, the bonded and flat pair tiles with their per-atom reductions, and
   every grid-pipeline phase (spread / combine / both FFT passes /
   convolve / phi scale / gather). *)
let step_gse ~exec () =
  let eng =
    W.make_engine ~seed:13 ~exec ~gse_grid:(16, 16, 16)
      (W.water_box ~n_side:3 ())
  in
  fun () -> E.step eng

(* The stock bead chain fully excludes its 1-4 pairs; turning on
   AMBER-style scaling makes the pair14 phase run, so the sweep covers
   it. *)
let scaled14_chain () =
  let sys = W.bead_chain ~n_beads:16 ~n_total:256 () in
  {
    sys with
    W.topo =
      {
        sys.W.topo with
        Mdsp_ff.Topology.scale14_lj = 0.5;
        scale14_coul = 1. /. 1.2;
      };
  }

(* One step of a charged bead chain with scaled 1-4 terms: Bonded.all's
   bond / angle / dihedral tiles and their reduction into the accumulator
   that seeds the flat store, the flat 1-4 and reaction-field pair tiles
   with their per-atom reduction, the store sync into the second kick, and
   the integrator sweeps. *)
let step_chain14 ~exec () =
  let eng = W.make_engine ~seed:5 ~exec (scaled14_chain ()) in
  fun () -> E.step eng

(* The boxed kernels the test suites and the benchmark call, on an
   engine's evaluator and list: Bonded.all (which engines run too, under
   the step windows), then the boxed 1-4 and neighbor-list pair oracles on
   the same accumulator, each with its per-atom reduction (bonded.reduce,
   then pair.reduce). No engine runs the boxed pair kernels, but they ship
   and run on the pool. *)
let oracle_forces ~exec () =
  let sys = scaled14_chain () in
  let fc = E.force_calc (W.make_engine ~seed:5 ~exec sys) in
  let ev = FC.evaluator fc and box = sys.W.box and x = sys.W.positions in
  let acc = Mdsp_ff.Bonded.make_accum (Array.length x) in
  fun () ->
    ignore (Mdsp_ff.Bonded.all ~exec box sys.W.topo x acc);
    ignore
      (Mdsp_ff.Pair_interactions.compute_pairs14 ~exec sys.W.topo
         ~cutoff:ev.Mdsp_ff.Pair_interactions.cutoff box x acc);
    ignore (Mdsp_ff.Pair_interactions.compute ~exec ev box (FC.nlist fc) x acc)

(* Forced neighbor rebuild followed by a full force evaluation: the tiled
   cell-list bin and pair-list build run first, so the pair phase's read
   of the fresh list appears as an in-window nbuild -> pair edge. *)
let rebuild_forces ~exec () =
  let eng =
    W.make_engine ~seed:5 ~exec (W.bead_chain ~n_beads:16 ~n_total:256 ())
  in
  let st = E.state eng in
  let acc = Mdsp_ff.Bonded.make_accum (Mdsp_md.State.n st) in
  let fc = E.force_calc eng in
  fun () ->
    ignore
      (Mdsp_space.Neighbor_list.rebuild (FC.nlist fc)
         st.Mdsp_md.State.positions);
    ignore (FC.compute fc st.Mdsp_md.State.box st.Mdsp_md.State.positions acc)

(* The boxed<->SoA sync pair on its own: [of_state] (phase soa.load, with
   the velocity columns) into [to_state] (phase soa.store). *)
let soa_sync ~exec () =
  let sys = W.bead_chain ~n_beads:8 ~n_total:64 () in
  let st =
    Mdsp_md.State.create ~positions:sys.W.positions
      ~masses:(Mdsp_ff.Topology.masses sys.W.topo)
      ~box:sys.W.box
  in
  fun () ->
    let s = Mdsp_md.Soa.of_state ~exec st in
    ignore (Mdsp_md.Soa.to_state ~exec s)

(* One multi-node decomposition frame of a small water box: the per-atom
   owner scan, the per-atom resident-set scan and the tiled midpoint pair
   assignment; the cell-list build inside declares cell.bin against the
   decomp's own position resource. The cutoff obeys the midpoint rule's
   cutoff <= min_edge / 2 bound for this ~9.3 A box. *)
let decomp_frame ~exec () =
  let sys = W.water_box ~n_side:3 () in
  let d =
    Mdsp_machine.Decomp.create sys.W.box ~nodes:(2, 2, 2) ~cutoff:4.5
  in
  fun () -> ignore (Mdsp_machine.Decomp.analyze ~exec d sys.W.positions)

(* A few tiny jobs through the service scheduler: every slice advances one
   job per slot inside [Exec.map_slots], and each slot declares its
   per-job read and write (resource "service.jobs") — so the sanitizer
   audits scheduler batches exactly like force-pipeline phases. The
   quantum is smaller than the budgets, forcing checkpoint preemption
   mid-sweep. *)
let service_slice ~exec () =
  let dir = Atomic_file.fresh_dir ~prefix:"mdsp_phase_service" () in
  let queue = Mdsp_service.Queue.create ~dir in
  let sched = Mdsp_service.Scheduler.create ~quantum:20 ~exec queue in
  List.iter
    (fun seed ->
      match
        Mdsp_service.Queue.submit queue
          {
            Mdsp_service.Job.label = Printf.sprintf "phase-%d" seed;
            preset = "lj32";
            steps = 50;
            dt_fs = 2.0;
            temperature = 120.;
            seed;
            kind = Mdsp_service.Job.Single;
          }
      with
      | Ok _ -> ()
      | Error m -> failwith ("Phase_check.service_slice: " ^ m))
    [ 1; 2; 3 ];
  fun () ->
    Mdsp_service.Scheduler.drain sched;
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir

(* The bare collective: [Exec.map_slots] declares the read and write of
   each slot's own result cell. *)
let collective ~exec () = fun () -> ignore (Exec.map_slots exec (fun s -> s))

(* One velocity-Verlet step of a rigid water box with a Berendsen
   thermostat: the SHAKE/RATTLE cluster sweeps, the constraint
   velocity fold, and the end-of-step thermostat velocity rescale.
   (step.gse covers the same constraint phases, but never rescales —
   No_thermostat.) *)
let step_thermo ~exec () =
  let cfg =
    {
      E.default_config with
      E.dt_fs = 1.0;
      temperature = 300.;
      thermostat = E.Berendsen { tau_fs = 100. };
    }
  in
  let eng = W.make_engine ~config:cfg ~seed:3 ~exec (W.water_box ~n_side:2 ()) in
  fun () -> E.step eng

(* One BAOAB Langevin step of an unconstrained LJ fluid: the stochastic
   O-step sweep with its per-atom derived streams. Constraint-free on
   purpose — BAOAB runs RATTLE both before and after the O-step, so a
   constrained system would put rattle on both sides of the drift in one
   window and manufacture a by-name cycle no single sweep contains. *)
let step_langevin ~exec () =
  let cfg =
    {
      E.default_config with
      E.dt_fs = 2.0;
      temperature = 120.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = W.make_engine ~config:cfg ~seed:17 ~exec (W.lj_fluid ~n:64 ()) in
  fun () -> E.step eng

let windows =
  [
    ("step.gse", step_gse);
    ("step.chain14", step_chain14);
    ("oracle.forces", oracle_forces);
    ("step.thermo", step_thermo);
    ("step.langevin", step_langevin);
    ("rebuild.forces", rebuild_forces);
    ("soa.sync", soa_sync);
    ("decomp.frame", decomp_frame);
    ("service.slice", service_slice);
    ("collective", collective);
  ]

let make_exec ~slots =
  if slots < 1 then invalid_arg "Phase_check: slots must be >= 1"
  else if slots = 1 then Exec.create ~sanitize:true Exec.Serial
  else Exec.create ~sanitize:true (Exec.Domains { n = slots })

(* The phase names are read off the validated barriers, so the count
   [mdsp check] prints is what the sanitizer saw. *)
let run_phases ~slots =
  let exec = make_exec ~slots in
  let seen = Hashtbl.create 64 in
  Exec.set_observer exec
    (Some
       (fun br ->
         Option.iter (fun p -> Hashtbl.replace seen p ()) br.Exec.br_phase));
  Fun.protect
    ~finally:(fun () -> Exec.shutdown exec)
    (fun () ->
      List.iter
        (fun (_name, window) ->
          let body = window ~exec () in
          body ())
        windows);
  List.sort compare (Hashtbl.fold (fun p () l -> p :: l) seen [])
