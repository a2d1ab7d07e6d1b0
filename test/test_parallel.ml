(* The execution-backend layer: Serial vs Domains agreement on energies,
   forces, and virial; bit-level determinism of the static tiling + tree
   reduction; and the executor's phase clock. *)

open Mdsp_util
open Testsupport
module E = Mdsp_md.Engine
module FC = Mdsp_md.Force_calc

(* --- Exec primitives --- *)

let test_tile_bounds () =
  List.iter
    (fun (total, ntiles) ->
      let b = Exec.tile_bounds ~total ~ntiles in
      check_true "tile count" (Array.length b = ntiles);
      let covered = ref 0 in
      Array.iteri
        (fun k (lo, hi) ->
          check_true "monotone" (lo <= hi);
          if k > 0 then
            check_true "contiguous" (lo = snd b.(k - 1));
          covered := !covered + (hi - lo))
        b;
      check_true "covers all" (!covered = total);
      let sizes = Array.map (fun (lo, hi) -> hi - lo) b in
      let mn = Array.fold_left min max_int sizes in
      let mx = Array.fold_left max 0 sizes in
      check_true "balanced" (mx - mn <= 1))
    [ (0, 1); (0, 4); (1, 4); (7, 3); (100, 7); (156944, 4) ]

let test_sum_tree () =
  let a = Array.init 13 (fun i -> float_of_int (i + 1)) in
  check_float ~eps:1e-12 "tree sum" 91. (Exec.sum_tree a);
  check_true "single element" (Exec.sum_tree [| 2.5 |] = 2.5);
  (* The shape is pinned: neighbours first, (a + b) + c, where the halving
     tree of the force and grid reductions would give a + (b + c) = 1. *)
  check_true "pairs neighbours first"
    (Exec.sum_tree [| 1.; 1e17; -1e17 |] = 0.)

let test_parallel_run_covers_slots () =
  let pool = Exec.create (Exec.Domains { n = 4 }) in
  check_true "n_slots" (Exec.n_slots pool = 4);
  let hits = Array.make 4 0 in
  for _ = 1 to 5 do
    Exec.parallel_run pool (fun s -> hits.(s) <- hits.(s) + 1)
  done;
  Exec.shutdown pool;
  Array.iter (fun h -> check_true "each slot ran each job" (h = 5)) hits

let test_parallel_run_propagates_exceptions () =
  let pool = Exec.create (Exec.Domains { n = 3 }) in
  let raised =
    try
      Exec.parallel_run pool (fun s -> if s = 2 then failwith "slot boom");
      false
    with Failure _ -> true
  in
  (* The pool must survive a failed job. *)
  let hits = Array.make 3 false in
  Exec.parallel_run pool (fun s -> hits.(s) <- true);
  Exec.shutdown pool;
  check_true "worker exception re-raised on caller" raised;
  check_true "pool usable after failure" (Array.for_all Fun.id hits)

let test_phase_clock_charges () =
  (* Labelled barriers and timed regions charge their names; unlabelled
     barriers and the shared serial executor charge nothing. *)
  let busy () =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 2e-4 do
      ()
    done
  in
  List.iter
    (fun backend ->
      let exec = Exec.create backend in
      Exec.parallel_run exec (fun _ -> busy ());
      check_true "an unlabelled barrier is not charged"
        (Exec.phase_times exec = []);
      Exec.parallel_run ~phase:"b" exec (fun _ -> busy ());
      ignore (Exec.map_slots exec (fun s -> s));
      Exec.sweep ~phase:"a" exec ~total:8 (fun _ _ _ -> busy ());
      check_true "timed returns the region's value"
        (Exec.timed ~phase:"c" exec (fun () -> busy (); 42) = 42);
      let names = List.map fst (Exec.phase_times exec) in
      check_true "one sorted entry per charged name"
        (names = [ "a"; "b"; "c"; "exec.map_slots" ]);
      List.iter
        (fun (name, s) ->
          if name <> "exec.map_slots" then
            check_true (name ^ " charged its wall time") (s >= 2e-4))
        (Exec.phase_times exec);
      Exec.reset_phase_times exec;
      check_true "reset empties the clock" (Exec.phase_times exec = []);
      Exec.shutdown exec)
    [ Exec.Serial; Exec.Domains { n = 2 } ];
  Exec.parallel_run ~phase:"b" Exec.serial (fun _ -> busy ());
  ignore (Exec.timed ~phase:"c" Exec.serial busy);
  check_true "Exec.serial keeps no clock" (Exec.phase_times Exec.serial = [])

(* --- a solvated box exercising every force class ---

   Rigid water (SHAKE constraints), real-space Ewald pairs + reciprocal
   Ewald long-range, plus a registered bias: the workload from the
   integration suite, evaluated on both backends. *)

let solvated_fc ~exec () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:4 () in
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
  let ew = Mdsp_longrange.Ewald.create ~beta ~kmax:5 sys.box in
  let fc =
    FC.create ~exec sys.topo ~evaluator ~longrange:(FC.Lr_ewald ew) ~nlist
  in
  FC.add_bias fc
    (Mdsp_workload.Workloads.double_well_bias ~barrier:1.0 ~half_width:4.0);
  (sys, fc)

let compute_once ~exec () =
  let sys, fc = solvated_fc ~exec () in
  let n = Mdsp_ff.Topology.n_atoms sys.Mdsp_workload.Workloads.topo in
  let acc = Mdsp_ff.Bonded.make_accum n in
  let e =
    FC.compute fc sys.Mdsp_workload.Workloads.box
      sys.Mdsp_workload.Workloads.positions acc
  in
  (e, acc)

let rel_force_diff a b =
  let fmax = ref 1e-30 and dmax = ref 0. in
  Array.iteri
    (fun i f ->
      fmax := Float.max !fmax (Vec3.norm f);
      dmax := Float.max !dmax (Vec3.dist f b.(i)))
    a;
  !dmax /. !fmax

let test_serial_vs_domains_agree () =
  let e_s, acc_s = compute_once ~exec:Exec.serial () in
  let pool = Exec.create (Exec.Domains { n = 4 }) in
  let e_p, acc_p = compute_once ~exec:pool () in
  Exec.shutdown pool;
  let open FC in
  check_close ~rel:1e-10 "bond energy" e_s.bond e_p.bond;
  check_close ~rel:1e-10 "pair energy" e_s.pair e_p.pair;
  check_close ~rel:1e-10 "recip energy" e_s.recip e_p.recip;
  check_close ~rel:1e-10 "correction" e_s.correction e_p.correction;
  check_close ~rel:1e-10 "bias energy" e_s.bias e_p.bias;
  check_close ~rel:1e-10 "total energy" (total e_s) (total e_p);
  check_close ~rel:1e-10 "virial" acc_s.Mdsp_ff.Bonded.virial
    acc_p.Mdsp_ff.Bonded.virial;
  let rel =
    rel_force_diff acc_s.Mdsp_ff.Bonded.forces acc_p.Mdsp_ff.Bonded.forces
  in
  check_true
    (Printf.sprintf "forces agree (rel %.2e <= 1e-10)" rel)
    (rel <= 1e-10)

let test_bonded_workload_agrees () =
  (* A charged bead chain: bonds, angles, dihedrals, 1-4 pairs and
     reaction-field electrostatics through the parallel tiles. *)
  let sys = Mdsp_workload.Workloads.bead_chain ~n_beads:16 ~n_total:256 () in
  let compute exec =
    let eng =
      Mdsp_workload.Workloads.make_engine ~seed:5 ~exec sys
    in
    let acc = Mdsp_ff.Bonded.make_accum 256 in
    let e =
      FC.compute (E.force_calc eng) (E.state eng).Mdsp_md.State.box
        (E.state eng).Mdsp_md.State.positions acc
    in
    (e, acc)
  in
  let e_s, acc_s = compute Exec.serial in
  let pool = Exec.create (Exec.Domains { n = 3 }) in
  let e_p, acc_p = compute pool in
  Exec.shutdown pool;
  let open FC in
  check_close ~rel:1e-10 "bond" e_s.bond e_p.bond;
  check_close ~rel:1e-10 "angle" e_s.angle e_p.angle;
  check_close ~rel:1e-10 "dihedral" e_s.dihedral e_p.dihedral;
  check_close ~rel:1e-10 "pair (incl. 1-4)" e_s.pair e_p.pair;
  check_close ~rel:1e-10 "virial" acc_s.Mdsp_ff.Bonded.virial
    acc_p.Mdsp_ff.Bonded.virial;
  let rel =
    rel_force_diff acc_s.Mdsp_ff.Bonded.forces acc_p.Mdsp_ff.Bonded.forces
  in
  check_true
    (Printf.sprintf "forces agree (rel %.2e <= 1e-10)" rel)
    (rel <= 1e-10)

let test_respa_classes_agree () =
  let run exec cls =
    let sys, fc = solvated_fc ~exec () in
    let n = Mdsp_ff.Topology.n_atoms sys.Mdsp_workload.Workloads.topo in
    let acc = Mdsp_ff.Bonded.make_accum n in
    let e =
      FC.compute_class fc cls sys.Mdsp_workload.Workloads.box
        sys.Mdsp_workload.Workloads.positions acc
    in
    (e, acc)
  in
  let pool = Exec.create (Exec.Domains { n = 4 }) in
  List.iter
    (fun cls ->
      let e_s, acc_s = run Exec.serial cls in
      let e_p, acc_p = run pool cls in
      check_close ~rel:1e-10 "class energy" (FC.total e_s) (FC.total e_p);
      let rel =
        rel_force_diff acc_s.Mdsp_ff.Bonded.forces
          acc_p.Mdsp_ff.Bonded.forces
      in
      check_true "class forces" (rel <= 1e-10))
    [ `Fast; `Slow ];
  Exec.shutdown pool

(* --- determinism --- *)

let test_parallel_determinism_single_eval () =
  (* Two evaluations on two fresh pools of the same width must be
     bit-for-bit identical: static tiles + fixed-shape tree reduction. *)
  let run () =
    let pool = Exec.create (Exec.Domains { n = 4 }) in
    let r = compute_once ~exec:pool () in
    Exec.shutdown pool;
    r
  in
  let e1, acc1 = run () in
  let e2, acc2 = run () in
  check_true "energies bit-identical" (e1 = e2);
  check_true "virial bit-identical"
    (acc1.Mdsp_ff.Bonded.virial = acc2.Mdsp_ff.Bonded.virial);
  let identical = ref true in
  Array.iteri
    (fun i f -> if f <> acc2.Mdsp_ff.Bonded.forces.(i) then identical := false)
    acc1.Mdsp_ff.Bonded.forces;
  check_true "forces bit-identical" !identical

let test_parallel_determinism_trajectory () =
  (* A full dynamical run (thermostat, constraints, rebuilds) repeated on a
     parallel backend stays bit-identical. *)
  let run () =
    let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
    let pool = Exec.create (Exec.Domains { n = 4 }) in
    let cfg =
      {
        E.default_config with
        dt_fs = 1.0;
        temperature = 300.;
        thermostat = E.Langevin { gamma_fs = 0.02 };
      }
    in
    let eng = Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:7 ~exec:pool sys in
    E.run eng 25;
    let st = E.state eng in
    let pos = Array.copy st.Mdsp_md.State.positions in
    Exec.shutdown pool;
    (pos, E.total_energy eng)
  in
  let pos1, e1 = run () in
  let pos2, e2 = run () in
  check_true "trajectory energy bit-identical" (e1 = e2);
  let identical = ref true in
  Array.iteri (fun i p -> if p <> pos2.(i) then identical := false) pos1;
  check_true "trajectory positions bit-identical" !identical

(* Slot-invariant trajectories. A zero pair evaluator and a tether bias
   evaluated on the calling domain make the forces independent of the slot
   count: the pool's per-slot pair partials are exact zeros, and there are
   no bonded terms to tree-reduce. What is left to differ between the
   serial executor and a pool is the step's own sweeps — kick, drift, the
   SHAKE/RATTLE batches, the constraint fold, the Langevin O-step, the
   velocity rescales and the SoA syncs — so positions, velocities and the
   total energy must match the serial run bit for bit. *)
let tether_bias x0 =
  {
    FC.bias_name = "tether";
    bias_compute =
      (fun _box positions acc ->
        let forces = acc.Mdsp_ff.Bonded.forces in
        let e = ref 0. in
        Array.iteri
          (fun i p ->
            let d = Vec3.sub p x0.(i) in
            e := !e +. (0.5 *. Vec3.norm2 d);
            forces.(i) <- Vec3.sub forces.(i) d)
          positions;
        !e);
  }

let slot_invariant_run sys ~thermostat ~dt_fs ~temperature ~seed ~steps exec =
  let cfg = { E.default_config with dt_fs; temperature; thermostat } in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg ~seed ~exec sys in
  let fc = E.force_calc eng in
  let cutoff = (FC.evaluator fc).Mdsp_ff.Pair_interactions.cutoff in
  FC.set_evaluator fc
    (Mdsp_ff.Pair_interactions.of_eval ~cutoff (fun _ _ _ -> (0., 0.)));
  FC.add_bias fc
    (tether_bias (Array.copy sys.Mdsp_workload.Workloads.positions));
  E.refresh_forces eng;
  E.run eng steps;
  let st = E.state eng in
  ( Array.copy st.Mdsp_md.State.positions,
    Array.copy st.Mdsp_md.State.velocities,
    E.total_energy eng )

let bits_equal a b =
  let same x y = Int64.bits_of_float x = Int64.bits_of_float y in
  Array.length a = Array.length b
  && Array.for_all2
       (fun (p : Vec3.t) (q : Vec3.t) ->
         same p.Vec3.x q.Vec3.x && same p.Vec3.y q.Vec3.y
         && same p.Vec3.z q.Vec3.z)
       a b

let check_slot_invariant label run =
  let pos0, vel0, e0 = run Exec.serial in
  List.iter
    (fun n ->
      let exec = Exec.create (Exec.Domains { n }) in
      let pos, vel, e =
        Fun.protect ~finally:(fun () -> Exec.shutdown exec) (fun () ->
            run exec)
      in
      let what q = Printf.sprintf "%s: %s bitwise at %d slots" label q n in
      check_true (what "positions") (bits_equal pos pos0);
      check_true (what "velocities") (bits_equal vel vel0);
      check_true (what "total energy")
        (Int64.bits_of_float e = Int64.bits_of_float e0))
    [ 2; 4 ]

let water27 = lazy (Mdsp_workload.Workloads.water_box ~n_side:3 ())

let test_water27_langevin_slot_invariant () =
  check_slot_invariant "water27 Langevin"
    (slot_invariant_run (Lazy.force water27)
       ~thermostat:(E.Langevin { gamma_fs = 0.02 })
       ~dt_fs:1.0 ~temperature:300. ~seed:11 ~steps:20)

let test_water27_rescale_slot_invariant () =
  (* Both rescaling thermostats drive the [thermo.scale] sweep. *)
  List.iter
    (fun (label, thermostat) ->
      check_slot_invariant label
        (slot_invariant_run (Lazy.force water27) ~thermostat ~dt_fs:1.0
           ~temperature:300. ~seed:11 ~steps:20))
    [
      ("water27 Berendsen", E.Berendsen { tau_fs = 100. });
      ("water27 Nose-Hoover", E.Nose_hoover { tau_fs = 100. });
    ]

let test_water6k_slot_invariant () =
  (* The registry workload the schedule gate certifies: 2197 rigid waters
     in one batch, Berendsen rescale at the end of the step. Two steps
     suffice — a cross-slot disagreement in the very first SHAKE batch is
     already a bitwise diff. *)
  check_slot_invariant "water6k Berendsen"
    (slot_invariant_run
       (Mdsp_workload.Workloads.water_box ~n_side:13 ())
       ~thermostat:(E.Berendsen { tau_fs = 100. })
       ~dt_fs:1.0 ~temperature:300. ~seed:3 ~steps:2)

let test_lj4000_langevin_slot_invariant () =
  (* No constraints at all, so only the integrator, O-step and SoA sweeps
     run — over 4000 atoms, enough to cut real tiles at 4 slots. *)
  check_slot_invariant "lj4000 Langevin"
    (slot_invariant_run
       (Mdsp_workload.Workloads.lj_fluid ~n:4000 ())
       ~thermostat:(E.Langevin { gamma_fs = 0.02 })
       ~dt_fs:2.0 ~temperature:120. ~seed:21 ~steps:3)

let test_engine_backends_consistent () =
  (* Short run: backends may differ only by rounding, which cannot grow far
     in a few steps. *)
  let run exec =
    let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
    let eng = Mdsp_workload.Workloads.make_engine ~seed:9 ~exec sys in
    E.run eng 5;
    E.total_energy eng
  in
  let e_s = run Exec.serial in
  let pool = Exec.create (Exec.Domains { n = 2 }) in
  let e_p = run pool in
  Exec.shutdown pool;
  check_close ~rel:1e-6 "5-step total energy" e_s e_p

(* --- the GSE grid pipeline on the pool ---

   Charged solvated water with grid electrostatics: real-space Ewald pairs
   plus the GSE reciprocal solver, every stage of which (spread / fft /
   convolve / gather) is tiled over the Exec pool. *)

let gse_grid = (16, 16, 16)

let gse_engine ~exec () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 1.0;
      temperature = 300.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:13 ~exec ~gse_grid
    sys

let gse_compute_once ~exec () =
  let eng = gse_engine ~exec () in
  let fc = E.force_calc eng in
  (match FC.longrange_kind fc with
  | `Gse g -> check_true "GSE solver installed" (g = gse_grid)
  | _ -> Alcotest.fail "expected a GSE long-range solver");
  let st = E.state eng in
  let acc = Mdsp_ff.Bonded.make_accum (Mdsp_md.State.n st) in
  let e = FC.compute fc st.Mdsp_md.State.box st.Mdsp_md.State.positions acc in
  (e, acc)

let test_gse_serial_vs_domains_agree () =
  let e_s, acc_s = gse_compute_once ~exec:Exec.serial () in
  let pool = Exec.create (Exec.Domains { n = 4 }) in
  let e_p, acc_p = gse_compute_once ~exec:pool () in
  Exec.shutdown pool;
  let open FC in
  check_close ~rel:1e-10 "pair energy" e_s.pair e_p.pair;
  check_close ~rel:1e-10 "GSE recip energy" e_s.recip e_p.recip;
  check_close ~rel:1e-10 "correction" e_s.correction e_p.correction;
  check_close ~rel:1e-10 "total energy" (total e_s) (total e_p);
  check_close ~rel:1e-10 "virial" acc_s.Mdsp_ff.Bonded.virial
    acc_p.Mdsp_ff.Bonded.virial;
  let rel =
    rel_force_diff acc_s.Mdsp_ff.Bonded.forces acc_p.Mdsp_ff.Bonded.forces
  in
  check_true
    (Printf.sprintf "forces agree (rel %.2e <= 1e-10)" rel)
    (rel <= 1e-10)

let test_gse_reciprocal_backends () =
  (* The grid phase in isolation: Gse.reciprocal on the serial backend vs
     a pool, and two fresh pools against each other (bitwise). *)
  let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  let open Mdsp_workload.Workloads in
  let n = Mdsp_ff.Topology.n_atoms sys.topo in
  let charges = Mdsp_ff.Topology.charges sys.topo in
  let run exec =
    let gse = Mdsp_longrange.Gse.create ~beta:0.4 ~grid:gse_grid sys.box in
    let acc = Mdsp_ff.Bonded.make_accum n in
    let ph = Mdsp_longrange.Gse.zero_phases () in
    let e =
      Mdsp_longrange.Gse.reciprocal ~exec ~phases:ph gse charges
        sys.positions acc
    in
    (e, acc, ph)
  in
  let e_s, acc_s, _ = run Exec.serial in
  let with_pool () =
    let pool = Exec.create (Exec.Domains { n = 4 }) in
    let r = run pool in
    Exec.shutdown pool;
    r
  in
  let e_p, acc_p, ph_p = with_pool () in
  check_close ~rel:1e-10 "reciprocal energy" e_s e_p;
  check_close ~rel:1e-10 "reciprocal virial" acc_s.Mdsp_ff.Bonded.virial
    acc_p.Mdsp_ff.Bonded.virial;
  let rel =
    rel_force_diff acc_s.Mdsp_ff.Bonded.forces acc_p.Mdsp_ff.Bonded.forces
  in
  check_true "reciprocal forces (rel <= 1e-10)" (rel <= 1e-10);
  check_true "phases were timed"
    (Mdsp_longrange.Gse.phases_total ph_p > 0.);
  let e_p2, acc_p2, _ = with_pool () in
  check_true "grid-phase energy bit-identical" (e_p = e_p2);
  check_true "grid-phase virial bit-identical"
    (acc_p.Mdsp_ff.Bonded.virial = acc_p2.Mdsp_ff.Bonded.virial);
  let identical = ref true in
  Array.iteri
    (fun i f ->
      if f <> acc_p2.Mdsp_ff.Bonded.forces.(i) then identical := false)
    acc_p.Mdsp_ff.Bonded.forces;
  check_true "grid-phase forces bit-identical" !identical

let test_gse_trajectory_determinism () =
  (* A short dynamical GSE run (spread/fft/convolve/gather every step plus
     rebuilds and the thermostat) repeated on fresh pools stays
     bit-identical. *)
  let run () =
    let pool = Exec.create (Exec.Domains { n = 4 }) in
    let eng = gse_engine ~exec:pool () in
    E.run eng 10;
    let pos = Array.copy (E.state eng).Mdsp_md.State.positions in
    Exec.shutdown pool;
    (pos, E.total_energy eng)
  in
  let pos1, e1 = run () in
  let pos2, e2 = run () in
  check_true "GSE trajectory energy bit-identical" (e1 = e2);
  let identical = ref true in
  Array.iteri (fun i p -> if p <> pos2.(i) then identical := false) pos1;
  check_true "GSE trajectory positions bit-identical" !identical

(* --- one force path: the flat store against the boxed oracle ---

   Force_calc runs every force phase on the flat (SoA) store. The boxed
   kernels (Bonded, Pair_interactions) stay as its oracle: the flat loops
   mirror them expression for expression, so energies, every force
   component and the virial must agree *bitwise* — on every seed workload,
   for every kind of evaluator, serially and on a pool. *)

module PI = Mdsp_ff.Pair_interactions

let soa_systems () =
  [
    ("lj fluid", Mdsp_workload.Workloads.lj_fluid ~n:256 ());
    ("water box", Mdsp_workload.Workloads.water_box ~n_side:3 ());
    ( "bead chain",
      Mdsp_workload.Workloads.bead_chain ~n_beads:16 ~n_total:256 () );
  ]

(* The stock bead chain fully excludes its 1-4 pairs, and its walk is
   biased to extend, leaving them beyond any cutoff used here. AMBER-style
   scaling makes the 1-4 phase run, and folding the chain to half size
   about its first bead (beads come first in the position array) brings
   its 1-4 pairs inside the cutoff. *)
let scaled14_chain () =
  let n_beads = 16 in
  let sys = Mdsp_workload.Workloads.bead_chain ~n_beads ~n_total:256 () in
  let x = sys.Mdsp_workload.Workloads.positions in
  {
    Mdsp_workload.Workloads.topo =
      {
        sys.Mdsp_workload.Workloads.topo with
        Mdsp_ff.Topology.scale14_lj = 0.5;
        scale14_coul = 1. /. 1.2;
      };
    positions =
      Array.mapi
        (fun i p ->
          if i < n_beads then Vec3.add x.(0) (Vec3.scale 0.5 (Vec3.sub p x.(0)))
          else p)
        x;
    box = sys.Mdsp_workload.Workloads.box;
    label = sys.Mdsp_workload.Workloads.label;
  }

(* The stock chain charges every fourth bead, so no 1-4 pair (i, i + 3) is
   charged at both ends and the scaled 1-4 Coulomb term is always zero.
   Charging each of the 16 beads (they come first), alternately +0.4 and
   -0.4, keeps the system neutral and makes it run; charges that are not
   powers of two let a change of association in qq show in the bits. *)
let charged14_chain () =
  let sys = scaled14_chain () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  {
    sys with
    Mdsp_workload.Workloads.topo =
      {
        topo with
        Mdsp_ff.Topology.atoms =
          Array.mapi
            (fun i (a : Mdsp_ff.Topology.atom) ->
              if i < 16 then
                { a with charge = (if i mod 2 = 0 then 0.4 else -0.4) }
              else a)
            topo.Mdsp_ff.Topology.atoms;
      };
  }

(* The GSE handle [make_engine ~gse_grid] installs: beta = 3 / cutoff. *)
let oracle_gse fc grid box =
  let cutoff = (FC.evaluator fc).PI.cutoff in
  Mdsp_longrange.Gse.create ~beta:(3.0 /. cutoff) ~grid box

(* The boxed kernels in the order Force_calc runs the flat phases, on the
   calculator's executor, evaluator and neighbor list: bonded, 1-4 at the
   evaluator's cutoff, pairs — then the long-range terms the calculator
   adds into the accumulator after its flush. [cls] restricts to a RESPA
   class the way [compute_class] does. *)
let oracle ?gse ?(cls = `All) fc box positions =
  let exec = FC.exec fc and topo = FC.topology fc and ev = FC.evaluator fc in
  let acc = Mdsp_ff.Bonded.make_accum (Array.length positions) in
  let fast = cls <> `Slow and slow = cls <> `Fast in
  let bond, angle, dihedral =
    if fast then Mdsp_ff.Bonded.all ~exec box topo positions acc
    else (0., 0., 0.)
  in
  let pair14 =
    if fast then
      PI.compute_pairs14 ~exec topo ~cutoff:ev.PI.cutoff box positions acc
    else 0.
  in
  let pair =
    if slow then pair14 +. PI.compute ~exec ev box (FC.nlist fc) positions acc
    else pair14
  in
  let recip, correction =
    match gse with
    | Some gse when slow ->
        let q = Mdsp_ff.Topology.charges topo in
        let recip = Mdsp_longrange.Gse.reciprocal ~exec gse q positions acc in
        let beta = Mdsp_longrange.Gse.beta gse in
        ( recip,
          Mdsp_longrange.Ewald.self_energy ~beta q
          +. Mdsp_longrange.Ewald.excluded_correction ~beta box q positions
               topo.Mdsp_ff.Topology.exclusions acc )
    | _ -> (0., 0.)
  in
  ( { FC.zero_energies with bond; angle; dihedral; pair; recip; correction },
    acc )

let check_bitwise name (e_a, acc_a) (e_b, acc_b) =
  check_true (name ^ ": energies bit-identical") (e_a = e_b);
  check_true
    (name ^ ": virial bit-identical")
    (acc_a.Mdsp_ff.Bonded.virial = acc_b.Mdsp_ff.Bonded.virial);
  let identical = ref true in
  Array.iteri
    (fun i f ->
      if f <> acc_b.Mdsp_ff.Bonded.forces.(i) then identical := false)
    acc_a.Mdsp_ff.Bonded.forces;
  check_true (name ^ ": forces bit-identical") !identical

(* One flat evaluation of [fc] at the engine's state, and the oracle's on
   the list that evaluation used. *)
let flat_and_oracle ?gse ?(cls = `All) eng =
  let fc = E.force_calc eng in
  let st = E.state eng in
  let box = st.Mdsp_md.State.box and x = st.Mdsp_md.State.positions in
  let acc = Mdsp_ff.Bonded.make_accum (Mdsp_md.State.n st) in
  let e =
    match cls with
    | `All -> FC.compute fc box x acc
    | (`Fast | `Slow) as c -> FC.compute_class fc c box x acc
  in
  ((e, acc), oracle ?gse ~cls fc box x)

let compute_sys ?gse_grid ~exec sys =
  let eng =
    Mdsp_workload.Workloads.make_engine ?gse_grid ~seed:5 ~exec sys
  in
  let gse =
    Option.map
      (fun grid ->
        oracle_gse (E.force_calc eng) grid sys.Mdsp_workload.Workloads.box)
      gse_grid
  in
  flat_and_oracle ?gse eng

let check_flat_vs_oracle ?gse_grid ~exec name sys =
  let flat, boxed = compute_sys ?gse_grid ~exec sys in
  check_bitwise name flat boxed

let test_soa_matches_boxed_serial () =
  List.iter
    (fun (name, sys) -> check_flat_vs_oracle ~exec:Exec.serial name sys)
    (soa_systems ())

let test_soa_matches_boxed_domains () =
  (* The flat parallel phases mirror the boxed tile decomposition and
     reduction tree shape, so agreement holds bitwise on a pool too. *)
  let pool = Exec.create (Exec.Domains { n = 3 }) in
  List.iter
    (fun (name, sys) -> check_flat_vs_oracle ~exec:pool name sys)
    (soa_systems ());
  Exec.shutdown pool

let test_soa_matches_boxed_gse () =
  (* Ewald real-space pairs + GSE reciprocal: the flat pair kernel covers
     the erfc path; the grid phase adds into the same accumulator. *)
  let sys () = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  check_flat_vs_oracle ~gse_grid:(16, 16, 16) ~exec:Exec.serial
    "gse water (serial)" (sys ());
  let pool = Exec.create (Exec.Domains { n = 4 }) in
  check_flat_vs_oracle ~gse_grid:(16, 16, 16) ~exec:pool "gse water (domains)"
    (sys ());
  Exec.shutdown pool

let test_soa_respa_classes_match () =
  let sys = scaled14_chain () in
  List.iter
    (fun (name, cls) ->
      let eng =
        Mdsp_workload.Workloads.make_engine ~seed:5 ~exec:Exec.serial sys
      in
      let flat, boxed = flat_and_oracle ~cls eng in
      check_bitwise name flat boxed)
    [ ("fast class", `Fast); ("slow class", `Slow) ]

(* A RESPA step reports the sum of its classes: after two steps, the
   engine's energies equal a full evaluation at its state bit for bit,
   the fast class's 1-4 energy included. *)
let test_respa_energies_match_compute () =
  let config = { E.default_config with respa_inner = Some 2 } in
  let eng =
    Mdsp_workload.Workloads.make_engine ~config ~seed:5 ~exec:Exec.serial
      (scaled14_chain ())
  in
  E.step eng;
  E.step eng;
  let st = E.state eng in
  let acc = Mdsp_ff.Bonded.make_accum (Mdsp_md.State.n st) in
  let e =
    FC.compute (E.force_calc eng) st.Mdsp_md.State.box
      st.Mdsp_md.State.positions acc
  in
  check_true
    (Printf.sprintf "RESPA pair energy %.6f = compute's %.6f"
       (E.energies eng).FC.pair e.FC.pair)
    (E.energies eng = e)

let respa_engine ?(thermostat = E.No_thermostat) ?cutoff ~inner sys =
  let config = { E.default_config with thermostat; respa_inner = inner } in
  Mdsp_workload.Workloads.make_engine ~config ?cutoff ~seed:5
    ~exec:Exec.serial sys

let respa_chain () =
  Mdsp_workload.Workloads.bead_chain ~n_beads:16 ~n_total:256 ()

(* Positions, velocities and energies as bit patterns, so a -0. against a
   +0. differs too. *)
let trajectory_bits eng =
  let bits x = Int64.bits_of_float x in
  let vec_bits (v : Vec3.t) = (bits v.Vec3.x, bits v.Vec3.y, bits v.Vec3.z) in
  let st = E.state eng in
  ( Array.map vec_bits st.Mdsp_md.State.positions,
    Array.map vec_bits st.Mdsp_md.State.velocities,
    bits (E.potential_energy eng) )

(* A RESPA step evaluates the fast class once per position set it visits:
   at its start and after each of its k drifts. A bias (a fast term)
   counts the evaluations of the second step. *)
let test_respa_fast_evaluations () =
  List.iter
    (fun k ->
      let eng = respa_engine ~inner:(Some k) (respa_chain ()) in
      let calls = ref 0 in
      FC.add_bias (E.force_calc eng)
        {
          FC.bias_name = "count";
          bias_compute =
            (fun _ _ _ ->
              incr calls;
              0.);
        };
      E.step eng;
      calls := 0;
      E.step eng;
      check_true
        (Printf.sprintf "k = %d: %d fast evaluations per step, want %d" k
           !calls (k + 1))
        (!calls = k + 1))
    [ 2; 4 ]

(* With no list pair in range the slow class is exactly zero, so RESPA with
   one inner step is velocity Verlet bit for bit: its outer kicks add
   nothing, its one inner step is the Verlet step, and the Nosé–Hoover
   half-steps bracket both. The chain alone, uncharged, at a cutoff below
   every pair distance. *)
let test_respa_one_inner_is_verlet () =
  let sys () =
    Mdsp_workload.Workloads.bead_chain ~charged:false ~n_beads:16 ~n_total:16
      ()
  in
  let cutoff = 0.5 in
  let probe = respa_engine ~cutoff ~inner:(Some 1) (sys ()) in
  let st = E.state probe in
  let acc = Mdsp_ff.Bonded.make_accum (Mdsp_md.State.n st) in
  ignore
    (FC.compute_class (E.force_calc probe) `Slow st.Mdsp_md.State.box
       st.Mdsp_md.State.positions acc);
  check_true "the slow class is exactly zero"
    (Array.for_all (fun f -> f = Vec3.zero) acc.Mdsp_ff.Bonded.forces);
  List.iter
    (fun (label, thermostat) ->
      let run inner =
        let eng = respa_engine ~thermostat ~cutoff ~inner (sys ()) in
        E.run eng 10;
        trajectory_bits eng
      in
      check_true
        (label ^ ": RESPA k = 1 equals velocity Verlet bitwise after 10 steps")
        (run (Some 1) = run None))
    [
      ("no thermostat", E.No_thermostat);
      ("Nosé–Hoover", E.Nose_hoover { tau_fs = 100. });
    ]

(* After RESPA steps the pressure reads the virial of both classes: a full
   evaluation's at the same state, to rounding. *)
let test_respa_pressure_full_virial () =
  let eng = respa_engine ~inner:(Some 2) (respa_chain ()) in
  E.run eng 3;
  let st = E.state eng in
  let box = st.Mdsp_md.State.box in
  let acc = Mdsp_ff.Bonded.make_accum (Mdsp_md.State.n st) in
  ignore (FC.compute (E.force_calc eng) box st.Mdsp_md.State.positions acc);
  let full =
    Units.pressure_to_atm
      (((2. *. E.kinetic_energy eng) +. acc.Mdsp_ff.Bonded.virial)
      /. (3. *. Pbc.volume box))
  in
  let p = E.pressure_atm eng in
  let rel = abs_float (p -. full) /. abs_float full in
  check_true
    (Printf.sprintf "pressure %.4f atm = full-virial %.4f atm (rel %.1e)" p
       full rel)
    (rel <= 1e-12)

(* A restored engine holds the snapshot's forces unsplit; its first RESPA
   step evaluates the slow class again, at the snapshot's positions and
   list, and continues the uninterrupted run bit for bit. *)
let test_respa_restore_exact () =
  let make () =
    respa_engine ~thermostat:(E.Langevin { gamma_fs = 0.02 }) ~inner:(Some 2)
      (respa_chain ())
  in
  let straight = make () in
  E.run straight 7;
  let first = make () in
  E.run first 3;
  let resumed = make () in
  E.restore resumed (E.snapshot first);
  E.run resumed 4;
  check_true "3 + 4 resumed RESPA steps equal 7 straight ones bitwise"
    (trajectory_bits resumed = trajectory_bits straight)

(* A snapshot after RESPA steps holds both classes: restored, the engine
   reads the live engine's pressure, not the slow class's. *)
let test_respa_restore_pressure () =
  let live = respa_engine ~inner:(Some 2) (respa_chain ()) in
  E.run live 3;
  let resumed = respa_engine ~inner:(Some 2) (respa_chain ()) in
  E.restore resumed (E.snapshot live);
  let p = E.pressure_atm live and p' = E.pressure_atm resumed in
  check_true
    (Printf.sprintf "restored pressure %.4f atm = live %.4f atm" p' p)
    (Int64.bits_of_float p' = Int64.bits_of_float p)

(* Minimizing after RESPA steps moves along every class: one step equals
   one on an engine whose forces were refreshed first. *)
let test_respa_minimize_full_forces () =
  let run refresh =
    let eng = respa_engine ~inner:(Some 2) (respa_chain ()) in
    E.run eng 3;
    if refresh then E.refresh_forces eng;
    E.minimize eng ~steps:1;
    trajectory_bits eng
  in
  check_true "one minimize step after RESPA = one after refresh_forces"
    (run false = run true)

let test_soa_trajectory_matches_boxed () =
  (* A trajectory is a function of the forces at the configurations it
     visits, so flat forces equal to the oracle's at every visited
     configuration make it the oracle's trajectory, bit for bit: same seed,
     same thermostat noise stream, 25 steps with rebuilds, constraints and
     virtual sites. Checked at creation and after every step. *)
  let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 1.0;
      temperature = 300.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:7 sys in
  let vsites = Mdsp_md.Virtual_sites.create sys.Mdsp_workload.Workloads.topo in
  let mismatches = ref [] in
  let check eng =
    let st = E.state eng in
    let e, acc =
      oracle (E.force_calc eng) st.Mdsp_md.State.box st.Mdsp_md.State.positions
    in
    Mdsp_md.Virtual_sites.spread_forces vsites acc;
    let snap = E.snapshot eng in
    if
      not
        (E.energies eng = e
        && snap.E.snap_virial = acc.Mdsp_ff.Bonded.virial
        && snap.E.snap_forces = acc.Mdsp_ff.Bonded.forces)
    then mismatches := E.steps_done eng :: !mismatches
  in
  check eng;
  E.add_post_step eng ~name:"oracle" check;
  E.run eng 25;
  check_true "25 steps taken" (E.steps_done eng = 25);
  check_true
    (Printf.sprintf "flat forces equal the oracle's at every step (mismatch \
                     at steps [%s])"
       (String.concat "; " (List.rev_map string_of_int !mismatches)))
    (!mismatches = [])

let test_soa_parallel_determinism () =
  let run () =
    let pool = Exec.create (Exec.Domains { n = 4 }) in
    let r, _ =
      compute_sys ~exec:pool (Mdsp_workload.Workloads.water_box ~n_side:3 ())
    in
    Exec.shutdown pool;
    r
  in
  check_bitwise "fresh pools" (run ()) (run ())

let test_soa_pair_loop_zero_alloc () =
  (* The analytic flat 1-4 and pair loops allocate nothing once warm, for
     every electrostatics kind: Gc.minor_words around the kernels
     themselves, on a warm store over a real pair list. *)
  let module K = Mdsp_md.Soa_kernels in
  let words (sys : Mdsp_workload.Workloads.system) elec =
    let topo = sys.Mdsp_workload.Workloads.topo in
    let box = sys.Mdsp_workload.Workloads.box in
    let x = sys.Mdsp_workload.Workloads.positions in
    let cutoff = 0.45 *. Pbc.min_edge box in
    let ev =
      PI.of_topology topo ~cutoff ~trunc:Mdsp_ff.Nonbonded.Shift ~elec
    in
    let nl =
      Mdsp_space.Neighbor_list.create
        ~exclusions:topo.Mdsp_ff.Topology.exclusions ~cutoff ~skin:0.5 box x
    in
    let is, js = Mdsp_space.Neighbor_list.raw_pairs nl in
    let npairs = Mdsp_space.Neighbor_list.length nl in
    let kernel = K.pair_kernel topo ev in
    let p14 = K.kernel_pairs14 kernel in
    let store = Mdsp_md.Soa.create ~box (Array.length x) in
    Mdsp_md.Soa.sync_load store x;
    let sc = K.make_scratch () in
    let pass () =
      K.pairs14_range p14 box store 0 (K.pairs14_count p14) sc;
      K.kernel_range kernel box store ~is ~js 0 npairs sc
    in
    pass ();
    let w0 = Gc.minor_words () in
    pass ();
    pass ();
    let w1 = Gc.minor_words () in
    check_true "the list has pairs" (npairs > 0);
    w1 -. w0
  in
  let water = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  let chain = scaled14_chain () in
  List.iter
    (fun (label, sys, elec) ->
      let w = words sys elec in
      check_true
        (Printf.sprintf "%s: 1-4 + pair loops allocate zero minor words \
                         (got %.0f)"
           label w)
        (w = 0.))
    [
      ("water, no Coulomb", water, PI.No_coulomb);
      ("water, cutoff Coulomb", water, PI.Cutoff_coulomb);
      ("water, reaction field", water, PI.Reaction_field { epsilon_rf = 78. });
      ("water, Ewald real space", water, PI.Ewald_real { beta = 0.35 });
      ("charged 1-4 chain, Ewald real space", chain,
        PI.Ewald_real { beta = 0.35 });
      ("chain with charged 1-4 pairs, reaction field", charged14_chain (),
        PI.Reaction_field { epsilon_rf = 78. });
    ]

let test_rebuild_allocation () =
  (* A repeat rebuild reuses the cell list, the coordinate columns and the
     pair buffers: fewer minor words than atoms (what is left is the
     closures and tile bookkeeping of the two sweeps). The skin check on
     unmoved positions scans every atom and allocates nothing. *)
  let module Nl = Mdsp_space.Neighbor_list in
  List.iter
    (fun (label, (sys : Mdsp_workload.Workloads.system)) ->
      let box = sys.Mdsp_workload.Workloads.box in
      let x = sys.Mdsp_workload.Workloads.positions in
      let n = Array.length x in
      let nl =
        Nl.create
          ~exclusions:sys.Mdsp_workload.Workloads.topo.Mdsp_ff.Topology.exclusions
          ~cutoff:(0.45 *. Pbc.min_edge box) ~skin:1. box x
      in
      ignore (Nl.rebuild nl x);
      let w0 = Gc.minor_words () in
      ignore (Nl.rebuild nl x);
      let w1 = Gc.minor_words () in
      check_true "the list has pairs" (Nl.length nl > 0);
      check_true
        (Printf.sprintf "%s: a repeat rebuild allocates %.0f minor words, \
                         fewer than the %d atoms"
           label (w1 -. w0) n)
        (w1 -. w0 < float_of_int n);
      let w0 = Gc.minor_words () in
      let stale = Nl.needs_rebuild nl x in
      let w1 = Gc.minor_words () in
      check_true (label ^ ": unmoved positions need no rebuild") (not stale);
      check_true
        (Printf.sprintf "%s: the skin check allocates nothing (got %.0f)"
           label (w1 -. w0))
        (w1 -. w0 = 0.))
    [
      ("water n_side 5", Mdsp_workload.Workloads.water_box ~n_side:5 ());
      ("scaled 1-4 chain", scaled14_chain ());
    ]

let test_soa_phases_race_free () =
  (* The flat parallel phases under the write-set sanitizer at 2 and 4
     slots: pair tiles, 1-4 pairs, the four bonded terms, the per-atom
     reduction, plus the cell-list bin and pair-list build phases. *)
  List.iter
    (fun slots ->
      let exec = Exec.create ~sanitize:true (Exec.Domains { n = slots }) in
      Fun.protect
        ~finally:(fun () -> Exec.shutdown exec)
        (fun () ->
          ignore (compute_sys ~exec (scaled14_chain ()));
          ignore
            (compute_sys ~gse_grid:(16, 16, 16) ~exec
               (Mdsp_workload.Workloads.water_box ~n_side:3 ()))))
    [ 2; 4 ]

(* A sanitizing executor only watches: at one slot it runs the same
   bodies on the same accumulators as a plain one, so the forces it
   certifies and the trajectory it integrates carry the production bits —
   compared as bit patterns, so a -0. against a +0. fails too. *)
let test_sanitized_one_slot_is_production () =
  let bits x = Int64.bits_of_float x in
  let vec_bits (v : Vec3.t) = (bits v.Vec3.x, bits v.Vec3.y, bits v.Vec3.z) in
  let energy_bits (e : FC.energies) =
    List.map bits
      [ e.FC.bond; e.angle; e.dihedral; e.pair; e.recip; e.correction; e.bias ]
  in
  let systems =
    [
      ( "scaled 1-4 chain",
        fun exec ->
          Mdsp_workload.Workloads.make_engine ~seed:5 ~exec (scaled14_chain ())
      );
      ( "bead chain",
        fun exec ->
          Mdsp_workload.Workloads.make_engine ~seed:5 ~exec
            (Mdsp_workload.Workloads.bead_chain ~n_beads:16 ~n_total:256 ()) );
      ("gse water", fun exec -> gse_engine ~exec ());
    ]
  in
  List.iter
    (fun (label, make) ->
      let run sanitize =
        let exec = Exec.create ~sanitize Exec.Serial in
        let eng = make exec in
        let snap = E.snapshot eng in
        let created =
          ( energy_bits (E.energies eng),
            bits snap.E.snap_virial,
            Array.map vec_bits snap.E.snap_forces )
        in
        E.run eng 5;
        (created, Array.map vec_bits (E.state eng).Mdsp_md.State.positions)
      in
      let (e_p, w_p, f_p), x_p = run false in
      let (e_s, w_s, f_s), x_s = run true in
      check_true (label ^ ": energies bit-identical at creation") (e_p = e_s);
      check_true (label ^ ": virial bit-identical at creation") (w_p = w_s);
      check_true (label ^ ": forces bit-identical at creation") (f_p = f_s);
      check_true (label ^ ": positions bit-identical after 5 steps") (x_p = x_s))
    systems

(* --- the generality layer on the flat path ---

   Table, FEP-lambda, Switch and custom evaluators run the generic flat
   loop, which calls [eval] per pair; it must match the boxed oracle
   bitwise like the specialised loops do, at 1 slot and on a 3-slot pool.
   [install] swaps the evaluator on an engine built by make_engine. *)

let on_widths widths f =
  List.iter
    (fun n ->
      if n = 1 then f ~exec:Exec.serial "1 slot"
      else begin
        let pool = Exec.create (Exec.Domains { n }) in
        Fun.protect ~finally:(fun () -> Exec.shutdown pool) (fun () ->
            f ~exec:pool (Printf.sprintf "%d slots" n))
      end)
    widths

let on_slots f = on_widths [ 1; 3 ] f

let check_installed ?(classes = [ `All ]) ~exec label sys install =
  let eng = Mdsp_workload.Workloads.make_engine ~seed:5 ~exec sys in
  let fc = E.force_calc eng in
  FC.set_evaluator fc (install sys (FC.evaluator fc));
  List.iter
    (fun cls ->
      let name =
        match cls with
        | `All -> label
        | `Fast -> label ^ " (fast class)"
        | `Slow -> label ^ " (slow class)"
      in
      let flat, boxed = flat_and_oracle ~cls eng in
      check_bitwise name flat boxed)
    classes

(* The electrostatics make_engine's analytic evaluator recorded. *)
let recorded_elec ev =
  match ev.PI.analytic with
  | Some a -> a.PI.elec
  | None -> Alcotest.fail "make_engine's evaluator records its form"

let machine_tables _sys ev = Mdsp_core.Table.machine_evaluator ev

let test_flat_tables_match_oracle () =
  on_slots (fun ~exec slots ->
      check_installed ~exec ("lj tables, " ^ slots)
        (Mdsp_workload.Workloads.lj_fluid ~n:256 ())
        machine_tables;
      check_installed ~exec ("water tables, " ^ slots)
        (Mdsp_workload.Workloads.water_box ~n_side:3 ())
        machine_tables)

let test_flat_fep_matches_oracle () =
  on_slots (fun ~exec slots ->
      check_installed ~exec ("fep lambda 0.5, " ^ slots)
        (Mdsp_workload.Workloads.water_box ~n_side:3 ())
        (fun sys ev ->
          let topo = sys.Mdsp_workload.Workloads.topo in
          let elec = recorded_elec ev in
          (* The first water molecule (four sites) is the solute. *)
          let solute =
            Array.init (Mdsp_ff.Topology.n_atoms topo) (fun i -> i < 4)
          in
          Mdsp_core.Fep.evaluator
            (Mdsp_core.Fep.make_info topo ~solute ~cutoff:ev.PI.cutoff ~elec)
            ~lambda:0.5))

let test_flat_switch_matches_oracle () =
  on_slots (fun ~exec slots ->
      check_installed ~exec ("switch-truncated water, " ^ slots)
        (Mdsp_workload.Workloads.water_box ~n_side:3 ())
        (fun sys ev ->
          let elec = recorded_elec ev in
          PI.of_topology sys.Mdsp_workload.Workloads.topo ~cutoff:ev.PI.cutoff
            ~trunc:(Mdsp_ff.Nonbonded.Switch { r_on = 0.8 *. ev.PI.cutoff })
            ~elec))

let test_flat_analytic_kinds_match_oracle () =
  (* Every specialisation of the analytic loop against the oracle: each
     electrostatics kind under Shift and Truncate on water (the list
     forms), the chain with charged 1-4 pairs under each kind (the 1-4
     form next to the list form), and the bead chain without Coulomb
     under Truncate. Built from the calculator's own topology, so the
     analytic loop (not the generic one) runs. *)
  let analytic ~trunc ~elec sys ev =
    PI.of_topology sys.Mdsp_workload.Workloads.topo ~cutoff:ev.PI.cutoff
      ~trunc ~elec
  in
  let kinds =
    [
      ("no Coulomb", PI.No_coulomb);
      ("cutoff Coulomb", PI.Cutoff_coulomb);
      ("reaction field", PI.Reaction_field { epsilon_rf = 78.5 });
      ("Ewald real space", PI.Ewald_real { beta = 0.35 });
    ]
  in
  let truncs =
    [
      ("Shift", Mdsp_ff.Nonbonded.Shift);
      ("Truncate", Mdsp_ff.Nonbonded.Truncate);
    ]
  in
  let water = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  let chain = charged14_chain () in
  let cases =
    List.concat_map
      (fun (kind, elec) ->
        List.map
          (fun (tname, trunc) ->
            (Printf.sprintf "water, %s, %s" kind tname, water, trunc, elec))
          truncs)
      kinds
    @ List.map
        (fun (kind, elec) ->
          ( "chain with charged 1-4 pairs, " ^ kind,
            chain,
            Mdsp_ff.Nonbonded.Shift,
            elec ))
        kinds
    @ [
        ( "bead chain, no Coulomb, Truncate",
          Mdsp_workload.Workloads.bead_chain ~n_beads:16 ~n_total:256 (),
          Mdsp_ff.Nonbonded.Truncate,
          PI.No_coulomb );
      ]
  in
  on_widths [ 1; 2; 3; 4 ] (fun ~exec slots ->
      List.iter
        (fun (label, sys, trunc, elec) ->
          check_installed ~exec (label ^ ", " ^ slots) sys
            (analytic ~trunc ~elec))
        cases)

let test_flat_chain14_tables_match_oracle () =
  (* Tables at a cutoff below the list's: the flat 1-4 kernel must take
     the installed evaluator's cutoff (its LJ shift and Coulomb offset),
     as compute_pairs14 ~cutoff:evaluator.cutoff does — and so must
     compute_class [`Fast] and [`Slow]. *)
  on_slots (fun ~exec slots ->
      check_installed ~classes:[ `All; `Fast; `Slow ] ~exec
        ("scaled 1-4 chain tables, " ^ slots)
        (scaled14_chain ())
        (fun sys ev ->
          let topo = sys.Mdsp_workload.Workloads.topo in
          let cutoff = 0.8 *. ev.PI.cutoff in
          let elec = recorded_elec ev in
          let ts =
            Mdsp_core.Table.table_set_of_topology topo ~cutoff ~elec ~n:1024 ()
          in
          Mdsp_machine.Htis.evaluator ts
            ~types:
              (Array.map
                 (fun (a : Mdsp_ff.Topology.atom) -> a.Mdsp_ff.Topology.type_id)
                 topo.Mdsp_ff.Topology.atoms)
            ~charges:(Mdsp_ff.Topology.charges topo) ~cutoff))

(* --- the executor's phase clock ---

   Every created executor times its phases by name; the clock is the one
   source of mdsp run/project --timings, Perf.resource_rows and e21. *)

(* The names a clock may hold: the registered pool phases plus the serial
   bias pass. *)
let clock_names = "bias" :: Mdsp_verify.Dataflow.expected_phases

(* Reset the clock, run [steps] steps plus one neighbor-list rebuild (so
   cell.bin and nbuild run), and return the clock with the run's wall
   time. *)
let clocked_run exec eng ~steps =
  Exec.reset_phase_times exec;
  let t0 = Unix.gettimeofday () in
  E.run eng steps;
  ignore
    (Mdsp_space.Neighbor_list.rebuild
       (FC.nlist (E.force_calc eng))
       (E.state eng).Mdsp_md.State.positions);
  let wall = Unix.gettimeofday () -. t0 in
  (Exec.phase_times exec, wall)

(* [present] must be charged, [positive] charged a positive time; nothing
   outside [clock_names], no region charged twice, and a reset empties the
   clock. *)
let check_clock label exec eng ~steps ~present ~positive =
  let phases, wall = clocked_run exec eng ~steps in
  List.iter
    (fun (name, _) ->
      check_true
        (Printf.sprintf "%s: %s is a registered phase" label name)
        (List.mem name clock_names))
    phases;
  List.iter
    (fun name ->
      check_true
        (Printf.sprintf "%s: %s charged" label name)
        (List.mem_assoc name phases))
    present;
  List.iter
    (fun name ->
      match List.assoc_opt name phases with
      | Some s ->
          check_true
            (Printf.sprintf "%s: %s charged a positive time (%g s)" label
               name s)
            (s > 0.)
      | None -> Alcotest.failf "%s: %s never charged" label name)
    positive;
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. phases in
  check_true
    (Printf.sprintf "%s: charged %g s within the run's wall time %g s" label
       total wall)
    (total <= wall);
  Exec.reset_phase_times exec;
  check_true (label ^ ": reset empties the clock") (Exec.phase_times exec = []);
  phases

(* A created serial executor, then a 2-slot pool. Every phase runs at
   both slot counts. The folds (soa.reduce, gse.combine) fold nothing at
   one slot, where the microsecond clock may read zero, so they must be
   charged at every slot count and charged a positive time when
   [pooled]. *)
let on_clocked_executors f =
  List.iter
    (fun (label, backend) ->
      let exec = Exec.create backend in
      Fun.protect ~finally:(fun () -> Exec.shutdown exec) (fun () ->
          f ~exec ~label ~pooled:(Exec.n_slots exec > 1)))
    [ ("created serial", Exec.Serial); ("2-slot pool", Exec.Domains { n = 2 }) ]

let test_clock_gse_water () =
  on_clocked_executors (fun ~exec ~label ~pooled ->
      let eng = gse_engine ~exec () in
      let folds = [ "soa.reduce"; "gse.combine" ] in
      ignore
        (check_clock ("GSE water, " ^ label) exec eng ~steps:5
           ~present:([ "bonded"; "bias" ] @ folds)
           ~positive:
             ([
                "pair"; "soa.load"; "soa.store"; "gse.spread"; "gse.fft_fwd.x";
                "gse.fft_fwd.y"; "gse.fft_fwd.z"; "gse.convolve";
                "gse.fft_inv.x"; "gse.fft_inv.y"; "gse.fft_inv.z";
                "gse.phi_scale"; "gse.gather"; "integrate.kick1";
                "integrate.drift"; "integrate.kick2"; "constraints.shake";
                "constraints.fold"; "constraints.rattle"; "thermo.langevin";
                "cell.bin"; "nbuild";
              ]
             @ if pooled then folds else [])))

let test_clock_chain14 () =
  on_clocked_executors (fun ~exec ~label ~pooled ->
      let eng =
        Mdsp_workload.Workloads.make_engine ~seed:5 ~exec (scaled14_chain ())
      in
      let folds = [ "soa.reduce" ] in
      let phases =
        check_clock ("1-4 chain, " ^ label) exec eng ~steps:20
          ~present:("bias" :: folds)
          ~positive:
            ([
               "bonded"; "pair14"; "pair"; "soa.load"; "soa.store";
               "integrate.kick1"; "integrate.drift"; "integrate.kick2";
               "cell.bin"; "nbuild";
             ]
            @ if pooled then folds else [])
      in
      check_true "no grid solver -> no gse.* phase"
        (not
           (List.exists
              (fun (name, _) -> String.starts_with ~prefix:"gse." name)
              phases)))

let test_clock_serial_shared () =
  (* Replica and job engines share Exec.serial across domains: it must
     stay stateless. *)
  let eng = gse_engine ~exec:Exec.serial () in
  E.run eng 3;
  check_true "Exec.serial charges nothing" (Exec.phase_times Exec.serial = [])

(* Minimization runs SHAKE on the engine's own executor: a pool charges
   it to the clock, and a created serial executor minimizes bitwise like
   the shared one. *)
let test_clock_minimize () =
  let minimized exec =
    let eng =
      Mdsp_workload.Workloads.make_engine ~seed:3 ~exec
        (Mdsp_workload.Workloads.water_box ~n_side:2 ())
    in
    Exec.reset_phase_times exec;
    E.minimize eng ~steps:5;
    (Array.copy (E.state eng).Mdsp_md.State.positions, Exec.phase_times exec)
  in
  let pool = Exec.create (Exec.Domains { n = 2 }) in
  Fun.protect ~finally:(fun () -> Exec.shutdown pool) (fun () ->
      let _, phases = minimized pool in
      check_true "2-slot pool: constraints.shake charged"
        (List.mem_assoc "constraints.shake" phases));
  let x_created, phases = minimized (Exec.create Exec.Serial) in
  check_true "created serial: constraints.shake charged"
    (List.mem_assoc "constraints.shake" phases);
  let x_shared, _ = minimized Exec.serial in
  check_true "created serial = Exec.serial, bitwise" (x_created = x_shared)

let test_resource_rows_measured () =
  (* Every mapped row of a pooled GSE run is measured, so a misspelt
     phase name in the mapping shows up as an unmeasured row; only sync
     and the priced torus sub-rows have no host analogue. *)
  let module M = Mdsp_machine in
  let exec = Exec.create (Exec.Domains { n = 2 }) in
  Fun.protect ~finally:(fun () -> Exec.shutdown exec) (fun () ->
      let eng = gse_engine ~exec () in
      let phases, _ = clocked_run exec eng ~steps:3 in
      let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
      let box = sys.Mdsp_workload.Workloads.box in
      let cfg = M.Config.anton_like ~nodes:(2, 2, 2) () in
      let w =
        M.Perf.of_system ~fft_grid:gse_grid sys.Mdsp_workload.Workloads.topo
          box
      in
      let comm =
        M.Comm_model.of_stats cfg ~grid:gse_grid
          (M.Decomp.analyze
             (M.Decomp.create box ~nodes:(2, 2, 2)
                ~cutoff:(Pbc.min_edge box /. 2.))
             sys.Mdsp_workload.Workloads.positions)
      in
      let torus =
        List.map
          (fun (p : M.Comm_model.phase) -> "  " ^ p.M.Comm_model.label)
          (M.Comm_model.phases comm)
      in
      check_true "the torus sub-rows are priced" (torus <> []);
      List.iter
        (fun (r : M.Perf.resource_row) ->
          let name = r.M.Perf.resource in
          match r.M.Perf.measured_s with
          | m when name = "sync" || List.mem name torus ->
              check_true (name ^ " has no host analogue") (m = None)
          | Some v ->
              check_true (Printf.sprintf "%s measured (%g s)" name v) (v >= 0.)
          | None -> Alcotest.failf "row %S unmeasured" name)
        (M.Perf.resource_rows ~comm (M.Perf.step_time cfg w) ~steps:3 phases))

let test_resource_rows_mapping () =
  let w =
    Mdsp_machine.Perf.plain_workload ~n_atoms:1000 ~density:0.1 ~cutoff:9.
      ~dt_fs:2.
  in
  let b = Mdsp_machine.Perf.step_time (Mdsp_machine.Config.anton_like ()) w in
  let phases =
    [
      ("bias", 0.25);
      ("bonded", 0.5);
      ("integrate.drift", 0.75);
      ("nbuild", 1.0);
      ("pair", 1.5);
      ("pair14", 0.5);
    ]
  in
  let rows = Mdsp_machine.Perf.resource_rows b ~steps:10 phases in
  let measured name =
    (List.find (fun r -> r.Mdsp_machine.Perf.resource = name) rows)
      .Mdsp_machine.Perf.measured_s
  in
  let expect name v =
    match measured name with
    | Some m -> check_float ~eps:1e-12 (name ^ " per step") v m
    | None -> Alcotest.failf "%s row unmapped" name
  in
  expect "pair pipelines" 0.2;
  expect "flex cores" 0.075;
  expect "network" 0.1;
  expect "  nbuild" 0.1;
  expect "step" 0.45;
  check_true "no gse phase -> long-range unmeasured"
    (measured "long-range" = None);
  check_true "sync has no host analogue" (measured "sync" = None);
  (* Nothing measured maps to nothing. *)
  check_true "no phases -> no measured columns"
    (List.for_all
       (fun r -> r.Mdsp_machine.Perf.measured_s = None)
       (Mdsp_machine.Perf.resource_rows b ~steps:10 []))

let () =
  Alcotest.run "parallel"
    [
      ( "exec",
        [
          Alcotest.test_case "tile_bounds static partition" `Quick
            test_tile_bounds;
          Alcotest.test_case "tree reduction" `Quick test_sum_tree;
          Alcotest.test_case "pool covers all slots" `Quick
            test_parallel_run_covers_slots;
          Alcotest.test_case "exceptions propagate" `Quick
            test_parallel_run_propagates_exceptions;
          Alcotest.test_case "phase clock charges labelled phases" `Quick
            test_phase_clock_charges;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "solvated box: serial vs domains" `Quick
            test_serial_vs_domains_agree;
          Alcotest.test_case "bonded chain: serial vs domains" `Quick
            test_bonded_workload_agrees;
          Alcotest.test_case "RESPA fast/slow classes" `Quick
            test_respa_classes_agree;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "single evaluation bit-identical" `Quick
            test_parallel_determinism_single_eval;
          Alcotest.test_case "25-step trajectory bit-identical" `Quick
            test_parallel_determinism_trajectory;
          Alcotest.test_case "water27 Langevin slot-invariant" `Quick
            test_water27_langevin_slot_invariant;
          Alcotest.test_case "water27 Berendsen/NH slot-invariant" `Quick
            test_water27_rescale_slot_invariant;
          Alcotest.test_case "water6k Berendsen slot-invariant" `Quick
            test_water6k_slot_invariant;
          Alcotest.test_case "lj4000 Langevin slot-invariant" `Quick
            test_lj4000_langevin_slot_invariant;
          Alcotest.test_case "backends consistent over a short run" `Quick
            test_engine_backends_consistent;
        ] );
      ( "gse",
        [
          Alcotest.test_case "charged box: serial vs domains" `Quick
            test_gse_serial_vs_domains_agree;
          Alcotest.test_case "grid phase backends + bitwise repeat" `Quick
            test_gse_reciprocal_backends;
          Alcotest.test_case "10-step GSE trajectory bit-identical" `Quick
            test_gse_trajectory_determinism;
        ] );
      ( "soa",
        [
          Alcotest.test_case "SoA = boxed bitwise (serial)" `Quick
            test_soa_matches_boxed_serial;
          Alcotest.test_case "SoA = boxed bitwise (domains)" `Quick
            test_soa_matches_boxed_domains;
          Alcotest.test_case "SoA = boxed bitwise (GSE/Ewald)" `Quick
            test_soa_matches_boxed_gse;
          Alcotest.test_case "RESPA fast/slow classes bitwise" `Quick
            test_soa_respa_classes_match;
          Alcotest.test_case "RESPA step energies = compute bitwise" `Quick
            test_respa_energies_match_compute;
          Alcotest.test_case "RESPA fast evaluations per step" `Quick
            test_respa_fast_evaluations;
          Alcotest.test_case "RESPA k = 1 is velocity Verlet bitwise" `Quick
            test_respa_one_inner_is_verlet;
          Alcotest.test_case "RESPA pressure has the full virial" `Quick
            test_respa_pressure_full_virial;
          Alcotest.test_case "RESPA restore continues bitwise" `Quick
            test_respa_restore_exact;
          Alcotest.test_case "RESPA restore keeps the full pressure" `Quick
            test_respa_restore_pressure;
          Alcotest.test_case "RESPA minimize follows every class" `Quick
            test_respa_minimize_full_forces;
          Alcotest.test_case "25-step trajectory bitwise" `Quick
            test_soa_trajectory_matches_boxed;
          Alcotest.test_case "parallel SoA deterministic" `Quick
            test_soa_parallel_determinism;
          Alcotest.test_case "pair loop allocation-free" `Quick
            test_soa_pair_loop_zero_alloc;
          Alcotest.test_case "rebuild and skin check allocation" `Quick
            test_rebuild_allocation;
          Alcotest.test_case "sanitized SoA phases race-free" `Quick
            test_soa_phases_race_free;
          Alcotest.test_case "sanitized one slot = production bitwise" `Quick
            test_sanitized_one_slot_is_production;
          Alcotest.test_case "table evaluator = oracle bitwise" `Quick
            test_flat_tables_match_oracle;
          Alcotest.test_case "FEP lambda evaluator = oracle bitwise" `Quick
            test_flat_fep_matches_oracle;
          Alcotest.test_case "Switch evaluator = oracle bitwise" `Quick
            test_flat_switch_matches_oracle;
          Alcotest.test_case "scaled 1-4 chain tables = oracle bitwise"
            `Quick test_flat_chain14_tables_match_oracle;
          Alcotest.test_case "analytic evaluators = oracle bitwise" `Quick
            test_flat_analytic_kinds_match_oracle;
        ] );
      ( "timing",
        [
          Alcotest.test_case "phase clock: GSE water" `Quick
            test_clock_gse_water;
          Alcotest.test_case "phase clock: 1-4 chain" `Quick
            test_clock_chain14;
          Alcotest.test_case "Exec.serial keeps no clock" `Quick
            test_clock_serial_shared;
          Alcotest.test_case "minimize charges SHAKE to the clock" `Quick
            test_clock_minimize;
          Alcotest.test_case "resource rows of a pooled GSE run" `Quick
            test_resource_rows_measured;
          Alcotest.test_case "model vs measured resource rows" `Quick
            test_resource_rows_mapping;
        ] );
    ]
