(* The execution-backend layer: Serial vs Domains agreement on energies,
   forces, and virial; bit-level determinism of the static tiling + tree
   reduction; and the per-resource step-timing instrumentation. *)

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

let test_reduce_tree () =
  let a = Array.init 13 (fun i -> float_of_int (i + 1)) in
  check_float ~eps:1e-12 "tree sum" 91. (Exec.reduce_tree ( +. ) a);
  check_true "sum_tree matches reduce_tree"
    (Exec.reduce_tree ( +. ) a = Exec.sum_tree a);
  check_true "max via tree"
    (Exec.reduce_tree max [| 3; 1; 4; 1; 5; 9; 2; 6 |] = 9)

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

let test_gse_subphase_timings () =
  let eng = gse_engine ~exec:Exec.serial () in
  E.reset_timings eng;
  E.run eng 5;
  let tm = E.timings eng in
  let open FC in
  check_true "calls counted" (tm.calls = 5);
  check_true "spread time recorded" (tm.lr_spread_s > 0.);
  check_true "fft time recorded" (tm.lr_fft_s > 0.);
  check_true "convolve time recorded" (tm.lr_convolve_s > 0.);
  check_true "gather time recorded" (tm.lr_gather_s > 0.);
  let sub =
    tm.lr_spread_s +. tm.lr_fft_s +. tm.lr_convolve_s +. tm.lr_gather_s
  in
  (* The sub-phases partition the grid pipeline; the longrange bucket also
     holds the Ewald self/excluded correction work on top. *)
  check_true "sub-phases within the longrange bucket"
    (sub <= tm.longrange_s +. 1e-9);
  let per = timings_per_call tm in
  check_close ~rel:1e-9 "per-call scaling of sub-phases"
    (tm.lr_spread_s /. 5.) per.lr_spread_s;
  (* timings_total must not double-count the breakdown. *)
  check_true "total excludes the sub-phase breakdown"
    (abs_float
       (timings_total tm
       -. (tm.pair_s +. tm.bonded_s +. tm.longrange_s +. tm.bias_s
          +. tm.neighbor_s +. tm.integrate_s +. tm.constraints_s
          +. tm.thermostat_s))
    < 1e-12);
  E.reset_timings eng;
  check_true "reset clears sub-phases" ((E.timings eng).lr_spread_s = 0.);
  (* A solver-free workload must leave the grid sub-phases untouched. *)
  let plain =
    Mdsp_workload.Workloads.make_engine ~seed:3
      (Mdsp_workload.Workloads.lj_fluid ~n:64 ())
  in
  E.run plain 3;
  check_true "no GSE -> no sub-phase time"
    ((E.timings plain).lr_spread_s = 0.
    && (E.timings plain).lr_fft_s = 0.)

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
        let ew =
          Mdsp_longrange.Ewald.create ~beta:(Mdsp_longrange.Gse.beta gse)
            ~kmax:1 box
        in
        ( recip,
          Mdsp_longrange.Ewald.self_energy ew q
          +. Mdsp_longrange.Ewald.excluded_correction ew box q positions
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
  (* The one-slot pair window is measured with Gc.minor_words: the
     analytic flat loops must not allocate at all once warm. *)
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:500 () in
  let eng = Mdsp_workload.Workloads.make_engine ~seed:3 sys in
  E.run eng 2;
  E.reset_timings eng;
  E.run eng 10;
  let tm = E.timings eng in
  check_true "10 evaluations measured" (tm.FC.calls = 10);
  check_true
    (Printf.sprintf "pair loop allocates zero minor words (got %.1f)"
       tm.FC.pair_words)
    (tm.FC.pair_words = 0.)

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

(* --- the generality layer on the flat path ---

   Table, FEP-lambda, Switch and custom evaluators run the generic flat
   loop, which calls [eval] per pair; it must match the boxed oracle
   bitwise like the specialised loops do, at 1 slot and on a 3-slot pool.
   [install] swaps the evaluator on an engine built by make_engine. *)

let on_slots f =
  f ~exec:Exec.serial "1 slot";
  let pool = Exec.create (Exec.Domains { n = 3 }) in
  Fun.protect ~finally:(fun () -> Exec.shutdown pool) (fun () ->
      f ~exec:pool "3 slots")

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

let test_nbuild_subphase_timed () =
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:256 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 120.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:3 sys in
  E.reset_timings eng;
  E.run eng 40;
  let tm = E.timings eng in
  let rebuilt =
    Mdsp_space.Neighbor_list.rebuild_count (FC.nlist (E.force_calc eng)) > 0
  in
  check_true "nbuild within the neighbor bucket"
    (tm.FC.nbuild_s >= 0. && tm.FC.nbuild_s <= tm.FC.neighbor_s +. 1e-9);
  if rebuilt then check_true "rebuilds were timed" (tm.FC.nbuild_s > 0.)

(* --- timing instrumentation --- *)

let test_step_timings_populated () =
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:256 () in
  let eng = Mdsp_workload.Workloads.make_engine ~seed:3 sys in
  E.reset_timings eng;
  E.run eng 10;
  let tm = E.timings eng in
  let open FC in
  check_true "one force evaluation per step" (tm.calls = 10);
  check_true "pair time recorded" (tm.pair_s > 0.);
  check_true "phases non-negative"
    (tm.bonded_s >= 0. && tm.longrange_s >= 0. && tm.bias_s >= 0.
    && tm.neighbor_s >= 0.);
  check_true "integrator sweep time recorded" (tm.integrate_s > 0.);
  let per = timings_per_call tm in
  check_close ~rel:1e-9 "per-call scaling" (tm.pair_s /. 10.) per.pair_s;
  check_true "total is the sum"
    (abs_float
       (timings_total tm
       -. (tm.pair_s +. tm.bonded_s +. tm.longrange_s +. tm.bias_s
          +. tm.neighbor_s +. tm.integrate_s))
    < 1e-12);
  E.reset_timings eng;
  check_true "reset clears" ((E.timings eng).calls = 0)

let test_resource_rows_mapping () =
  let w =
    Mdsp_machine.Perf.plain_workload ~n_atoms:1000 ~density:0.1 ~cutoff:9.
      ~dt_fs:2.
  in
  let b = Mdsp_machine.Perf.step_time (Mdsp_machine.Config.anton_like ()) w in
  let tm = FC.zero_timings () in
  tm.FC.pair_s <- 2.0;
  tm.FC.bonded_s <- 0.5;
  tm.FC.bias_s <- 0.25;
  tm.FC.calls <- 10;
  let rows = Mdsp_machine.Perf.resource_rows b tm in
  let find name =
    List.find (fun r -> r.Mdsp_machine.Perf.resource = name) rows
  in
  (match (find "pair pipelines").Mdsp_machine.Perf.measured_s with
  | Some v -> check_float ~eps:1e-12 "pair maps per-call" 0.2 v
  | None -> Alcotest.fail "pair row unmapped");
  (match (find "flex cores").Mdsp_machine.Perf.measured_s with
  | Some v -> check_float ~eps:1e-12 "flex = bonded + bias" 0.075 v
  | None -> Alcotest.fail "flex row unmapped");
  check_true "sync has no host analogue"
    ((find "sync").Mdsp_machine.Perf.measured_s = None);
  (* The neighbor-build sub-phase row maps timings.nbuild_s. *)
  tm.FC.nbuild_s <- 1.0;
  let rows' = Mdsp_machine.Perf.resource_rows b tm in
  (match
     (List.find
        (fun r -> r.Mdsp_machine.Perf.resource = "  nbuild")
        rows')
       .Mdsp_machine.Perf.measured_s
   with
  | Some v -> check_float ~eps:1e-12 "nbuild maps per-call" 0.1 v
  | None -> Alcotest.fail "nbuild row unmapped");
  (* Unmeasured timings map to nothing. *)
  let rows0 = Mdsp_machine.Perf.resource_rows b (FC.zero_timings ()) in
  check_true "no calls -> no measured columns"
    (List.for_all
       (fun r -> r.Mdsp_machine.Perf.measured_s = None)
       rows0)

let () =
  Alcotest.run "parallel"
    [
      ( "exec",
        [
          Alcotest.test_case "tile_bounds static partition" `Quick
            test_tile_bounds;
          Alcotest.test_case "tree reduction" `Quick test_reduce_tree;
          Alcotest.test_case "pool covers all slots" `Quick
            test_parallel_run_covers_slots;
          Alcotest.test_case "exceptions propagate" `Quick
            test_parallel_run_propagates_exceptions;
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
          Alcotest.test_case "sub-phase timing sanity" `Quick
            test_gse_subphase_timings;
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
          Alcotest.test_case "25-step trajectory bitwise" `Quick
            test_soa_trajectory_matches_boxed;
          Alcotest.test_case "parallel SoA deterministic" `Quick
            test_soa_parallel_determinism;
          Alcotest.test_case "pair loop allocation-free" `Quick
            test_soa_pair_loop_zero_alloc;
          Alcotest.test_case "sanitized SoA phases race-free" `Quick
            test_soa_phases_race_free;
          Alcotest.test_case "table evaluator = oracle bitwise" `Quick
            test_flat_tables_match_oracle;
          Alcotest.test_case "FEP lambda evaluator = oracle bitwise" `Quick
            test_flat_fep_matches_oracle;
          Alcotest.test_case "Switch evaluator = oracle bitwise" `Quick
            test_flat_switch_matches_oracle;
          Alcotest.test_case "scaled 1-4 chain tables = oracle bitwise"
            `Quick test_flat_chain14_tables_match_oracle;
        ] );
      ( "timing",
        [
          Alcotest.test_case "per-resource step timings" `Quick
            test_step_timings_populated;
          Alcotest.test_case "nbuild sub-phase" `Quick
            test_nbuild_subphase_timed;
          Alcotest.test_case "model vs measured resource rows" `Quick
            test_resource_rows_mapping;
        ] );
    ]
