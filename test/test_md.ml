(* Tests for Mdsp_md: state, constraints, force aggregation, integrators,
   thermostats, barostats, RESPA. *)

open Mdsp_util
open Mdsp_md
open Testsupport
module E = Engine

(* --- State --- *)

let test_state_kinetic_temperature () =
  let st =
    State.create
      ~positions:[| Vec3.zero; Vec3.make 1. 0. 0. |]
      ~masses:[| 2.; 4. |] ~box:(Pbc.cubic 10.)
  in
  st.State.velocities.(0) <- Vec3.make 3. 0. 0.;
  st.State.velocities.(1) <- Vec3.make 0. 1. 0.;
  (* KE = 0.5*2*9 + 0.5*4*1 = 11 *)
  check_float ~eps:1e-12 "kinetic" 11. (State.kinetic_energy st);
  check_close ~rel:1e-9 "temperature" (22. /. (3. *. Units.k_b))
    (State.temperature st ~dof:3)

let test_state_thermalize_temperature () =
  let n = 2000 in
  let st =
    State.create
      ~positions:(Array.make n Vec3.zero)
      ~masses:(Array.make n 12.) ~box:(Pbc.cubic 100.)
  in
  State.thermalize st (Rng.create 71) ~temp:300.;
  let t = State.temperature st ~dof:((3 * n) - 3) in
  check_close ~rel:0.05 "thermalized temperature" 300. t;
  (* COM at rest. *)
  let p = ref Vec3.zero in
  Array.iteri
    (fun i v -> p := Vec3.add !p (Vec3.scale st.State.masses.(i) v))
    st.State.velocities;
  check_true "zero total momentum" (Vec3.norm !p < 1e-9)

let test_state_copy_blit () =
  let st =
    State.create
      ~positions:[| Vec3.make 1. 2. 3. |]
      ~masses:[| 1. |] ~box:(Pbc.cubic 5.)
  in
  let c = State.copy st in
  c.State.positions.(0) <- Vec3.zero;
  check_true "copy is deep"
    (Vec3.equal_eps ~eps:0. st.State.positions.(0) (Vec3.make 1. 2. 3.));
  State.blit ~src:c ~dst:st;
  check_true "blit copies" (Vec3.norm st.State.positions.(0) = 0.)

let test_scale_velocities () =
  let st =
    State.create ~positions:[| Vec3.zero |] ~masses:[| 1. |]
      ~box:(Pbc.cubic 5.)
  in
  st.State.velocities.(0) <- Vec3.make 1. 2. 3.;
  State.scale_velocities st 2.;
  check_true "scaled"
    (Vec3.equal_eps ~eps:1e-12 st.State.velocities.(0) (Vec3.make 2. 4. 6.))

(* --- Constraints --- *)

let water_topology () =
  let b = Mdsp_ff.Topology.Builder.create () in
  Mdsp_ff.Topology.Builder.set_lj_types b [| Mdsp_ff.Water.o_lj; (0., 1.) |];
  let rng = Rng.create 72 in
  let _, pos =
    Mdsp_ff.Water.add_molecule b ~o_type:0 ~h_type:1
      ~center:(Vec3.make 5. 5. 5.) ~orient:rng
  in
  (Mdsp_ff.Topology.Builder.finish b, pos)

let test_shake_restores_constraints () =
  let topo, pos = water_topology () in
  let cons = Constraints.create topo in
  let box = Pbc.cubic 10. in
  let masses = Mdsp_ff.Topology.masses topo in
  (* Distort the molecule and let SHAKE repair it using the undistorted
     geometry as the reference. *)
  let distorted = Array.copy pos in
  distorted.(1) <- Vec3.add distorted.(1) (Vec3.make 0.1 (-0.05) 0.02);
  distorted.(2) <- Vec3.add distorted.(2) (Vec3.make (-0.03) 0.08 0.01);
  Constraints.shake cons box ~prev:pos distorted ~masses;
  check_true "constraints satisfied"
    (Constraints.max_violation cons box distorted < 1e-7)

let test_rattle_removes_radial_velocity () =
  let topo, pos = water_topology () in
  let cons = Constraints.create topo in
  let box = Pbc.cubic 10. in
  let masses = Mdsp_ff.Topology.masses topo in
  let rng = Rng.create 73 in
  let vel = Array.init 3 (fun _ -> Rng.gaussian_vec rng) in
  Constraints.rattle cons box pos vel ~masses;
  (* After RATTLE, relative velocity along each constraint is zero. *)
  List.iter
    (fun (i, j, _) ->
      let rij = Pbc.min_image box pos.(i) pos.(j) in
      let vij = Vec3.sub vel.(i) vel.(j) in
      check_true "no radial relative velocity"
        (abs_float (Vec3.dot rij vij) < 1e-6))
    [ (0, 1, ()); (0, 2, ()); (1, 2, ()) ]

let test_constraints_none () =
  Alcotest.(check int) "no constraints" 0 (Constraints.count Constraints.none)

(* A NaN coordinate or velocity must not pass for a converged cluster: the
   solver has to end in the structured failure that names the cluster
   instead of returning and letting the NaN integrate on. *)
let nan_water_case () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:2 () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  ( Constraints.create topo,
    sys.Mdsp_workload.Workloads.box,
    Array.copy sys.Mdsp_workload.Workloads.positions,
    Mdsp_ff.Topology.masses topo )

let expect_nan_unconverged solver run =
  match run () with
  | () -> Alcotest.failf "%s returned normally on a NaN input" solver
  | exception Constraints.Unconverged u ->
      Alcotest.(check string) "solver named" solver u.Constraints.uc_solver;
      Alcotest.(check int) "cluster of atom 0" 0 u.Constraints.uc_cluster;
      u

let test_shake_nan_unconverged () =
  let cons, box, pos, masses = nan_water_case () in
  let prev = Array.copy pos in
  pos.(0) <- Vec3.make Float.nan pos.(0).Vec3.y pos.(0).Vec3.z;
  let u =
    expect_nan_unconverged "SHAKE" (fun () ->
        Constraints.shake cons box ~prev pos ~masses)
  in
  check_true "violation is not finite"
    (not (Float.is_finite u.Constraints.uc_max_violation))

let test_rattle_nan_unconverged () =
  let cons, box, pos, masses = nan_water_case () in
  let vel = Array.make (Array.length pos) Vec3.zero in
  vel.(0) <- Vec3.make Float.nan 0. 0.;
  ignore
    (expect_nan_unconverged "RATTLE" (fun () ->
         Constraints.rattle cons box pos vel ~masses))

let test_shake_unconverged_structured () =
  (* Three constraints violating the triangle inequality (1 + 1 < 3) can
     never all hold, so SHAKE must give up with the structured payload —
     naming the fused cluster — rather than silently returning broken
     geometry. *)
  let b = Mdsp_ff.Topology.Builder.create () in
  Mdsp_ff.Topology.Builder.set_lj_types b [| (0.1, 1.0) |];
  for _ = 1 to 3 do
    ignore
      (Mdsp_ff.Topology.Builder.add_atom b ~mass:1. ~charge:0. ~type_id:0
         ~name:"X")
  done;
  Mdsp_ff.Topology.Builder.add_constraint b ~i:0 ~j:1 ~dist:1.;
  Mdsp_ff.Topology.Builder.add_constraint b ~i:1 ~j:2 ~dist:1.;
  Mdsp_ff.Topology.Builder.add_constraint b ~i:0 ~j:2 ~dist:3.;
  let topo = Mdsp_ff.Topology.Builder.finish b in
  let cons = Constraints.create ~max_iter:25 topo in
  Alcotest.(check int) "one fused cluster" 1
    (Array.length (Constraints.clusters cons));
  let box = Pbc.cubic 50. in
  let masses = Mdsp_ff.Topology.masses topo in
  let pos =
    [| Vec3.make 0. 0. 0.; Vec3.make 1. 0. 0.; Vec3.make 2. 0. 0. |]
  in
  let prev = Array.copy pos in
  match Constraints.shake cons box ~prev pos ~masses with
  | () -> Alcotest.fail "expected Constraints.Unconverged"
  | exception Constraints.Unconverged u ->
      Alcotest.(check string) "solver named" "SHAKE" u.Constraints.uc_solver;
      Alcotest.(check int) "cluster id" 0 u.Constraints.uc_cluster;
      Alcotest.(check int) "first constraint" 0
        u.Constraints.uc_first_constraint;
      Alcotest.(check int) "iteration budget spent" 25 u.Constraints.uc_iters;
      check_true "residual violation reported"
        (u.Constraints.uc_max_violation > 0.1);
      let msg = Constraints.unconverged_message u in
      check_true "message names the cluster"
        (let sub = "cluster" in
         let n = String.length sub and m = String.length msg in
         let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
         go 0)

(* --- the boxed solver, the oracle of the flat one ---

   SHAKE and RATTLE as they ran on boxed vectors before the solver moved
   onto flat columns: per-constraint [Vec3] arithmetic written back into
   the arrays after every update, the unconverged payload computed with
   [Pbc.dist2]. The flat solver must leave the same bits in the arrays
   and raise the same payload, at every slot count. *)

let oracle_pairs topo cons =
  Array.map
    (fun (u : Mdsp_ff.Topology.cluster) ->
      Array.map
        (fun k ->
          let c = topo.Mdsp_ff.Topology.constraints.(k) in
          (c.Mdsp_ff.Topology.ci, c.Mdsp_ff.Topology.cj, c.Mdsp_ff.Topology.dist))
        u.Mdsp_ff.Topology.cl_constraints)
    (Constraints.clusters cons)

let oracle_unconverged cons pairs box positions ~solver ~iters cid =
  let violation =
    Array.fold_left
      (fun acc (i, j, d) ->
        let d2 = d *. d in
        let r2 = Pbc.dist2 box positions.(i) positions.(j) in
        Float.max acc (abs_float (r2 -. d2) /. d2))
      0. pairs.(cid)
  in
  Constraints.Unconverged
    {
      Constraints.uc_solver = solver;
      uc_cluster = cid;
      uc_first_constraint =
        (Constraints.clusters cons).(cid).Mdsp_ff.Topology.cl_constraints.(0);
      uc_iters = iters;
      uc_max_violation = violation;
    }

let oracle_shake ?(tol = 1e-8) ?(max_iter = 200) topo cons box ~prev
    positions ~masses =
  let all = oracle_pairs topo cons in
  Array.iteri
    (fun cid pairs ->
      let iter = ref 0 in
      let converged = ref false in
      while (not !converged) && !iter < max_iter do
        converged := true;
        Array.iter
          (fun (i, j, d) ->
            let d2 = d *. d in
            let rij = Pbc.min_image box positions.(i) positions.(j) in
            let diff = Vec3.norm2 rij -. d2 in
            if not (abs_float diff <= tol *. d2) then begin
              converged := false;
              let rij_prev = Pbc.min_image box prev.(i) prev.(j) in
              let inv_mi = 1. /. masses.(i) and inv_mj = 1. /. masses.(j) in
              let denom = 2. *. (inv_mi +. inv_mj) *. Vec3.dot rij rij_prev in
              if abs_float denom < 1e-12 then
                failwith "Constraints.shake: degenerate constraint geometry";
              let g = diff /. denom in
              positions.(i) <-
                Vec3.sub positions.(i) (Vec3.scale (g *. inv_mi) rij_prev);
              positions.(j) <-
                Vec3.add positions.(j) (Vec3.scale (g *. inv_mj) rij_prev)
            end)
          pairs;
        incr iter
      done;
      if not !converged then
        raise
          (oracle_unconverged cons all box positions ~solver:"SHAKE"
             ~iters:!iter cid))
    all

let oracle_rattle ?(tol = 1e-8) ?(max_iter = 200) topo cons box positions
    velocities ~masses =
  let all = oracle_pairs topo cons in
  Array.iteri
    (fun cid pairs ->
      let iter = ref 0 in
      let converged = ref false in
      while (not !converged) && !iter < max_iter do
        converged := true;
        Array.iter
          (fun (i, j, d) ->
            let rij = Pbc.min_image box positions.(i) positions.(j) in
            let vij = Vec3.sub velocities.(i) velocities.(j) in
            let rv = Vec3.dot rij vij in
            let inv_mi = 1. /. masses.(i) and inv_mj = 1. /. masses.(j) in
            let d2 = d *. d in
            if not (abs_float rv <= tol *. d2 *. 10.) then begin
              converged := false;
              let k = rv /. (d2 *. (inv_mi +. inv_mj)) in
              velocities.(i) <-
                Vec3.sub velocities.(i) (Vec3.scale (k *. inv_mi) rij);
              velocities.(j) <-
                Vec3.add velocities.(j) (Vec3.scale (k *. inv_mj) rij)
            end)
          pairs;
        incr iter
      done;
      if not !converged then
        raise
          (oracle_unconverged cons all box positions ~solver:"RATTLE"
             ~iters:!iter cid))
    all

let vec_bits (v : Vec3.t) =
  let b = Int64.bits_of_float in
  (b v.Vec3.x, b v.Vec3.y, b v.Vec3.z)

let array_bits a = Array.map vec_bits a

(* What a solver call left: normal return, or the exception with its float
   as bits (a NaN violation compares equal to itself), plus the array it
   wrote. *)
let outcome run arr =
  let raised =
    match run () with
    | () -> None
    | exception Constraints.Unconverged u ->
        Some
          ( u.Constraints.uc_solver,
            u.Constraints.uc_cluster,
            u.Constraints.uc_first_constraint,
            u.Constraints.uc_iters,
            Int64.bits_of_float u.Constraints.uc_max_violation )
  in
  (raised, array_bits arr)

(* SHAKE on [prev] displaced by [x], then RATTLE of [v] on the result:
   flat and oracle from copies of the same inputs, compared bitwise. *)
let check_against_oracle ?tol ?max_iter ?(exec = Exec.serial) label topo box
    ~prev ~x ~v =
  let cons = Constraints.create ?tol ?max_iter topo in
  let masses = Mdsp_ff.Topology.masses topo in
  let flat_x = Array.copy x and oracle_x = Array.copy x in
  let flat =
    outcome
      (fun () -> Constraints.shake ~exec cons box ~prev flat_x ~masses)
      flat_x
  in
  let oracle =
    outcome
      (fun () ->
        oracle_shake ?tol ?max_iter topo cons box ~prev oracle_x ~masses)
      oracle_x
  in
  check_true (label ^ ": SHAKE = boxed oracle bitwise") (flat = oracle);
  let flat_v = Array.copy v and oracle_v = Array.copy v in
  let flat =
    outcome
      (fun () ->
        Constraints.rattle ~exec cons box flat_x flat_v ~masses)
      flat_v
  in
  let oracle =
    outcome
      (fun () ->
        oracle_rattle ?tol ?max_iter topo cons box oracle_x oracle_v ~masses)
      oracle_v
  in
  check_true (label ^ ": RATTLE = boxed oracle bitwise") (flat = oracle)

let displaced ~seed ~scale x =
  let rng = Rng.create seed in
  Array.map (fun p -> Vec3.add p (Vec3.scale scale (Rng.gaussian_vec rng))) x

let random_velocities ~seed n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> Rng.gaussian_vec rng)

let test_constraints_match_oracle () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:5 () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let box = sys.Mdsp_workload.Workloads.box in
  let prev = sys.Mdsp_workload.Workloads.positions in
  let x = displaced ~seed:31 ~scale:0.05 prev in
  let v = random_velocities ~seed:32 (Array.length prev) in
  List.iter
    (fun n ->
      let run exec =
        check_against_oracle ~exec
          (Printf.sprintf "water n_side 5, %d slot(s)" n)
          topo box ~prev ~x ~v
      in
      if n = 1 then run Exec.serial
      else begin
        let pool = Exec.create (Exec.Domains { n }) in
        Fun.protect ~finally:(fun () -> Exec.shutdown pool) (fun () ->
            run pool)
      end)
    [ 1; 2; 3; 4 ];
  (* One cluster of three constraints along a 4-atom chain, unequal
     masses: the Gauss-Seidel order and the per-atom mass weights show. *)
  let b = Mdsp_ff.Topology.Builder.create () in
  Mdsp_ff.Topology.Builder.set_lj_types b [| (0.1, 1.0) |];
  List.iter
    (fun mass ->
      ignore
        (Mdsp_ff.Topology.Builder.add_atom b ~mass ~charge:0. ~type_id:0
           ~name:"X"))
    [ 1.008; 12.011; 15.999; 3.5 ];
  Mdsp_ff.Topology.Builder.add_constraint b ~i:0 ~j:1 ~dist:1.09;
  Mdsp_ff.Topology.Builder.add_constraint b ~i:1 ~j:2 ~dist:1.43;
  Mdsp_ff.Topology.Builder.add_constraint b ~i:2 ~j:3 ~dist:0.96;
  let topo = Mdsp_ff.Topology.Builder.finish b in
  Alcotest.(check int) "the chain is one fused cluster" 1
    (Array.length (Constraints.clusters (Constraints.create topo)));
  let prev =
    [|
      Vec3.make 4.1 5.2 4.9;
      Vec3.make 5.15 5.4 5.0;
      Vec3.make 6.3 6.2 5.35;
      Vec3.make 6.9 6.95 5.7;
    |]
  in
  check_against_oracle "4-atom chain" topo (Pbc.cubic 9.5) ~prev
    ~x:(displaced ~seed:33 ~scale:0.08 prev)
    ~v:(random_velocities ~seed:34 4)

(* The failures: the triangle that cannot close, a NaN position and a NaN
   velocity. Same payload bits, same arrays after the raise. *)
let test_constraints_failures_match_oracle () =
  let b = Mdsp_ff.Topology.Builder.create () in
  Mdsp_ff.Topology.Builder.set_lj_types b [| (0.1, 1.0) |];
  for _ = 1 to 3 do
    ignore
      (Mdsp_ff.Topology.Builder.add_atom b ~mass:1. ~charge:0. ~type_id:0
         ~name:"X")
  done;
  Mdsp_ff.Topology.Builder.add_constraint b ~i:0 ~j:1 ~dist:1.;
  Mdsp_ff.Topology.Builder.add_constraint b ~i:1 ~j:2 ~dist:1.;
  Mdsp_ff.Topology.Builder.add_constraint b ~i:0 ~j:2 ~dist:3.;
  let topo = Mdsp_ff.Topology.Builder.finish b in
  let x = [| Vec3.make 0. 0. 0.; Vec3.make 1. 0. 0.; Vec3.make 2. 0. 0. |] in
  check_against_oracle ~max_iter:25 "unclosable triangle" topo (Pbc.cubic 50.)
    ~prev:(Array.copy x) ~x ~v:(random_velocities ~seed:35 3);
  let sys = Mdsp_workload.Workloads.water_box ~n_side:2 () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let box = sys.Mdsp_workload.Workloads.box in
  let prev = sys.Mdsp_workload.Workloads.positions in
  let n = Array.length prev in
  let x = displaced ~seed:36 ~scale:0.05 prev in
  x.(0) <- Vec3.make Float.nan x.(0).Vec3.y x.(0).Vec3.z;
  check_against_oracle "NaN position" topo box ~prev ~x
    ~v:(random_velocities ~seed:37 n);
  let v = random_velocities ~seed:38 n in
  v.(0) <- Vec3.make Float.nan 0. 0.;
  check_against_oracle "NaN velocity" topo box ~prev ~x:(Array.copy prev) ~v

(* One SHAKE and one RATTLE call on water n_side 5 allocate each atom's
   written-back record (4 words) and a fixed overhead: the sweep closures
   and one scratch per tile. *)
let test_constraints_allocation () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:5 () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let box = sys.Mdsp_workload.Workloads.box in
  let prev = sys.Mdsp_workload.Workloads.positions in
  let n = Array.length prev in
  let cons = Constraints.create topo in
  let masses = Mdsp_ff.Topology.masses topo in
  let budget = float_of_int ((4 * n) + 128) in
  let x0 = displaced ~seed:39 ~scale:0.05 prev in
  let v0 = random_velocities ~seed:40 n in
  let metered label f =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    let w = Gc.minor_words () -. w0 in
    check_true
      (Printf.sprintf "%s on %d atoms: %.0f minor words <= %.0f" label n w
         budget)
      (w <= budget)
  in
  let x = Array.copy x0 in
  metered "SHAKE" (fun () ->
      Array.blit x0 0 x 0 n;
      Constraints.shake cons box ~prev x ~masses);
  let v = Array.copy v0 in
  metered "RATTLE" (fun () ->
      Array.blit v0 0 v 0 n;
      Constraints.rattle cons box x v ~masses)

(* [prev] is read after [positions] moved; the same array for both would
   read the moved coordinates. *)
let test_shake_rejects_aliased_prev () =
  let topo, pos = water_topology () in
  let cons = Constraints.create topo in
  let masses = Mdsp_ff.Topology.masses topo in
  Alcotest.check_raises "prev == positions"
    (Invalid_argument "Constraints.shake: prev is the positions array")
    (fun () -> Constraints.shake cons (Pbc.cubic 10.) ~prev:pos pos ~masses)

(* --- Engines on the LJ fluid --- *)

let test_nve_energy_conservation () =
  let eng = lj_engine ~n:108 ~equil:1000 () in
  (* Switch to NVE by building a fresh engine at the equilibrated state. *)
  let st = E.state eng in
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:108 () in
  let sys = { sys with Mdsp_workload.Workloads.positions = Array.copy st.State.positions } in
  let cfg = { E.default_config with dt_fs = 2.0; temperature = 120. } in
  let nve = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  Array.blit st.State.velocities 0 (E.state nve).State.velocities 0 108;
  E.refresh_forces nve;
  let e0 = E.total_energy nve in
  let worst = ref 0. in
  for _ = 1 to 10 do
    E.run nve 100;
    worst :=
      Float.max !worst (abs_float (E.total_energy nve -. e0) /. abs_float e0)
  done;
  check_true
    (Printf.sprintf "NVE drift %.2e < 5e-4 over 2 ps" !worst)
    (!worst < 5e-4)

let test_nve_timestep_scaling () =
  (* Velocity Verlet: energy error should drop ~4x when dt halves. *)
  let drift dt_fs =
    let eng = lj_engine ~n:64 ~equil:500 () in
    let st = E.state eng in
    let sys = Mdsp_workload.Workloads.lj_fluid ~n:64 () in
    let sys = { sys with Mdsp_workload.Workloads.positions = Array.copy st.State.positions } in
    let cfg = { E.default_config with dt_fs; temperature = 120. } in
    let nve = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
    Array.blit st.State.velocities 0 (E.state nve).State.velocities 0 64;
    E.refresh_forces nve;
    let e0 = E.total_energy nve in
    let acc = Stats.Online.create () in
    for _ = 1 to 200 do
      E.step nve;
      Stats.Online.add acc (abs_float (E.total_energy nve -. e0))
    done;
    Stats.Online.mean acc
  in
  let d4 = drift 4.0 and d2 = drift 2.0 in
  check_true
    (Printf.sprintf "dt scaling: %.2e (4fs) vs %.2e (2fs)" d4 d2)
    (d4 > 2. *. d2)

let test_langevin_temperature () =
  let eng = lj_engine ~n:108 ~temp:120. ~equil:2000 () in
  let acc = Stats.Online.create () in
  for _ = 1 to 2000 do
    E.step eng;
    Stats.Online.add acc (E.temperature eng)
  done;
  check_close ~rel:0.05 "Langevin mean temperature" 120. (Stats.Online.mean acc)

let test_nose_hoover_temperature () =
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:108 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 120.;
      thermostat = E.Nose_hoover { tau_fs = 50. };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  E.run eng 4000;
  let acc = Stats.Online.create () in
  for _ = 1 to 2000 do
    E.step eng;
    Stats.Online.add acc (E.temperature eng)
  done;
  check_close ~rel:0.05 "NHC mean temperature" 120. (Stats.Online.mean acc)

let test_berendsen_temperature () =
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:108 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 150.;
      thermostat = E.Berendsen { tau_fs = 100. };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  E.run eng 3000;
  let acc = Stats.Online.create () in
  for _ = 1 to 1500 do
    E.step eng;
    Stats.Online.add acc (E.temperature eng)
  done;
  check_close ~rel:0.05 "Berendsen mean temperature" 150. (Stats.Online.mean acc)

let test_velocity_distribution_maxwell () =
  (* Under a Langevin thermostat, velocity components should be Gaussian
     with variance kT/m; pool across particles and time for statistics. *)
  let eng = lj_engine ~n:64 ~temp:120. ~equil:2000 () in
  let acc = Stats.Online.create () in
  for _ = 1 to 100 do
    E.run eng 25;
    Array.iter
      (fun v ->
        Stats.Online.add acc v.Vec3.x;
        Stats.Online.add acc v.Vec3.y;
        Stats.Online.add acc v.Vec3.z)
      (E.state eng).State.velocities
  done;
  let kt_over_m = Units.kt 120. /. 39.948 in
  check_close ~rel:0.05 "velocity variance = kT/m" kt_over_m
    (Stats.Online.variance acc);
  (* Langevin dynamics does not conserve momentum, so each snapshot's
     per-atom mean is the COM velocity — an OU walk with std
     sigma/sqrt(64) — and the pooled mean has a standard error near
     0.0125 sigma even with perfectly decorrelated snapshots. Bound at
     4 of those standard errors. *)
  check_true "mean near zero"
    (abs_float (Stats.Online.mean acc) < 0.05 *. sqrt kt_over_m)

let test_com_removal () =
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:64 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 120.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
      remove_com_interval = 10;
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  E.run eng 100;
  let st = E.state eng in
  let p = ref Vec3.zero in
  Array.iteri
    (fun i v -> p := Vec3.add !p (Vec3.scale st.State.masses.(i) v))
    st.State.velocities;
  check_true "momentum removed" (Vec3.norm !p < 1e-9)

let test_post_step_hooks () =
  let eng = lj_engine ~n:32 ~equil:10 () in
  let count = ref 0 in
  E.add_post_step eng ~name:"counter" (fun _ -> incr count);
  E.run eng 25;
  Alcotest.(check int) "hook ran each step" 25 !count;
  check_true "hook removal" (E.remove_post_step eng "counter");
  check_true "hook removal idempotent" (not (E.remove_post_step eng "counter"));
  E.run eng 5;
  Alcotest.(check int) "hook no longer runs" 25 !count

let test_berendsen_barostat_relaxes_pressure () =
  (* An over-compressed LJ fluid under a Berendsen barostat should expand
     (volume grows) toward the target pressure. *)
  let sys = Mdsp_workload.Workloads.lj_fluid ~rho_star:1.05 ~n:108 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 120.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
      barostat = E.Berendsen_baro { tau_fs = 500.; pressure_atm = 1. };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  let v0 = Pbc.volume (E.state eng).State.box in
  let p0 = E.pressure_atm eng in
  E.run eng 3000;
  let v1 = Pbc.volume (E.state eng).State.box in
  let p1 = E.pressure_atm eng in
  check_true "initially over-pressurized" (p0 > 1000.);
  check_true "volume expanded" (v1 > v0 *. 1.02);
  check_true "pressure dropped" (p1 < p0 /. 2.)

let test_mc_barostat_runs_and_relaxes () =
  let sys = Mdsp_workload.Workloads.lj_fluid ~rho_star:1.05 ~n:64 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 120.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
      barostat =
        E.Monte_carlo_baro { interval = 20; pressure_atm = 1.; max_dlnv = 0.02 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  let v0 = Pbc.volume (E.state eng).State.box in
  E.run eng 2000;
  let v1 = Pbc.volume (E.state eng).State.box in
  check_true "volume expanded under MC barostat" (v1 > v0)

(* Under a barostat the box changes every step; the calculator's reciprocal
   term must be the one a handle built on the current box gives, bit for
   bit. [fresh box q x acc] is that handle's reciprocal sum. *)
let check_recip_follows_box name eng fresh =
  let box0 = (E.state eng).State.box in
  E.run eng 20;
  let st = E.state eng in
  let box = st.State.box and x = st.State.positions in
  check_true (name ^ ": the barostat moved the box") (box <> box0);
  let fc = E.force_calc eng in
  let q = Mdsp_ff.Topology.charges (Force_calc.topology fc) in
  let acc = Mdsp_ff.Bonded.make_accum (State.n st) in
  let e = Force_calc.compute fc box x acc in
  let acc' = Mdsp_ff.Bonded.make_accum (State.n st) in
  let recip = fresh box q x acc' in
  check_true
    (Printf.sprintf "%s: recip %.17g = fresh handle's %.17g" name
       e.Force_calc.recip recip)
    (e.Force_calc.recip = recip)

let test_longrange_follows_box () =
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      thermostat = E.Langevin { gamma_fs = 0.02 };
      barostat = E.Berendsen_baro { tau_fs = 100.; pressure_atm = 1000. };
    }
  in
  let grid = (16, 16, 16) in
  let sys = Mdsp_workload.Workloads.water_box ~n_side:4 () in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg ~gse_grid:grid sys in
  let beta =
    3.0 /. (Force_calc.evaluator (E.force_calc eng)).Mdsp_ff.Pair_interactions.cutoff
  in
  check_recip_follows_box "GSE" eng (fun box q x acc ->
      Mdsp_longrange.Gse.reciprocal
        (Mdsp_longrange.Gse.create ~beta ~grid box)
        q x acc);
  (* The same system on direct Ewald. *)
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
    Mdsp_space.Neighbor_list.create ~exclusions:sys.topo.Mdsp_ff.Topology.exclusions
      ~cutoff ~skin:1. sys.box sys.positions
  in
  let ew = Mdsp_longrange.Ewald.create ~beta ~kmax:5 sys.box in
  let fc =
    Force_calc.create sys.topo ~evaluator ~longrange:(Force_calc.Lr_ewald ew)
      ~nlist
  in
  let st =
    State.create ~positions:sys.positions
      ~masses:(Mdsp_ff.Topology.masses sys.topo) ~box:sys.box
  in
  State.thermalize st (Rng.create 5) ~temp:cfg.E.temperature;
  let eng = E.create ~seed:5 sys.topo fc st cfg in
  check_recip_follows_box "Ewald" eng (fun box q x acc ->
      Mdsp_longrange.Ewald.reciprocal
        (Mdsp_longrange.Ewald.create ~beta ~kmax:5 box)
        q x acc)

let test_respa_energy_and_agreement () =
  (* RESPA with inner bonded steps should track the bead-chain dynamics
     with stable energies. *)
  let sys = Mdsp_workload.Workloads.bead_chain ~n_beads:8 ~n_total:64 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 120.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
      respa_inner = Some 4;
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  E.run eng 500;
  check_true "RESPA run stays finite" (Float.is_finite (E.total_energy eng));
  let t = E.temperature eng in
  check_true
    (Printf.sprintf "RESPA temperature sane (%.0f K)" t)
    (t > 30. && t < 400.)

let test_water_constrained_dynamics () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 1.0;
      temperature = 300.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  E.run eng 500;
  let st = E.state eng in
  check_true "constraints hold during dynamics"
    (Constraints.max_violation (E.constraints eng) st.State.box
       st.State.positions
    < 1e-6);
  check_close ~rel:0.35 "water temperature within range" 300.
    (E.temperature eng)

let test_set_temperature_switches_target () =
  let eng = lj_engine ~n:64 ~temp:100. ~equil:1500 () in
  E.set_temperature eng 200.;
  E.run eng 3000;
  let acc = Stats.Online.create () in
  for _ = 1 to 1500 do
    E.step eng;
    Stats.Online.add acc (E.temperature eng)
  done;
  check_close ~rel:0.08 "thermostat retargeted" 200. (Stats.Online.mean acc)

let test_pressure_virial_ideal_gas_limit () =
  (* A very dilute LJ gas should be close to ideal: P V = N k T. *)
  let sys = Mdsp_workload.Workloads.lj_fluid ~rho_star:0.05 ~n:108 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 4.0;
      temperature = 300.;
      thermostat = E.Langevin { gamma_fs = 0.01 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  E.run eng 2000;
  let acc = Stats.Online.create () in
  for _ = 1 to 4000 do
    E.step eng;
    Stats.Online.add acc (E.pressure_atm eng)
  done;
  let v = Pbc.volume (E.state eng).State.box in
  let p_ideal =
    Units.pressure_to_atm (108. *. Units.kt 300. /. v)
  in
  check_close ~rel:0.15 "dilute gas near ideal" p_ideal (Stats.Online.mean acc)

(* --- Virtual sites --- *)

let test_virtual_site_placement_and_spreading () =
  (* A site at the midpoint of two parents. *)
  let b = Mdsp_ff.Topology.Builder.create () in
  Mdsp_ff.Topology.Builder.set_lj_types b [| (0., 1.) |];
  let a0 = Mdsp_ff.Topology.Builder.add_atom b ~mass:10. ~charge:0. ~type_id:0 ~name:"A" in
  let a1 = Mdsp_ff.Topology.Builder.add_atom b ~mass:10. ~charge:0. ~type_id:0 ~name:"B" in
  let s = Mdsp_ff.Topology.Builder.add_atom b ~mass:1. ~charge:(-1.) ~type_id:0 ~name:"M" in
  Mdsp_ff.Topology.Builder.add_virtual_site b ~site:s
    ~parents:[| (a0, 0.5); (a1, 0.5) |];
  let topo = Mdsp_ff.Topology.Builder.finish b in
  check_true "is_virtual" (Mdsp_ff.Topology.is_virtual topo s);
  check_true "not virtual" (not (Mdsp_ff.Topology.is_virtual topo a0));
  Alcotest.(check int) "dof excludes site" (6 - 3) (Mdsp_ff.Topology.dof topo);
  let vs = Virtual_sites.create topo in
  let box = Pbc.cubic 10. in
  let pos = [| Vec3.make 1. 1. 1.; Vec3.make 3. 1. 1.; Vec3.zero |] in
  Virtual_sites.place vs box pos;
  check_true "placed at midpoint"
    (Vec3.equal_eps ~eps:1e-12 pos.(2) (Vec3.make 2. 1. 1.));
  (* Force on the site spreads half-half onto parents. *)
  let acc = Mdsp_ff.Bonded.make_accum 3 in
  acc.Mdsp_ff.Bonded.forces.(2) <- Vec3.make 4. 0. 0.;
  Virtual_sites.spread_forces vs acc;
  check_true "site zeroed" (Vec3.norm acc.Mdsp_ff.Bonded.forces.(2) = 0.);
  check_close ~rel:1e-12 "parent share" 2. acc.Mdsp_ff.Bonded.forces.(0).Vec3.x;
  check_close ~rel:1e-12 "parent share" 2. acc.Mdsp_ff.Bonded.forces.(1).Vec3.x

let test_virtual_site_pbc_placement () =
  (* Parents straddling the periodic boundary: the site must follow the
     molecule, not jump across the box. *)
  let b = Mdsp_ff.Topology.Builder.create () in
  Mdsp_ff.Topology.Builder.set_lj_types b [| (0., 1.) |];
  let a0 = Mdsp_ff.Topology.Builder.add_atom b ~mass:10. ~charge:0. ~type_id:0 ~name:"A" in
  let a1 = Mdsp_ff.Topology.Builder.add_atom b ~mass:10. ~charge:0. ~type_id:0 ~name:"B" in
  let s = Mdsp_ff.Topology.Builder.add_atom b ~mass:1. ~charge:0. ~type_id:0 ~name:"M" in
  Mdsp_ff.Topology.Builder.add_virtual_site b ~site:s
    ~parents:[| (a0, 0.5); (a1, 0.5) |];
  let topo = Mdsp_ff.Topology.Builder.finish b in
  let vs = Virtual_sites.create topo in
  let box = Pbc.cubic 10. in
  let pos = [| Vec3.make 9.8 0. 0.; Vec3.make 10.6 0. 0.; Vec3.zero |] in
  Virtual_sites.place vs box pos;
  check_close ~rel:1e-9 "follows the molecule across the boundary" 10.2
    pos.(2).Vec3.x

let test_virtual_site_validation () =
  let b = Mdsp_ff.Topology.Builder.create () in
  Mdsp_ff.Topology.Builder.set_lj_types b [| (0., 1.) |];
  let a0 = Mdsp_ff.Topology.Builder.add_atom b ~mass:1. ~charge:0. ~type_id:0 ~name:"A" in
  let a1 = Mdsp_ff.Topology.Builder.add_atom b ~mass:1. ~charge:0. ~type_id:0 ~name:"B" in
  Alcotest.check_raises "weights must sum to 1"
    (Invalid_argument "Topology.add_virtual_site: weights must sum to 1")
    (fun () ->
      Mdsp_ff.Topology.Builder.add_virtual_site b ~site:a0
        ~parents:[| (a1, 0.5) |]
      |> ignore);
  Alcotest.check_raises "self parent"
    (Invalid_argument "Topology.add_virtual_site: site cannot parent itself")
    (fun () ->
      Mdsp_ff.Topology.Builder.add_virtual_site b ~site:a0
        ~parents:[| (a0, 1.0) |]
      |> ignore)

let test_tip4p_dynamics () =
  let sys = Mdsp_workload.Workloads.water_box_tip4p ~n_side:3 () in
  Alcotest.(check int) "27 virtual sites" 27
    (Mdsp_ff.Topology.n_virtual_sites sys.Mdsp_workload.Workloads.topo);
  let cfg =
    {
      E.default_config with
      dt_fs = 1.0;
      temperature = 300.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  E.run eng 800;
  check_true "stays finite" (Float.is_finite (E.total_energy eng));
  (* Every M site sits exactly 0.15 A from its oxygen throughout. *)
  let st = E.state eng in
  let p = st.State.positions in
  for m = 0 to 26 do
    let d = Pbc.dist st.State.box p.(4 * m) p.((4 * m) + 3) in
    check_close ~rel:1e-6 "O-M distance held" Mdsp_ff.Water.Tip4p.om_dist d
  done;
  (* Virtual sites carry no velocity. *)
  for m = 0 to 26 do
    check_true "site velocity zero"
      (Vec3.norm st.State.velocities.((4 * m) + 3) = 0.)
  done

(* --- Observables --- *)

let test_observables_record_and_summarize () =
  let eng = lj_engine ~n:64 ~temp:120. ~equil:500 () in
  let obs = Observables.attach eng ~stride:5 in
  Observables.temperature obs;
  Observables.potential_energy obs;
  Observables.custom obs ~name:"half_T" (fun e -> E.temperature e /. 2.);
  E.run eng 500;
  let temps = Observables.series obs "temperature" in
  Alcotest.(check int) "100 samples" 100 (Array.length temps);
  let halves = Observables.series obs "half_T" in
  Array.iteri
    (fun i h -> check_close ~rel:1e-12 "custom channel" (temps.(i) /. 2.) h)
    halves;
  let sums = Observables.summaries obs in
  Alcotest.(check int) "three channels" 3 (List.length sums);
  let t_sum = List.find (fun s -> s.Observables.name = "temperature") sums in
  check_close ~rel:0.15 "mean temperature" 120. t_sum.Observables.mean;
  check_true "stderr positive" (t_sum.Observables.stderr > 0.);
  (* Detach stops recording. *)
  Observables.detach obs;
  E.run eng 50;
  Alcotest.(check int) "no more samples" 100
    (Array.length (Observables.series obs "temperature"))

let test_observables_validation () =
  let eng = lj_engine ~n:32 ~equil:10 () in
  let obs = Observables.attach eng ~stride:5 in
  Observables.temperature obs;
  Alcotest.check_raises "duplicate channel"
    (Invalid_argument "Observables.custom: duplicate channel \"temperature\"")
    (fun () -> Observables.temperature obs);
  (try
     ignore (Observables.series obs "nope");
     Alcotest.fail "expected Not_found"
   with Not_found -> ())

(* --- Minimizer --- *)

let test_minimize_reduces_energy () =
  (* The bead chain starts with overlaps: minimization must drop the
     potential energy dramatically and never increase it. *)
  let sys = Mdsp_workload.Workloads.bead_chain ~n_beads:12 ~n_total:96 () in
  let cfg = { E.default_config with dt_fs = 2.0; temperature = 120. } in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  let e0 = E.potential_energy eng in
  E.minimize eng ~steps:50;
  let e1 = E.potential_energy eng in
  E.minimize eng ~steps:150;
  let e2 = E.potential_energy eng in
  check_true "first phase reduces" (e1 < e0);
  check_true "monotone overall" (e2 <= e1 +. 1e-9);
  check_true "large reduction" (e2 < e0 /. 2.)

let test_minimize_respects_constraints () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  let cfg = { E.default_config with dt_fs = 1.0; temperature = 300. } in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  E.minimize eng ~steps:100;
  let st = E.state eng in
  check_true "constraints hold after minimization"
    (Constraints.max_violation (E.constraints eng) st.State.box
       st.State.positions
    < 1e-6)

(* --- Trajectory --- *)

let test_xyz_roundtrip () =
  let path = Filename.temp_file "mdsp_traj" ".xyz" in
  let box = Pbc.cubic 10. in
  let names = [| "AR"; "AR"; "OW" |] in
  let t = Trajectory.open_xyz path ~names in
  let f1 = [| Vec3.make 1. 2. 3.; Vec3.make 4. 5. 6.; Vec3.make 7. 8. 9. |] in
  let f2 = [| Vec3.make 1.5 2. 3.; Vec3.make 4. 5.5 6.; Vec3.make 7. 8. 9.5 |] in
  Trajectory.write_frame t box ~time_fs:0. f1;
  Trajectory.write_frame t box ~time_fs:2. f2;
  Trajectory.close_xyz t;
  let frames = Trajectory.read_xyz path in
  Sys.remove path;
  Alcotest.(check int) "two frames" 2 (List.length frames);
  let _, p1 = List.nth frames 0 in
  let _, p2 = List.nth frames 1 in
  check_true "frame 1" (max_vec_diff p1 f1 < 1e-5);
  check_true "frame 2" (max_vec_diff p2 f2 < 1e-5)

let test_xyz_wraps_positions () =
  let path = Filename.temp_file "mdsp_traj" ".xyz" in
  let box = Pbc.cubic 10. in
  let t = Trajectory.open_xyz path ~names:[| "X" |] in
  Trajectory.write_frame t box ~time_fs:0. [| Vec3.make 12. (-3.) 5. |];
  Trajectory.close_xyz t;
  let frames = Trajectory.read_xyz path in
  Sys.remove path;
  let _, p = List.hd frames in
  check_true "wrapped into the box"
    (Vec3.equal_eps ~eps:1e-5 p.(0) (Vec3.make 2. 7. 5.))

(* --- Soa: the flat (structure-of-arrays) store --- *)

let random_state ~seed ~n =
  let rng = Rng.create seed in
  let positions =
    Array.init n (fun _ ->
        Vec3.make
          (Rng.uniform_in rng (-3.) 15.)
          (Rng.uniform_in rng (-3.) 15.)
          (Rng.uniform_in rng (-3.) 15.))
  in
  let masses = Array.init n (fun i -> 1. +. (0.125 *. float_of_int i)) in
  let st = State.create ~positions ~masses ~box:(Pbc.cubic 12.375) in
  State.thermalize st rng ~temp:250.;
  st.State.time <- 17.25;
  st

let test_soa_round_trip_exact () =
  let st = random_state ~seed:11 ~n:97 in
  let soa = Soa.of_state st in
  let st2 = Soa.to_state soa in
  check_true "of_state/to_state round-trips bit for bit" (State.equal st st2);
  (* Column contents are exact copies, not recomputations. *)
  Array.iteri
    (fun i p ->
      check_true "x column exact" (soa.Soa.x.{i} = p.Vec3.x);
      check_true "y column exact" (soa.Soa.y.{i} = p.Vec3.y);
      check_true "z column exact" (soa.Soa.z.{i} = p.Vec3.z))
    st.State.positions

let test_soa_scatter_overwrites () =
  let st = random_state ~seed:12 ~n:16 in
  let soa = Soa.of_state st in
  for i = 0 to 15 do
    soa.Soa.fx.{i} <- float_of_int i;
    soa.Soa.fy.{i} <- -.float_of_int i;
    soa.Soa.fz.{i} <- 0.5 *. float_of_int i
  done;
  let acc = Mdsp_ff.Bonded.make_accum 16 in
  (* Pre-existing accumulator content must be replaced, not added to. *)
  acc.Mdsp_ff.Bonded.forces.(3) <- Vec3.make 100. 100. 100.;
  Soa.sync_store soa acc;
  Array.iteri
    (fun i f ->
      check_true "scatter overwrites"
        (f.Vec3.x = float_of_int i
        && f.Vec3.y = -.float_of_int i
        && f.Vec3.z = 0.5 *. float_of_int i))
    acc.Mdsp_ff.Bonded.forces

let test_soa_load_clear () =
  let st = random_state ~seed:13 ~n:33 in
  let soa = Soa.create ~box:st.State.box 33 in
  soa.Soa.fx.{7} <- 3.25;
  Soa.sync_load soa st.State.positions;
  check_true "sync_load clears forces" (soa.Soa.fx.{7} = 0.);
  check_true "position column exact"
    (soa.Soa.y.{5} = st.State.positions.(5).Vec3.y);
  let soa = Soa.of_state st in
  soa.Soa.fz.{7} <- 3.25;
  Soa.clear_forces soa;
  check_true "forces cleared" (soa.Soa.fz.{7} = 0.);
  check_true "velocity column exact"
    (soa.Soa.vy.{5} = st.State.velocities.(5).Vec3.y)

(* [sync_load ~forces] seeds the force columns with an exact copy of the
   boxed forces, -0. and subnormals included; without [~forces] it still
   zeroes them, and forces of the wrong length are rejected. *)
let test_soa_load_seeded () =
  let st = random_state ~seed:14 ~n:33 in
  let x = st.State.positions in
  let soa = Soa.create ~box:st.State.box 33 in
  let forces = Array.mapi (fun i p -> Vec3.scale (float_of_int (i - 9)) p) x in
  forces.(3) <- Vec3.make (-0.) (Float.succ 0.) (-.Float.min_float /. 8.);
  let bits = Int64.bits_of_float in
  let columns_are f =
    let ok = ref true in
    for i = 0 to 32 do
      let v = f i in
      if
        bits soa.Soa.fx.{i} <> bits v.Vec3.x
        || bits soa.Soa.fy.{i} <> bits v.Vec3.y
        || bits soa.Soa.fz.{i} <> bits v.Vec3.z
      then ok := false
    done;
    !ok
  in
  Soa.sync_load ~forces soa x;
  check_true "seeded columns copy the forces bit for bit"
    (columns_are (fun i -> forces.(i)));
  check_true "seeded load still copies positions"
    (soa.Soa.y.{5} = x.(5).Vec3.y);
  Soa.sync_load soa x;
  check_true "unseeded load zeroes the columns"
    (columns_are (fun _ -> Vec3.zero));
  Alcotest.check_raises "forces of the wrong length"
    (Invalid_argument "Soa.sync_load: length mismatch") (fun () ->
      Soa.sync_load ~forces:(Array.sub forces 0 32) soa x)

(* --- allocation budgets --- *)

(* Minor words per step of small stand-ins for the benchmark's MD paths:
   serial executor, seed 1, Langevin at 300 K with dt 2 fs, 10 warm-up
   steps, then the mean over 10 steps. The counts repeat to the word in a
   given build profile; the budgets are the counts under dune's dev
   profile (the one [dune runtest] builds) plus 64 words, so one more
   allocation per atom per step fails even on lj256. A change that lowers
   a count lowers its budget. *)
let allocation_budgets =
  [
    ("lj256", 54_025.2);
    ("chain2k after 20 minimize steps", 446_511.6);
    ("water n_side 5, GSE 16^3", 106_401.5);
  ]

let minor_words_per_step ?gse_grid ?(minimize = 0) sys =
  let config =
    {
      E.default_config with
      dt_fs = 2.;
      temperature = 300.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let exec = Exec.create Exec.Serial in
  let eng =
    Mdsp_workload.Workloads.make_engine ~config ?gse_grid ~seed:1 ~exec sys
  in
  if minimize > 0 then E.minimize eng ~steps:minimize;
  E.run eng 10;
  let w0 = Gc.minor_words () in
  E.run eng 10;
  (Gc.minor_words () -. w0) /. 10.

let test_allocation_budgets () =
  let module W = Mdsp_workload.Workloads in
  let counts =
    [
      minor_words_per_step (W.lj_fluid ~n:256 ());
      minor_words_per_step ~minimize:20 (W.of_name "chain2k");
      minor_words_per_step ~gse_grid:(16, 16, 16) (W.water_box ~n_side:5 ());
    ]
  in
  List.iter2
    (fun (name, budget) words ->
      check_true
        (Printf.sprintf "%s: %.1f minor words per step <= budget %.1f" name
           words budget)
        (words <= budget))
    allocation_budgets counts

let () =
  Alcotest.run "mdsp_md"
    [
      ( "state",
        [
          Alcotest.test_case "kinetic/temperature" `Quick
            test_state_kinetic_temperature;
          Alcotest.test_case "thermalize" `Quick
            test_state_thermalize_temperature;
          Alcotest.test_case "copy/blit" `Quick test_state_copy_blit;
          Alcotest.test_case "scale velocities" `Quick test_scale_velocities;
        ] );
      ( "soa",
        [
          Alcotest.test_case "of_state/to_state round-trip" `Quick
            test_soa_round_trip_exact;
          Alcotest.test_case "scatter_forces overwrites" `Quick
            test_soa_scatter_overwrites;
          Alcotest.test_case "load/clear columns" `Quick test_soa_load_clear;
          Alcotest.test_case "seeded load copies forces" `Quick
            test_soa_load_seeded;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "SHAKE restores" `Quick
            test_shake_restores_constraints;
          Alcotest.test_case "RATTLE projects velocities" `Quick
            test_rattle_removes_radial_velocity;
          Alcotest.test_case "none" `Quick test_constraints_none;
          Alcotest.test_case "unconverged SHAKE names its cluster" `Quick
            test_shake_unconverged_structured;
          Alcotest.test_case "SHAKE rejects a NaN position" `Quick
            test_shake_nan_unconverged;
          Alcotest.test_case "RATTLE rejects a NaN velocity" `Quick
            test_rattle_nan_unconverged;
          Alcotest.test_case "SHAKE/RATTLE = boxed oracle bitwise" `Quick
            test_constraints_match_oracle;
          Alcotest.test_case "failures = boxed oracle bitwise" `Quick
            test_constraints_failures_match_oracle;
          Alcotest.test_case "SHAKE/RATTLE allocation" `Quick
            test_constraints_allocation;
          Alcotest.test_case "SHAKE rejects prev == positions" `Quick
            test_shake_rejects_aliased_prev;
        ] );
      ( "integration",
        [
          Alcotest.test_case "NVE conservation" `Slow
            test_nve_energy_conservation;
          Alcotest.test_case "timestep scaling" `Slow test_nve_timestep_scaling;
          Alcotest.test_case "RESPA stability" `Slow
            test_respa_energy_and_agreement;
          Alcotest.test_case "water constrained dynamics" `Slow
            test_water_constrained_dynamics;
        ] );
      ( "thermostats",
        [
          Alcotest.test_case "Langevin" `Slow test_langevin_temperature;
          Alcotest.test_case "Nose-Hoover" `Slow test_nose_hoover_temperature;
          Alcotest.test_case "Berendsen" `Slow test_berendsen_temperature;
          Alcotest.test_case "Maxwell velocities" `Slow
            test_velocity_distribution_maxwell;
          Alcotest.test_case "retarget temperature" `Slow
            test_set_temperature_switches_target;
        ] );
      ( "barostats",
        [
          Alcotest.test_case "Berendsen relaxes pressure" `Slow
            test_berendsen_barostat_relaxes_pressure;
          Alcotest.test_case "MC barostat" `Slow test_mc_barostat_runs_and_relaxes;
          Alcotest.test_case "long-range handle follows the box" `Quick
            test_longrange_follows_box;
          Alcotest.test_case "ideal gas pressure" `Slow
            test_pressure_virial_ideal_gas_limit;
        ] );
      ( "engine",
        [
          Alcotest.test_case "COM removal" `Quick test_com_removal;
          Alcotest.test_case "post-step hooks" `Quick test_post_step_hooks;
          Alcotest.test_case "allocation budgets" `Quick
            test_allocation_budgets;
        ] );
      ( "observables",
        [
          Alcotest.test_case "record and summarize" `Quick
            test_observables_record_and_summarize;
          Alcotest.test_case "validation" `Quick test_observables_validation;
        ] );
      ( "minimizer",
        [
          Alcotest.test_case "reduces energy" `Quick
            test_minimize_reduces_energy;
          Alcotest.test_case "respects constraints" `Quick
            test_minimize_respects_constraints;
        ] );
      ( "trajectory",
        [
          Alcotest.test_case "xyz roundtrip" `Quick test_xyz_roundtrip;
          Alcotest.test_case "xyz wraps" `Quick test_xyz_wraps_positions;
        ] );
      ( "virtual_sites",
        [
          Alcotest.test_case "placement and spreading" `Quick
            test_virtual_site_placement_and_spreading;
          Alcotest.test_case "PBC placement" `Quick
            test_virtual_site_pbc_placement;
          Alcotest.test_case "validation" `Quick test_virtual_site_validation;
          Alcotest.test_case "TIP4P dynamics" `Slow test_tip4p_dynamics;
        ] );
    ]
