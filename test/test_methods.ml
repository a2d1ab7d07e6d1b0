(* Tests for the generality-layer methods: CVs, metadynamics, steered MD,
   umbrella sampling, tempering, REMD, FEP, TAMD, accelerated MD, string
   method, and the machine mapping. *)

open Mdsp_util
open Mdsp_core
open Testsupport
module E = Mdsp_md.Engine

(* --- Collective variables: gradients vs numerics --- *)

let check_cv_gradient ?(rel = 1e-4) (cv : Cv.t) box positions =
  let grads = cv.Cv.gradient box positions in
  let h = 1e-6 in
  List.iter
    (fun (i, g) ->
      let num axis =
        let shift d =
          let p = Array.copy positions in
          let v = p.(i) in
          p.(i) <-
            (match axis with
            | `X -> Vec3.make (v.Vec3.x +. d) v.Vec3.y v.Vec3.z
            | `Y -> Vec3.make v.Vec3.x (v.Vec3.y +. d) v.Vec3.z
            | `Z -> Vec3.make v.Vec3.x v.Vec3.y (v.Vec3.z +. d));
          cv.Cv.value box p
        in
        (shift h -. shift (-.h)) /. (2. *. h)
      in
      let n = Vec3.make (num `X) (num `Y) (num `Z) in
      let tol = Float.max (rel *. Vec3.norm n) 1e-6 in
      if Vec3.dist g n > tol then
        Alcotest.failf "CV %s gradient mismatch on atom %d: %s vs %s"
          cv.Cv.cv_name i (Vec3.to_string g) (Vec3.to_string n))
    grads

let test_cv_distance () =
  let box = Pbc.cubic 20. in
  let pos = [| Vec3.make 3. 4. 5.; Vec3.make 6. 8. 9. |] in
  let cv = Cv.distance ~i:0 ~j:1 in
  check_close ~rel:1e-12 "value" (sqrt 41.) (cv.Cv.value box pos);
  check_cv_gradient cv box pos;
  (* Across the periodic boundary. *)
  let pos2 = [| Vec3.make 0.5 0. 0.; Vec3.make 19.5 0. 0. |] in
  check_close ~rel:1e-9 "min image distance" 1. (cv.Cv.value box pos2)

let test_cv_position () =
  let box = Pbc.cubic 20. in
  let pos = [| Vec3.make 13. 9. 10. |] in
  let cvx = Cv.position ~axis:`X ~i:0 in
  let cvy = Cv.position ~axis:`Y ~i:0 in
  check_close ~rel:1e-12 "x rel center" 3. (cvx.Cv.value box pos);
  check_close ~rel:1e-12 "y rel center" (-1.) (cvy.Cv.value box pos);
  check_cv_gradient cvx box pos

let test_cv_com_distance () =
  let box = Pbc.cubic 30. in
  let masses = [| 2.; 2.; 4.; 4. |] in
  let pos =
    [|
      Vec3.make 10. 10. 10.; Vec3.make 12. 10. 10.;
      Vec3.make 20. 10. 10.; Vec3.make 22. 10. 10.;
    |]
  in
  let cv =
    Cv.com_distance ~group_a:[| 0; 1 |] ~group_b:[| 2; 3 |] ~masses
  in
  check_close ~rel:1e-9 "COM distance" 10. (cv.Cv.value box pos);
  check_cv_gradient cv box pos

let test_cv_coordination () =
  let box = Pbc.cubic 30. in
  let pos =
    [|
      Vec3.make 10. 10. 10.;
      Vec3.make 12. 10. 10.;  (* r = 2 = r0: contributes 1/2 *)
      Vec3.make 24. 10. 10.;  (* far: ~ 0 *)
    |]
  in
  let cv = Cv.coordination ~i:0 ~others:[| 1; 2 |] ~r0:2.0 in
  check_close ~rel:1e-3 "coordination half at r0" 0.5 (cv.Cv.value box pos);
  check_cv_gradient cv box pos

let test_cv_angle () =
  let box = Pbc.cubic 20. in
  (* 90-degree angle at atom 1. *)
  let pos = [| Vec3.make 2. 1. 1.; Vec3.make 1. 1. 1.; Vec3.make 1. 3. 1. |] in
  let cv = Cv.angle ~i:0 ~j:1 ~k:2 in
  check_close ~rel:1e-9 "right angle" (Float.pi /. 2.) (cv.Cv.value box pos);
  check_cv_gradient cv box pos;
  (* A generic non-degenerate geometry too. *)
  let pos2 =
    [| Vec3.make 2. 1.5 0.8; Vec3.make 1. 1. 1.; Vec3.make 0.7 2.8 1.9 |]
  in
  check_cv_gradient cv box pos2

let test_cv_gyration_radius () =
  let box = Pbc.cubic 30. in
  let masses = [| 1.; 1.; 1.; 1. |] in
  (* Four unit-mass atoms at the corners of a square of side 2: every atom
     sits sqrt(2) from the COM. *)
  let pos =
    [|
      Vec3.make 9. 9. 10.; Vec3.make 11. 9. 10.;
      Vec3.make 11. 11. 10.; Vec3.make 9. 11. 10.;
    |]
  in
  let cv = Cv.gyration_radius ~atoms:[| 0; 1; 2; 3 |] ~masses in
  check_close ~rel:1e-9 "Rg of square" (sqrt 2.) (cv.Cv.value box pos);
  check_cv_gradient cv box pos;
  (* Uniform translation leaves Rg unchanged. *)
  let shifted = Array.map (fun p -> Vec3.add p (Vec3.make 3. (-1.) 2.)) pos in
  check_close ~rel:1e-9 "translation invariant" (sqrt 2.)
    (cv.Cv.value box shifted)

let test_cv_dihedral () =
  let box = Pbc.cubic 30. in
  (* Trans-like geometry: phi near pi. *)
  let pos =
    [|
      Vec3.make 9. 11. 10.; Vec3.make 10. 10. 10.;
      Vec3.make 11. 10. 10.; Vec3.make 12. 9. 10.;
    |]
  in
  let cv = Cv.dihedral ~i:0 ~j:1 ~k:2 ~l:3 in
  check_close ~rel:1e-6 "trans is pi" Float.pi
    (abs_float (cv.Cv.value box pos));
  (* A generic twisted geometry: gradient vs numerics. *)
  let pos2 =
    [|
      Vec3.make 9. 11. 10.3; Vec3.make 10. 10. 10.;
      Vec3.make 11. 10.2 10.1; Vec3.make 12. 10.9 11.2;
    |]
  in
  check_cv_gradient cv box pos2;
  (* Gradient sums to zero (translation invariance). *)
  let total =
    List.fold_left
      (fun acc (_, g) -> Vec3.add acc g)
      Vec3.zero
      (cv.Cv.gradient box pos2)
  in
  check_true "gradient translation-invariant" (Vec3.norm total < 1e-9)

let test_harmonic_bias_energy_and_tracking () =
  let box = Pbc.cubic 20. in
  let pos = [| Vec3.make 10. 10. 10.; Vec3.make 13. 10. 10. |] in
  let cv = Cv.distance ~i:0 ~j:1 in
  let bias, last =
    Cv.harmonic_bias_tracked ~name:"t" ~cv ~k:5. ~center:(fun () -> 2.)
  in
  let acc = Mdsp_ff.Bonded.make_accum 2 in
  let e = bias.Mdsp_md.Force_calc.bias_compute box pos acc in
  check_close ~rel:1e-9 "bias energy" 5. e;
  check_close ~rel:1e-9 "tracked value" 3. (last ())

(* --- Metadynamics --- *)

let test_metadynamics_bias_math () =
  let cv = Cv.position ~axis:`X ~i:0 in
  let m =
    Metadynamics.create ~cvs:[| cv |] ~sigmas:[| 0.5 |] ~height:1.0 ~stride:10
      ~temp:300. ()
  in
  check_float ~eps:0. "no hills yet" 0. (Metadynamics.bias_energy m [| 0. |]);
  Alcotest.(check int) "count" 0 (Metadynamics.n_hills m)

let test_metadynamics_deposits_and_biases () =
  let sys = Mdsp_workload.Workloads.double_well () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 300.;
      thermostat = E.Langevin { gamma_fs = 0.01 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  let cv = Cv.position ~axis:`X ~i:0 in
  let m =
    Metadynamics.create ~cvs:[| cv |] ~sigmas:[| 0.3 |] ~height:0.05 ~stride:25
      ~temp:300. ()
  in
  Metadynamics.attach m eng;
  (* Deposit little enough total bias (24 * 0.05 = 1.2 kcal/mol << 3
     kcal/mol barrier) that the walker cannot yet have escaped. *)
  E.run eng 600;
  Alcotest.(check int) "one hill per stride" 24 (Metadynamics.n_hills m);
  check_true "starting well filled first"
    (Metadynamics.bias_energy m [| -2.5 |]
    > Metadynamics.bias_energy m [| 2.5 |])

let test_metadynamics_well_tempered_heights_decay () =
  let sys = Mdsp_workload.Workloads.double_well () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 300.;
      thermostat = E.Langevin { gamma_fs = 0.01 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  let cv = Cv.position ~axis:`X ~i:0 in
  let m =
    Metadynamics.create ~well_tempered:1500. ~cvs:[| cv |] ~sigmas:[| 0.3 |]
      ~height:0.2 ~stride:25 ~temp:300. ()
  in
  Metadynamics.attach m eng;
  E.run eng 5000;
  (* Well-tempered bias converges: total bias < plain-deposition total. *)
  let total = Metadynamics.bias_energy m [| -2.5 |] in
  check_true "well-tempered bias stays bounded"
    (total < 0.2 *. float_of_int (Metadynamics.n_hills m))

(* --- 2D metadynamics --- *)

let test_metadynamics_2d_bias_and_forces () =
  let cv1 = Cv.position ~axis:`X ~i:0 in
  let cv2 = Cv.position ~axis:`Y ~i:0 in
  let m =
    Metadynamics.create ~cvs:[| cv1; cv2 |] ~sigmas:[| 0.5; 0.7 |] ~height:1.2
      ~stride:10 ~temp:300. ()
  in
  check_float ~eps:0. "empty" 0. (Metadynamics.bias_energy m [| 0.; 0. |]);
  (* Deposit by driving the private path through an engine hook. *)
  let sys = Mdsp_workload.Workloads.double_well_2d () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 200.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  Metadynamics.attach m eng;
  E.run eng 200;
  Alcotest.(check int) "hills deposited" 20 (Metadynamics.n_hills m);
  (* The bias is positive where the walker has been. *)
  let st = E.state eng in
  let box = st.Mdsp_md.State.box in
  let s1 = cv1.Cv.value box st.Mdsp_md.State.positions in
  let s2 = cv2.Cv.value box st.Mdsp_md.State.positions in
  check_true "bias accumulated at walker"
    (Metadynamics.bias_energy m [| s1; s2 |] > 0.);
  (* The surface is -scale * bias everywhere. *)
  let surf =
    Metadynamics.free_energy_surface m ~lo1:(-3.) ~hi1:3. ~bins1:6 ~lo2:(-3.)
      ~hi2:3. ~bins2:6
  in
  Array.iter
    (Array.iter (fun (a, b, f) ->
         check_close ~rel:1e-9 "surface consistency"
           (-.Metadynamics.bias_energy m [| a; b |])
           f))
    surf

let test_metadynamics_2d_surface_and_path () =
  let cv1 = Cv.position ~axis:`X ~i:0 in
  let cv2 = Cv.position ~axis:`Y ~i:0 in
  let sys = Mdsp_workload.Workloads.double_well_2d () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 250.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  let m =
    Metadynamics.create ~well_tempered:2500. ~cvs:[| cv1; cv2 |]
      ~sigmas:[| 0.4; 0.4 |] ~height:0.2 ~stride:20 ~temp:250. ()
  in
  Metadynamics.attach m eng;
  E.run eng 60_000;
  check_true "many hills" (Metadynamics.n_hills m > 1000);
  (* Crossings go through the bowed channel, so the accumulated bias at the
     channel apex (0, 1.5) must dominate the straight-line saddle point
     (0, -1), i.e. the free-energy surface prefers the channel. *)
  let b_channel = Metadynamics.bias_energy m [| 0.; 1.5 |] in
  let b_straight = Metadynamics.bias_energy m [| 0.; -1.0 |] in
  check_true
    (Printf.sprintf "channel sampled more (%.2f > %.2f)" b_channel b_straight)
    (b_channel > b_straight);
  (* And the ridge path machinery returns one point per x column. *)
  let path =
    Metadynamics.ridge_path m ~lo1:(-3.) ~hi1:3. ~bins1:13 ~lo2:(-1.) ~hi2:3.
      ~bins2:17
  in
  Alcotest.(check int) "path columns" 13 (Array.length path)

(* --- Metadynamics over k CVs --- *)

(* The double-well particle without its external potential: the only
   force left in [compute_class `Fast] is the metadynamics bias. *)
let free_particle_engine () =
  let module W = Mdsp_workload.Workloads in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 300.;
      thermostat = E.Langevin { gamma_fs = 0.01 };
    }
  in
  W.make_engine ~config:cfg { (W.double_well ()) with W.label = "free" }

(* Bias energy and force on particle 0 as the engine's force pass sees
   them. *)
let bias_terms eng =
  let st = E.state eng in
  let acc = Mdsp_ff.Bonded.make_accum 1 in
  let e =
    Mdsp_md.Force_calc.compute_class (E.force_calc eng) `Fast
      st.Mdsp_md.State.box st.Mdsp_md.State.positions acc
  in
  (e.Mdsp_md.Force_calc.bias, acc.Mdsp_ff.Bonded.forces.(0))

(* The two-fold hill sums the one-pass sum replaced: energy in one fold,
   dV/ds in another, each hill's weight computed twice. Hills are
   (center, height), newest first. *)
let two_pass_energy_1d sigma hills s =
  List.fold_left
    (fun acc (c, h) ->
      let d = (s.(0) -. c.(0)) /. sigma.(0) in
      acc +. (h *. exp (-0.5 *. d *. d)))
    0. hills

let two_pass_force_1d sigma hills s g =
  let de_ds =
    List.fold_left
      (fun acc (c, h) ->
        let d = (s.(0) -. c.(0)) /. sigma.(0) in
        acc +. (h *. exp (-0.5 *. d *. d) *. (-.d /. sigma.(0))))
      0. hills
  in
  Vec3.add Vec3.zero (Vec3.scale (-.de_ds) g.(0))

let two_pass_energy_2d sigma hills s =
  List.fold_left
    (fun acc (c, h) ->
      let d1 = (s.(0) -. c.(0)) /. sigma.(0) in
      let d2 = (s.(1) -. c.(1)) /. sigma.(1) in
      acc +. (h *. exp (-0.5 *. ((d1 *. d1) +. (d2 *. d2)))))
    0. hills

let two_pass_force_2d sigma hills s g =
  let dv1, dv2 =
    List.fold_left
      (fun (g1, g2) (c, h) ->
        let d1 = (s.(0) -. c.(0)) /. sigma.(0) in
        let d2 = (s.(1) -. c.(1)) /. sigma.(1) in
        let e = h *. exp (-0.5 *. ((d1 *. d1) +. (d2 *. d2))) in
        (g1 -. (e *. d1 /. sigma.(0)), g2 -. (e *. d2 /. sigma.(1))))
      (0., 0.) hills
  in
  Vec3.axpy (-.dv2) g.(1) (Vec3.axpy (-.dv1) g.(0) Vec3.zero)

(* 50 well-tempered hills at seeded CV points, deposited through the
   engine hook, then the bias at 20 seeded points against the two-pass
   sums. The CVs read scripted values, so the test places every hill and
   every probe; their gradients are the position CVs' unit vectors. *)
let check_against_two_pass ~sigmas ~energy ~force ~check_force =
  let k = Array.length sigmas in
  let rng = Rng.create (2024 + k) in
  let cur = Array.make k 0. in
  let axes = [| `X; `Y |] in
  let cvs =
    Array.init k (fun c ->
        {
          (Cv.position ~axis:axes.(c) ~i:0) with
          Cv.value = (fun _ _ -> cur.(c));
        })
  in
  let grads =
    Array.map
      (fun cv -> snd (List.hd (cv.Cv.gradient (Pbc.cubic 20.) [| Vec3.zero |])))
      cvs
  in
  let eng = free_particle_engine () in
  let delta_t = 1200. and w0 = 0.3 in
  let m =
    Metadynamics.create ~well_tempered:delta_t ~cvs ~sigmas ~height:w0
      ~stride:1 ~temp:300. ()
  in
  Metadynamics.attach m eng;
  let hills = ref [] in
  for _ = 1 to 50 do
    let c = Array.init k (fun _ -> Rng.uniform_in rng (-2.) 2.) in
    Array.blit c 0 cur 0 k;
    E.run eng 1;
    let h = w0 *. exp (-.energy sigmas !hills c /. (Units.k_b *. delta_t)) in
    hills := (c, h) :: !hills
  done;
  Alcotest.(check int) "hills deposited" 50 (Metadynamics.n_hills m);
  let bits = Int64.bits_of_float in
  for p = 1 to 20 do
    let s = Array.init k (fun _ -> Rng.uniform_in rng (-2.5) 2.5) in
    Array.blit s 0 cur 0 k;
    let e_ref = energy sigmas !hills s in
    check_true
      (Printf.sprintf "%dD point %d: bias_energy %h = two-pass %h" k p
         (Metadynamics.bias_energy m s) e_ref)
      (bits (Metadynamics.bias_energy m s) = bits e_ref);
    let e, f = bias_terms eng in
    check_true
      (Printf.sprintf "%dD point %d: force-pass energy %h = two-pass %h" k p e
         e_ref)
      (bits e = bits e_ref);
    check_force
      (Printf.sprintf "%dD point %d" k p)
      (force sigmas !hills s grads)
      f
  done

let test_metadynamics_matches_two_pass () =
  let bitwise msg (a : Vec3.t) (b : Vec3.t) =
    let bits = Int64.bits_of_float in
    check_true
      (Printf.sprintf "%s: force %s = two-pass %s" msg (Vec3.to_string b)
         (Vec3.to_string a))
      (bits a.Vec3.x = bits b.Vec3.x
      && bits a.Vec3.y = bits b.Vec3.y
      && bits a.Vec3.z = bits b.Vec3.z)
  in
  check_against_two_pass ~sigmas:[| 0.35 |] ~energy:two_pass_energy_1d
    ~force:two_pass_force_1d ~check_force:bitwise;
  (* Two CVs: the gradient share is now w * (-d/sigma), not the old
     -(w d / sigma), so forces agree to rounding only. *)
  let close msg (a : Vec3.t) (b : Vec3.t) =
    check_true
      (Printf.sprintf "%s: force %s vs two-pass %s" msg (Vec3.to_string b)
         (Vec3.to_string a))
      (Vec3.dist a b <= 1e-12 *. Vec3.norm a)
  in
  check_against_two_pass ~sigmas:[| 0.35; 0.6 |] ~energy:two_pass_energy_2d
    ~force:two_pass_force_2d ~check_force:close

let test_metadynamics_three_cvs () =
  let eng = free_particle_engine () in
  let cvs = Array.map (fun axis -> Cv.position ~axis ~i:0) [| `X; `Y; `Z |] in
  let m =
    Metadynamics.create ~cvs ~sigmas:[| 0.4; 0.5; 0.6 |] ~height:0.2
      ~stride:10 ~temp:300. ()
  in
  Metadynamics.attach m eng;
  E.run eng 300;
  Alcotest.(check int) "one hill per stride" 30 (Metadynamics.n_hills m);
  (* The bias force on the particle is minus the gradient of bias_energy
     (each position CV has a unit gradient), at points around the walker. *)
  let st = E.state eng in
  let box = st.Mdsp_md.State.box in
  let rng = Rng.create 3 in
  let walker = st.Mdsp_md.State.positions.(0) in
  for p = 1 to 10 do
    st.Mdsp_md.State.positions.(0) <-
      Vec3.axpy 0.5 (Rng.gaussian_vec rng) walker;
    let s =
      Array.map (fun cv -> cv.Cv.value box st.Mdsp_md.State.positions) cvs
    in
    let h = 1e-5 in
    let slope c =
      let at d =
        Metadynamics.bias_energy m
          (Array.mapi (fun c' v -> if c' = c then v +. d else v) s)
      in
      (at h -. at (-.h)) /. (2. *. h)
    in
    let numeric = Vec3.make (-.slope 0) (-.slope 1) (-.slope 2) in
    let _, f = bias_terms eng in
    check_true
      (Printf.sprintf "point %d: force %s vs -grad %s" p (Vec3.to_string f)
         (Vec3.to_string numeric))
      (Vec3.dist f numeric <= 1e-6 *. Vec3.norm numeric)
  done

let test_metadynamics_rejects_bad_shapes () =
  let x = Cv.position ~axis:`X ~i:0 and y = Cv.position ~axis:`Y ~i:0 in
  let make cvs sigmas =
    Metadynamics.create ~cvs ~sigmas ~height:0.1 ~stride:10 ~temp:300. ()
  in
  let rejects msg f =
    check_true msg
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  rejects "no CV" (fun () -> ignore (make [||] [||]));
  rejects "two CVs, one sigma" (fun () -> ignore (make [| x; y |] [| 0.3 |]));
  let m2 = make [| x; y |] [| 0.3; 0.3 |] in
  rejects "free_energy_estimate on two CVs" (fun () ->
      ignore (Metadynamics.free_energy_estimate m2 ~lo:(-1.) ~hi:1. ~bins:4));
  let m1 = make [| x |] [| 0.3 |] in
  rejects "free_energy_surface on one CV" (fun () ->
      ignore
        (Metadynamics.free_energy_surface m1 ~lo1:(-1.) ~hi1:1. ~bins1:4
           ~lo2:(-1.) ~hi2:1. ~bins2:4));
  rejects "ridge_path on one CV" (fun () ->
      ignore
        (Metadynamics.ridge_path m1 ~lo1:(-1.) ~hi1:1. ~bins1:4 ~lo2:(-1.)
           ~hi2:1. ~bins2:4))

(* --- Steered MD --- *)

let test_smd_pulls_and_accumulates_work () =
  let eng = lj_engine ~n:64 ~equil:500 () in
  let cv = Cv.distance ~i:0 ~j:1 in
  let st = E.state eng in
  let start = cv.Cv.value st.Mdsp_md.State.box st.Mdsp_md.State.positions in
  let smd =
    Smd.create ~cv ~k:20. ~start ~speed_per_step:0.002 ~record_stride:10 ()
  in
  Smd.attach smd eng;
  E.run eng 2000;
  let final = cv.Cv.value st.Mdsp_md.State.box st.Mdsp_md.State.positions in
  check_close ~rel:1e-9 "center advanced" (start +. (0.002 *. 2000.))
    (Smd.center smd);
  check_true "CV followed the restraint" (final > start +. 2.);
  check_true "trace recorded" (List.length (Smd.trace smd) >= 190);
  check_true "work finite" (Float.is_finite (Smd.work smd))

(* --- Umbrella sampling --- *)

let test_umbrella_recovers_double_well_pmf () =
  let make_engine () =
    let sys = Mdsp_workload.Workloads.double_well () in
    let cfg =
      {
        E.default_config with
        dt_fs = 2.0;
        temperature = 300.;
        thermostat = E.Langevin { gamma_fs = 0.02 };
      }
    in
    Mdsp_workload.Workloads.make_engine ~config:cfg sys
  in
  let cv = Cv.position ~axis:`X ~i:0 in
  let centers = Array.init 13 (fun i -> -3.0 +. (0.5 *. float_of_int i)) in
  let plan =
    Umbrella.make_plan ~cv ~k:4.0 ~centers ~equil_steps:400 ~sample_steps:3000
      ~sample_stride:5
  in
  let results = Umbrella.run plan ~make_engine in
  let p = Umbrella.solve ~temp:300. ~lo:(-3.4) ~hi:3.4 ~bins:40 results in
  (* The recovered PMF should show the 3 kcal/mol barrier at x ~ 0. *)
  let f_at x =
    let best = ref infinity and bf = ref nan in
    Array.iteri
      (fun b c ->
        if abs_float (c -. x) < !best && not (Float.is_nan p.Mdsp_analysis.Wham.free_energy.(b))
        then begin
          best := abs_float (c -. x);
          bf := p.Mdsp_analysis.Wham.free_energy.(b)
        end)
      p.Mdsp_analysis.Wham.centers;
    !bf
  in
  let barrier = f_at 0. -. Float.min (f_at (-2.5)) (f_at 2.5) in
  check_true
    (Printf.sprintf "umbrella/WHAM barrier %.2f in [2, 4]" barrier)
    (barrier > 2.0 && barrier < 4.0)

(* --- Simulated tempering --- *)

let test_tempering_walks_ladder () =
  let eng = lj_engine ~n:108 ~temp:120. ~equil:1000 () in
  let temps = [| 120.; 132.; 145.; 160. |] in
  let st = Tempering.create ~temps ~stride:50 () in
  Tempering.attach st eng;
  E.run eng 30_000;
  let visits = Tempering.visits st in
  Array.iteri
    (fun i v ->
      check_true (Printf.sprintf "rung %d visited (%d)" i v) (v > 10))
    visits;
  check_true "healthy acceptance"
    (Tempering.acceptance_rate st > 0.1);
  check_true "weights ordered sensibly"
    (Array.length (Tempering.weights st) = 4)

let test_tempering_freeze () =
  let eng = lj_engine ~n:64 ~temp:120. ~equil:200 () in
  let st = Tempering.create ~temps:[| 120.; 140. |] ~stride:20 () in
  Tempering.attach st eng;
  E.run eng 2000;
  Tempering.freeze_adaption st;
  let w = Tempering.weights st in
  E.run eng 2000;
  Alcotest.check Alcotest.(array (Alcotest.float 1e-12))
    "weights frozen" w (Tempering.weights st)

let test_tempering_validation () =
  Alcotest.check_raises "decreasing temps"
    (Invalid_argument "Tempering.create: temperatures must increase")
    (fun () -> ignore (Tempering.create ~temps:[| 300.; 200. |] ~stride:10 ()))

(* --- REMD --- *)

let test_remd_exchanges_and_bookkeeping () =
  let temps = [| 120.; 135.; 150. |] in
  let engines =
    Array.mapi
      (fun i t ->
        let sys = Mdsp_workload.Workloads.lj_fluid ~n:64 () in
        let cfg =
          {
            E.default_config with
            dt_fs = 2.0;
            temperature = t;
            thermostat = E.Langevin { gamma_fs = 0.02 };
          }
        in
        Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:(100 + i) sys)
      temps
  in
  Array.iter (fun e -> E.run e 500) engines;
  let remd = Remd.create ~engines ~temps ~stride:25 ~seed:7 in
  Remd.run remd ~sweeps:80;
  let acc = Remd.acceptance remd in
  Array.iteri
    (fun i a ->
      check_true (Printf.sprintf "pair %d acceptance %.2f > 0.05" i a) (a > 0.05))
    acc;
  (* Config tracking is a permutation of rungs. *)
  let cfg_of = Remd.replica_of_config remd in
  let sorted = Array.copy cfg_of in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" [| 0; 1; 2 |] sorted;
  check_true "bytes model positive" (Remd.method_bytes_per_step remd ~n_atoms:64 > 0.)

(* --- FEP --- *)

let test_fep_evaluator_limits () =
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:20 () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let solute = Array.init 20 (fun i -> i = 0) in
  let info =
    Fep.make_info topo ~solute ~cutoff:8.
      ~elec:Mdsp_ff.Pair_interactions.No_coulomb
  in
  let base =
    Mdsp_ff.Pair_interactions.of_topology topo ~cutoff:8.
      ~trunc:Mdsp_ff.Nonbonded.Shift ~elec:Mdsp_ff.Pair_interactions.No_coulomb
  in
  let ev1 = Fep.evaluator info ~lambda:1.0 in
  let ev0 = Fep.evaluator info ~lambda:0.0 in
  (* lambda = 1: cross pair matches the unmodified evaluator. *)
  let e1, f1 = ev1.Mdsp_ff.Pair_interactions.eval 0 5 16. in
  let eb, fb = base.Mdsp_ff.Pair_interactions.eval 0 5 16. in
  check_close ~rel:1e-9 "lambda=1 energy" eb e1;
  check_close ~rel:1e-9 "lambda=1 force" fb f1;
  (* lambda = 0: cross pair decoupled. *)
  let e0, _ = ev0.Mdsp_ff.Pair_interactions.eval 0 5 16. in
  check_float ~eps:1e-12 "lambda=0 decoupled" 0. e0;
  (* Environment-environment pairs never change. *)
  let ee1, _ = ev0.Mdsp_ff.Pair_interactions.eval 3 5 16. in
  let ee2, _ = base.Mdsp_ff.Pair_interactions.eval 3 5 16. in
  check_close ~rel:1e-12 "env-env untouched" ee2 ee1

let test_fep_cross_energy_monotone_in_lambda () =
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:50 () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let solute = Array.init 50 (fun i -> i = 0) in
  let info =
    Fep.make_info topo ~solute ~cutoff:8.
      ~elec:Mdsp_ff.Pair_interactions.No_coulomb
  in
  let box = sys.Mdsp_workload.Workloads.box in
  let pos = sys.Mdsp_workload.Workloads.positions in
  let e l = Fep.cross_energy info ~lambda:l box pos in
  check_float ~eps:1e-12 "decoupled zero" 0. (e 0.);
  check_true "coupling changes energy" (abs_float (e 1.) > 1e-6)

let test_fep_table_evaluator_matches_analytic () =
  (* The per-window table compilation must agree with the analytic
     lambda evaluator across the schedule — the machine runs FEP windows
     at full pipeline speed with no change in physics. *)
  let sys = Mdsp_workload.Workloads.bead_chain ~n_beads:8 ~n_total:60 () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let solute = Array.init 60 (fun i -> i < 8) in
  let info =
    Fep.make_info topo ~solute ~cutoff:8.
      ~elec:Mdsp_ff.Pair_interactions.Cutoff_coulomb
  in
  let box = sys.Mdsp_workload.Workloads.box in
  let pos = sys.Mdsp_workload.Workloads.positions in
  List.iter
    (fun lambda ->
      let analytic = Fep.evaluator info ~lambda in
      let tabled = Fep.table_evaluator info ~lambda ~n:4096 in
      let r1 =
        Mdsp_baseline.Reference.compute topo box pos ~evaluator:analytic
      in
      let r2 = Mdsp_baseline.Reference.compute topo box pos ~evaluator:tabled in
      let err =
        Mdsp_baseline.Reference.max_force_error
          r1.Mdsp_baseline.Reference.forces r2.Mdsp_baseline.Reference.forces
      in
      check_true
        (Printf.sprintf "lambda=%.1f force error %.1e < 1e-4" lambda err)
        (err < 1e-4);
      check_close ~rel:1e-4
        (Printf.sprintf "lambda=%.1f energy" lambda)
        r1.Mdsp_baseline.Reference.pair_energy
        r2.Mdsp_baseline.Reference.pair_energy)
    [ 0.0; 0.3; 0.7; 1.0 ]

let test_fep_harmonic_analytic () =
  (* Alchemical change of a harmonic spring constant on one particle:
     dF = (3/2) kT ln (k1 / k0) for an isotropic 3D harmonic well with
     energy k x^2 (effective spring 2k per dof). Sample state 0 exactly and
     use exponential averaging; this validates the estimator chain against
     an analytic answer independent of MD. *)
  let temp = 300. in
  let kt = Units.kt temp in
  let k0 = 1.0 and k1 = 2.0 in
  let rng = Rng.create 95 in
  let sigma = sqrt (kt /. (2. *. k0)) in
  let du =
    Array.init 400_000 (fun _ ->
        let x = Rng.gaussian_ms rng ~mean:0. ~sigma in
        let y = Rng.gaussian_ms rng ~mean:0. ~sigma in
        let z = Rng.gaussian_ms rng ~mean:0. ~sigma in
        (k1 -. k0) *. ((x *. x) +. (y *. y) +. (z *. z)))
  in
  let df = Mdsp_analysis.Free_energy.exp_averaging ~temp du in
  let expected = 1.5 *. kt *. log (k1 /. k0) in
  check_close ~rel:0.05 "harmonic alchemy" expected df

let test_fep_run_produces_windows () =
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:50 () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let solute = Array.init 50 (fun i -> i = 0) in
  let info =
    Fep.make_info topo ~solute ~cutoff:8.
      ~elec:Mdsp_ff.Pair_interactions.No_coulomb
  in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 120.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg ~cutoff:8. sys in
  E.run eng 300;
  let res =
    Fep.run info ~engine:eng ~lambdas:[| 0.; 0.5; 1.0 |] ~temp:120.
      ~equil_steps:100 ~sample_steps:400 ~sample_stride:10
  in
  Alcotest.(check int) "three windows" 3 (List.length res.Fep.windows);
  Alcotest.(check int) "two stages" 2 (Array.length res.Fep.per_stage);
  check_true "finite dF" (Float.is_finite res.Fep.delta_f);
  (* Forward samples exist in all but the last window. *)
  List.iteri
    (fun i w ->
      if i < 2 then check_true "forward samples" (Array.length w.Fep.du_forward = 40))
    res.Fep.windows

(* --- Widom insertion --- *)

let test_widom_ghost_with_zero_epsilon () =
  (* A ghost that does not interact: every insertion energy is 0, mu_ex = 0. *)
  let eng = lj_engine ~n:64 ~equil:200 () in
  let w =
    Widom.create ~epsilon:0. ~sigma:3.4 ~cutoff:8. ~insertions_per_frame:10
      ~seed:2
  in
  Widom.sample w eng;
  Alcotest.(check int) "samples" 10 (Widom.n_samples w);
  Array.iter
    (fun du -> check_float ~eps:1e-12 "no interaction" 0. du)
    (Widom.insertion_energies w);
  check_float ~eps:1e-9 "mu_ex zero" 0. (Widom.mu_excess w ~temp:120.)

let test_widom_dense_fluid_positive_at_high_density () =
  (* At rho* = 1.05 and modest T, insertions mostly hit cores: mu_ex > 0. *)
  let sys = Mdsp_workload.Workloads.lj_fluid ~rho_star:1.05 ~n:108 () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 120.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg ~cutoff:8. sys in
  E.run eng 1500;
  let w =
    Widom.create ~epsilon:0.238 ~sigma:3.405 ~cutoff:8.
      ~insertions_per_frame:200 ~seed:4
  in
  Widom.attach w ~stride:25 eng;
  E.run eng 5000;
  check_true "dense fluid resists insertion"
    (Widom.mu_excess w ~temp:120. > 0.5)

(* --- TAMD --- *)

let test_tamd_accelerates_crossing () =
  let crossings trace =
    let n = ref 0 and side = ref 0 in
    List.iter
      (fun x ->
        let s = if x > 0.5 then 1 else if x < -0.5 then -1 else 0 in
        if s <> 0 && !side <> 0 && s <> !side then incr n;
        if s <> 0 then side := s)
      trace;
    !n
  in
  let run ~tamd seed =
    let sys = Mdsp_workload.Workloads.double_well () in
    let cfg =
      {
        E.default_config with
        dt_fs = 2.0;
        temperature = 200.;
        thermostat = E.Langevin { gamma_fs = 0.02 };
      }
    in
    let eng = Mdsp_workload.Workloads.make_engine ~config:cfg ~seed sys in
    let cv = Cv.position ~axis:`X ~i:0 in
    if tamd then begin
      let t =
        Tamd.create ~cv ~k:10. ~s0:(-2.5) ~gamma:0.1 ~s_temp:1500. ~seed ()
      in
      Tamd.attach t eng
    end;
    let trace = ref [] in
    E.add_post_step eng ~name:"trace" (fun eng ->
        let st = E.state eng in
        trace :=
          cv.Cv.value st.Mdsp_md.State.box st.Mdsp_md.State.positions :: !trace);
    E.run eng 15_000;
    crossings (List.rev !trace)
  in
  let plain = run ~tamd:false 3 + run ~tamd:false 4 in
  let accel = run ~tamd:true 3 + run ~tamd:true 4 in
  check_true
    (Printf.sprintf "TAMD crossings %d > plain %d" accel plain)
    (accel > plain)

let test_tamd_validation () =
  let cv = Cv.position ~axis:`X ~i:0 in
  Alcotest.check_raises "bad gamma"
    (Invalid_argument "Tamd.create: gamma must be in (0, 1] (per-step mobility)")
    (fun () ->
      ignore (Tamd.create ~cv ~k:1. ~s0:0. ~gamma:2. ~s_temp:300. ~seed:1 ()))

(* --- Accelerated MD --- *)

let test_amd_boost_formula () =
  let a = Amd.create ~threshold:10. ~alpha:2. in
  (* Above threshold: nothing. *)
  let dv, s = Amd.boost a 12. in
  check_float ~eps:0. "no boost above E" 0. dv;
  check_float ~eps:0. "unscaled above E" 1. s;
  (* Below: dV = (E-V)^2/(alpha+E-V); at V=6: 16/6. *)
  let dv, s = Amd.boost a 6. in
  check_close ~rel:1e-12 "boost value" (16. /. 6.) dv;
  check_true "scale in (0,1)" (s > 0. && s < 1.);
  (* Modified potential V + dV is monotone in V (no force inversion). *)
  let v_star v = v +. fst (Amd.boost a v) in
  check_true "monotone modified potential"
    (v_star 4. < v_star 6. && v_star 6. < v_star 9.9)

let test_amd_transform_scales_forces () =
  let sys = Mdsp_workload.Workloads.double_well () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 200.;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  let e0 = E.potential_energy eng in
  let amd = Amd.create ~threshold:(e0 +. 5.) ~alpha:1. in
  Amd.attach amd eng;
  check_true "boost recorded" (Amd.last_boost amd > 0.);
  E.run eng 200;
  let samples = Amd.boost_samples amd in
  check_true "boost samples accumulate" (Array.length samples > 100);
  let w = Amd.reweighting_factors amd ~temp:200. in
  Array.iter (fun x -> check_true "reweights >= 1" (x >= 1.)) w;
  Amd.detach eng;
  E.run eng 10;
  check_true "detached cleanly" (Float.is_finite (E.total_energy eng))

(* --- String method --- *)

let test_string_reparametrize_equal_arcs () =
  let images =
    [| [| 0.; 0. |]; [| 0.1; 0. |]; [| 3.; 0. |]; [| 4.; 0. |] |]
  in
  let r = String_method.reparametrize images in
  (* Endpoints fixed. *)
  check_float ~eps:1e-12 "first fixed" 0. r.(0).(0);
  check_float ~eps:1e-12 "last fixed" 4. r.(3).(0);
  (* Interior at 4/3 and 8/3. *)
  check_close ~rel:1e-9 "interior 1" (4. /. 3.) r.(1).(0);
  check_close ~rel:1e-9 "interior 2" (8. /. 3.) r.(2).(0)

let test_string_finds_bowed_path () =
  let sys = Mdsp_workload.Workloads.double_well_2d () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = 150.;
      thermostat = E.Langevin { gamma_fs = 0.05 };
    }
  in
  let eng = Mdsp_workload.Workloads.make_engine ~config:cfg sys in
  let cvx = Cv.position ~axis:`X ~i:0 in
  let cvy = Cv.position ~axis:`Y ~i:0 in
  let sm =
    String_method.create ~cvs:[| cvx; cvy |] ~start:[| -2.5; 0. |]
      ~stop:[| 2.5; 0. |] ~n_images:9 ~engine:eng ~k:20. ~equil_steps:200
      ~n_swarms:10 ~swarm_steps:40 ~seed:5
  in
  for _ = 1 to 20 do
    ignore (String_method.iterate sm)
  done;
  let images = String_method.images sm in
  (* The middle image must lift off the straight line toward the bowed
     channel at y ~ 1.5. *)
  let mid = images.(4) in
  check_true
    (Printf.sprintf "saddle image lifted: y = %.2f > 0.8" mid.(1))
    (mid.(1) > 0.8);
  Alcotest.(check int) "iteration count" 20 (String_method.iterations sm);
  Alcotest.(check int) "history recorded" 20
    (List.length (String_method.history sm))

(* --- Mapping --- *)

let test_mapping_overheads_small () =
  let cfg = Mdsp_machine.Config.anton_like () in
  let base =
    Mdsp_machine.Perf.plain_workload ~n_atoms:25_000 ~density:0.1 ~cutoff:9.
      ~dt_fs:2.5
  in
  let cv = Cv.distance ~i:0 ~j:1 in
  let meta =
    Metadynamics.create ~cvs:[| cv |] ~sigmas:[| 0.3 |] ~height:0.1 ~stride:100
      ~temp:300. ()
  in
  let smd = Smd.create ~cv ~k:10. ~start:0. ~speed_per_step:1e-4 () in
  let temper = Tempering.create ~temps:[| 300.; 320. |] ~stride:100 () in
  let costs =
    [
      Mapping.plain;
      Mapping.of_metadynamics meta;
      Mapping.of_smd smd;
      Mapping.of_tempering temper;
    ]
  in
  let rows = Mapping.table cfg base costs in
  Alcotest.(check int) "row per method" 4 (List.length rows);
  List.iter
    (fun r ->
      check_true
        (Printf.sprintf "%s overhead %.2f%% < 5%%" r.Mapping.name
           r.Mapping.overhead_pct)
        (r.Mapping.overhead_pct < 5.))
    rows

let test_mapping_fep_costs_more () =
  let cfg = Mdsp_machine.Config.anton_like () in
  let base =
    Mdsp_machine.Perf.plain_workload ~n_atoms:200_000 ~density:0.1 ~cutoff:9.
      ~dt_fs:2.5
  in
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:20 () in
  let info =
    Fep.make_info sys.Mdsp_workload.Workloads.topo
      ~solute:(Array.init 20 (fun i -> i = 0))
      ~cutoff:8. ~elec:Mdsp_ff.Pair_interactions.No_coulomb
  in
  let fep_over = Mapping.overhead cfg base (Mapping.of_fep info) in
  let rest_over = Mapping.overhead cfg base Mapping.plain in
  check_true "FEP costs more than plain" (fep_over > rest_over);
  check_true "but still moderate" (fep_over < 0.5)

let () =
  Alcotest.run "mdsp_core_methods"
    [
      ( "cv",
        [
          Alcotest.test_case "distance" `Quick test_cv_distance;
          Alcotest.test_case "position" `Quick test_cv_position;
          Alcotest.test_case "com distance" `Quick test_cv_com_distance;
          Alcotest.test_case "coordination" `Quick test_cv_coordination;
          Alcotest.test_case "angle" `Quick test_cv_angle;
          Alcotest.test_case "gyration radius" `Quick test_cv_gyration_radius;
          Alcotest.test_case "dihedral" `Quick test_cv_dihedral;
          Alcotest.test_case "harmonic bias" `Quick
            test_harmonic_bias_energy_and_tracking;
        ] );
      ( "metadynamics",
        [
          Alcotest.test_case "bias math" `Quick test_metadynamics_bias_math;
          Alcotest.test_case "deposits and biases" `Slow
            test_metadynamics_deposits_and_biases;
          Alcotest.test_case "well-tempered decay" `Slow
            test_metadynamics_well_tempered_heights_decay;
          Alcotest.test_case "2D deposits" `Quick
            test_metadynamics_2d_bias_and_forces;
          Alcotest.test_case "2D surface path" `Slow
            test_metadynamics_2d_surface_and_path;
          Alcotest.test_case "= two-pass formulas" `Quick
            test_metadynamics_matches_two_pass;
          Alcotest.test_case "over three CVs" `Quick
            test_metadynamics_three_cvs;
          Alcotest.test_case "rejects bad shapes" `Quick
            test_metadynamics_rejects_bad_shapes;
        ] );
      ( "smd",
        [ Alcotest.test_case "pulls and records" `Slow test_smd_pulls_and_accumulates_work ] );
      ( "umbrella",
        [
          Alcotest.test_case "recovers double-well PMF" `Slow
            test_umbrella_recovers_double_well_pmf;
        ] );
      ( "tempering",
        [
          Alcotest.test_case "walks the ladder" `Slow
            test_tempering_walks_ladder;
          Alcotest.test_case "freeze" `Slow test_tempering_freeze;
          Alcotest.test_case "validation" `Quick test_tempering_validation;
        ] );
      ( "remd",
        [ Alcotest.test_case "exchanges" `Slow test_remd_exchanges_and_bookkeeping ] );
      ( "fep",
        [
          Alcotest.test_case "evaluator limits" `Quick test_fep_evaluator_limits;
          Alcotest.test_case "cross energy" `Quick
            test_fep_cross_energy_monotone_in_lambda;
          Alcotest.test_case "harmonic analytic" `Quick
            test_fep_harmonic_analytic;
          Alcotest.test_case "per-window tables match analytic" `Quick
            test_fep_table_evaluator_matches_analytic;
          Alcotest.test_case "window run" `Slow test_fep_run_produces_windows;
        ] );
      ( "widom",
        [
          Alcotest.test_case "zero-epsilon ghost" `Quick
            test_widom_ghost_with_zero_epsilon;
          Alcotest.test_case "dense fluid" `Slow
            test_widom_dense_fluid_positive_at_high_density;
        ] );
      ( "tamd",
        [
          Alcotest.test_case "accelerates crossing" `Slow
            test_tamd_accelerates_crossing;
          Alcotest.test_case "validation" `Quick test_tamd_validation;
        ] );
      ( "amd",
        [
          Alcotest.test_case "boost formula" `Quick test_amd_boost_formula;
          Alcotest.test_case "transform scales forces" `Slow
            test_amd_transform_scales_forces;
        ] );
      ( "string",
        [
          Alcotest.test_case "reparametrize" `Quick
            test_string_reparametrize_equal_arcs;
          Alcotest.test_case "finds bowed path" `Slow
            test_string_finds_bowed_path;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "small overheads" `Quick
            test_mapping_overheads_small;
          Alcotest.test_case "FEP pair passes" `Quick test_mapping_fep_costs_more;
        ] );
    ]
