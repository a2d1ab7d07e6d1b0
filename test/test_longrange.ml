(* Tests for Mdsp_longrange: FFT, classic Ewald (Madelung constants), and
   the Gaussian-split-Ewald grid solver. *)

open Mdsp_util
open Mdsp_longrange
open Testsupport

(* --- FFT --- *)

let test_fft_pow2_helpers () =
  check_true "8 is pow2" (Fft.is_pow2 8);
  check_true "12 is not" (not (Fft.is_pow2 12));
  Alcotest.(check int) "next pow2" 16 (Fft.next_pow2 9);
  Alcotest.(check int) "next pow2 exact" 8 (Fft.next_pow2 8)

let test_fft_delta_function () =
  (* FFT of a delta at 0 is all ones. *)
  let n = 16 in
  let re = Array.make n 0. and im = Array.make n 0. in
  re.(0) <- 1.;
  Fft.fft_1d ~sign:(-1) re im;
  Array.iter (fun x -> check_float ~eps:1e-12 "re = 1" 1. x) re;
  Array.iter (fun x -> check_float ~eps:1e-12 "im = 0" 0. x) im

let test_fft_roundtrip () =
  let n = 64 in
  let rng = Rng.create 61 in
  let re0 = Array.init n (fun _ -> Rng.gaussian rng) in
  let im0 = Array.init n (fun _ -> Rng.gaussian rng) in
  let re = Array.copy re0 and im = Array.copy im0 in
  Fft.fft_1d ~sign:(-1) re im;
  Fft.fft_1d ~sign:1 re im;
  for i = 0 to n - 1 do
    check_float ~eps:1e-9 "re roundtrip" re0.(i) (re.(i) /. float_of_int n);
    check_float ~eps:1e-9 "im roundtrip" im0.(i) (im.(i) /. float_of_int n)
  done

let test_fft_parseval () =
  let n = 128 in
  let rng = Rng.create 62 in
  let re = Array.init n (fun _ -> Rng.gaussian rng) in
  let im = Array.make n 0. in
  let time_energy =
    Array.fold_left (fun a x -> a +. (x *. x)) 0. re
  in
  Fft.fft_1d ~sign:(-1) re im;
  let freq_energy = ref 0. in
  for i = 0 to n - 1 do
    freq_energy := !freq_energy +. (re.(i) *. re.(i)) +. (im.(i) *. im.(i))
  done;
  check_close ~rel:1e-9 "Parseval" time_energy (!freq_energy /. float_of_int n)

let test_fft_single_mode () =
  (* cos(2 pi k0 x / n) has peaks at +-k0 only. *)
  let n = 32 and k0 = 5 in
  let re =
    Array.init n (fun i ->
        cos (2. *. Float.pi *. float_of_int (k0 * i) /. float_of_int n))
  in
  let im = Array.make n 0. in
  Fft.fft_1d ~sign:(-1) re im;
  for k = 0 to n - 1 do
    let expected = if k = k0 || k = n - k0 then float_of_int n /. 2. else 0. in
    check_float ~eps:1e-9 (Printf.sprintf "mode %d" k) expected re.(k)
  done

let test_fft_3d_roundtrip () =
  let nx, ny, nz = (8, 4, 16) in
  let total = nx * ny * nz in
  let rng = Rng.create 63 in
  let re0 = Array.init total (fun _ -> Rng.gaussian rng) in
  let re = Array.copy re0 and im = Array.make total 0. in
  Fft.fft_3d ~sign:(-1) ~nx ~ny ~nz re im;
  Fft.fft_3d ~sign:1 ~nx ~ny ~nz re im;
  let scale = 1. /. float_of_int total in
  for i = 0 to total - 1 do
    check_float ~eps:1e-9 "3d roundtrip" re0.(i) (re.(i) *. scale)
  done

let test_fft_rejects_non_pow2 () =
  Alcotest.check_raises "length 12"
    (Invalid_argument "Fft.fft_1d: length must be a power of 2") (fun () ->
      Fft.fft_1d ~sign:(-1) (Array.make 12 0.) (Array.make 12 0.))

(* --- Ewald --- *)

(* Rock-salt (NaCl) structure: Madelung constant 1.747565. *)
let nacl_system () =
  let a = 2.0 in
  let box = Pbc.cubic a in
  let positions = ref [] and charges = ref [] in
  for x = 0 to 1 do
    for y = 0 to 1 do
      for z = 0 to 1 do
        positions :=
          Vec3.make (float_of_int x) (float_of_int y) (float_of_int z)
          :: !positions;
        charges := (if (x + y + z) mod 2 = 0 then 1.0 else -1.0) :: !charges
      done
    done
  done;
  (box, Array.of_list !positions, Array.of_list !charges)

let test_ewald_madelung_nacl () =
  let box, pos, q = nacl_system () in
  let ew = Ewald.create ~beta:2.5 ~kmax:12 box in
  let e = Ewald.total_reference ew box q pos in
  (* E_total = -N_pairs * M * C / r0 with 4 formula units and r0 = 1. *)
  let madelung = -.e /. (Units.coulomb *. 4.0) in
  check_close ~rel:2e-3 "NaCl Madelung constant" 1.747565 madelung

let test_ewald_beta_independence () =
  (* The total must not depend on the splitting parameter. *)
  let box, pos, q = nacl_system () in
  let e1 = Ewald.total_reference (Ewald.create ~beta:2.0 ~kmax:14 box) box q pos in
  let e2 = Ewald.total_reference (Ewald.create ~beta:3.0 ~kmax:18 box) box q pos in
  check_close ~rel:2e-3 "beta independence" e1 e2

let test_ewald_cscl_madelung () =
  (* CsCl structure: body-centered, Madelung constant 1.762675 (in units of
     the nearest-neighbor distance sqrt(3)/2 a). *)
  let box = Pbc.cubic 2.0 in
  (* Two interpenetrating cubic lattices: + at corners, - at centers, for a
     2x2x2 supercell of unit cells of edge 1. *)
  let positions = ref [] and charges = ref [] in
  for x = 0 to 1 do
    for y = 0 to 1 do
      for z = 0 to 1 do
        positions :=
          Vec3.make (float_of_int x) (float_of_int y) (float_of_int z)
          :: !positions;
        charges := 1.0 :: !charges;
        positions :=
          Vec3.make
            (float_of_int x +. 0.5)
            (float_of_int y +. 0.5)
            (float_of_int z +. 0.5)
          :: !positions;
        charges := (-1.0) :: !charges
      done
    done
  done;
  let pos = Array.of_list !positions and q = Array.of_list !charges in
  let ew = Ewald.create ~beta:2.5 ~kmax:12 box in
  let e = Ewald.total_reference ew box q pos in
  let r_nn = sqrt 3. /. 2. in
  (* 8 formula units. *)
  let madelung = -.e *. r_nn /. (Units.coulomb *. 8.0) in
  check_close ~rel:2e-3 "CsCl Madelung constant" 1.762675 madelung

let test_ewald_reciprocal_forces_numeric () =
  let box = Pbc.cubic 10. in
  let rng = Rng.create 64 in
  let n = 8 in
  let pos =
    Array.init n (fun _ ->
        Vec3.make
          (Rng.uniform_in rng 0. 10.)
          (Rng.uniform_in rng 0. 10.)
          (Rng.uniform_in rng 0. 10.))
  in
  let q = Array.init n (fun i -> if i mod 2 = 0 then 1. else -1.) in
  let ew = Ewald.create ~beta:0.4 ~kmax:8 box in
  let acc = Mdsp_ff.Bonded.make_accum n in
  ignore (Ewald.reciprocal ew q pos acc);
  let numeric =
    numeric_forces ~h:1e-5
      (fun p ->
        let a = Mdsp_ff.Bonded.make_accum n in
        Ewald.reciprocal ew q p a)
      pos
  in
  check_true "reciprocal forces match numeric"
    (max_vec_diff acc.Mdsp_ff.Bonded.forces numeric < 1e-4)

let test_ewald_self_energy () =
  let box = Pbc.cubic 10. in
  let ew = Ewald.create ~beta:0.5 ~kmax:4 box in
  let q = [| 1.; -1.; 2. |] in
  check_close ~rel:1e-9 "self energy"
    (-0.5 /. sqrt Float.pi *. 6. *. Units.coulomb)
    (Ewald.self_energy ew q)

let test_ewald_excluded_correction_forces () =
  let box = Pbc.cubic 12. in
  let pos = [| Vec3.make 5. 5. 5.; Vec3.make 6.1 5. 5.; Vec3.make 5. 7. 5. |] in
  let q = [| 0.4; -0.4; 0.2 |] in
  let ex = Mdsp_space.Exclusions.of_pairs ~n:3 [ (0, 1) ] in
  let ew = Ewald.create ~beta:0.4 ~kmax:4 box in
  let acc = Mdsp_ff.Bonded.make_accum 3 in
  ignore (Ewald.excluded_correction ew box q pos ex acc);
  let numeric =
    numeric_forces ~h:1e-6
      (fun p ->
        let a = Mdsp_ff.Bonded.make_accum 3 in
        Ewald.excluded_correction ew box q p ex a)
      pos
  in
  check_true "excluded-correction forces match numeric"
    (max_vec_diff acc.Mdsp_ff.Bonded.forces numeric < 1e-5);
  (* Atom 2 is not in any excluded pair: zero force. *)
  check_true "uninvolved atom untouched"
    (Vec3.norm acc.Mdsp_ff.Bonded.forces.(2) < 1e-12)

(* --- GSE --- *)

let random_neutral_system seed n box_l =
  let rng = Rng.create seed in
  let box = Pbc.cubic box_l in
  let pos =
    Array.init n (fun _ ->
        Vec3.make
          (Rng.uniform_in rng 0. box_l)
          (Rng.uniform_in rng 0. box_l)
          (Rng.uniform_in rng 0. box_l))
  in
  let q = Array.init n (fun i -> if i mod 2 = 0 then 1. else -1.) in
  (box, pos, q)

let test_gse_matches_ewald_energy () =
  let box, pos, q = random_neutral_system 65 20 10. in
  let beta = 0.35 in
  let ew = Ewald.create ~beta ~kmax:14 box in
  let acc1 = Mdsp_ff.Bonded.make_accum 20 in
  let e_ref = Ewald.reciprocal ew q pos acc1 in
  let gse = Gse.create ~beta ~grid:(32, 32, 32) box in
  let acc2 = Mdsp_ff.Bonded.make_accum 20 in
  let e_gse = Gse.reciprocal gse q pos acc2 in
  check_close ~rel:2e-3 "reciprocal energy" e_ref e_gse

let test_gse_matches_ewald_forces () =
  let box, pos, q = random_neutral_system 66 20 10. in
  let beta = 0.35 in
  let ew = Ewald.create ~beta ~kmax:14 box in
  let acc1 = Mdsp_ff.Bonded.make_accum 20 in
  ignore (Ewald.reciprocal ew q pos acc1);
  let gse = Gse.create ~beta ~grid:(32, 32, 32) box in
  let acc2 = Mdsp_ff.Bonded.make_accum 20 in
  ignore (Gse.reciprocal gse q pos acc2);
  (* Typical force magnitude sets the error scale. *)
  let rms = ref 0. in
  Array.iter (fun f -> rms := !rms +. Vec3.norm2 f) acc1.Mdsp_ff.Bonded.forces;
  let rms = sqrt (!rms /. 20.) in
  let err =
    max_vec_diff acc1.Mdsp_ff.Bonded.forces acc2.Mdsp_ff.Bonded.forces /. rms
  in
  check_true (Printf.sprintf "relative force error %.2e < 2%%" err) (err < 0.02)

let test_gse_grid_refinement_improves () =
  let box, pos, q = random_neutral_system 67 16 10. in
  let beta = 0.35 in
  let ew = Ewald.create ~beta ~kmax:14 box in
  let acc = Mdsp_ff.Bonded.make_accum 16 in
  let e_ref = Ewald.reciprocal ew q pos acc in
  let err grid =
    let gse = Gse.create ~beta ~grid box in
    let a = Mdsp_ff.Bonded.make_accum 16 in
    abs_float (Gse.reciprocal gse q pos a -. e_ref)
  in
  let e16 = err (16, 16, 16) and e32 = err (32, 32, 32) in
  check_true
    (Printf.sprintf "finer grid better: %.2e -> %.2e" e16 e32)
    (e32 < e16)

let test_gse_virial_matches_ewald () =
  let box, pos, q = random_neutral_system 68 20 10. in
  let beta = 0.35 in
  let ew = Ewald.create ~beta ~kmax:14 box in
  let acc1 = Mdsp_ff.Bonded.make_accum 20 in
  ignore (Ewald.reciprocal ew q pos acc1);
  let gse = Gse.create ~beta ~grid:(32, 32, 32) box in
  let acc2 = Mdsp_ff.Bonded.make_accum 20 in
  ignore (Gse.reciprocal gse q pos acc2);
  check_close ~rel:5e-3 "reciprocal virial" acc1.Mdsp_ff.Bonded.virial
    acc2.Mdsp_ff.Bonded.virial

let test_gse_rejects_bad_config () =
  let box = Pbc.cubic 10. in
  Alcotest.check_raises "non-pow2 grid"
    (Invalid_argument "Gse.create: grid dims must be powers of two") (fun () ->
      ignore (Gse.create ~beta:0.3 ~grid:(12, 16, 16) box));
  Alcotest.check_raises "sigma too large"
    (Invalid_argument "Gse.create: sigma_s must be <= 1/(2 beta)") (fun () ->
      ignore (Gse.create ~beta:0.3 ~grid:(16, 16, 16) ~sigma_s:2.0 box))

let test_gse_chargeless_is_zero () =
  let box = Pbc.cubic 10. in
  let gse = Gse.create ~beta:0.35 ~grid:(16, 16, 16) box in
  let pos = [| Vec3.make 1. 1. 1.; Vec3.make 5. 5. 5. |] in
  let acc = Mdsp_ff.Bonded.make_accum 2 in
  let e = Gse.reciprocal gse [| 0.; 0. |] pos acc in
  check_float ~eps:0. "zero energy" 0. e;
  Array.iter
    (fun f -> check_true "zero forces" (Vec3.norm f = 0.))
    acc.Mdsp_ff.Bonded.forces

(* The direct form of the GSE reciprocal sum: one [exp] of the full squared
   distance per stencil point, through a closure per point, serial and
   self-contained. The reference the separable kernels must match to
   rounding. Returns (energy, virial, forces). *)
let direct_gse ~beta ~grid:(nx, ny, nz) (box : Pbc.t) charges positions =
  let sigma = 1. /. (2. *. sqrt 2. *. beta) in
  let total = nx * ny * nz in
  let two_pi = 2. *. Float.pi in
  let freq n l m =
    let m' = if m <= n / 2 then m else m - n in
    two_pi *. float_of_int m' /. l
  in
  let rem = (1. /. (4. *. beta *. beta)) -. (sigma *. sigma) in
  let ghat = Array.make total 0. and k2s = Array.make total 0. in
  for mz = 0 to nz - 1 do
    for my = 0 to ny - 1 do
      for mx = 0 to nx - 1 do
        let kx = freq nx box.lx mx in
        let ky = freq ny box.ly my in
        let kz = freq nz box.lz mz in
        let k2 = (kx *. kx) +. (ky *. ky) +. (kz *. kz) in
        let idx = mx + (nx * (my + (ny * mz))) in
        k2s.(idx) <- k2;
        if k2 > 0. then
          ghat.(idx) <- 4. *. Float.pi *. exp (-.k2 *. rem) /. k2
      done
    done
  done;
  let dx = box.lx /. float_of_int nx in
  let dy = box.ly /. float_of_int ny in
  let dz = box.lz /. float_of_int nz in
  let r = 4. *. sigma in
  let cells h = int_of_float (ceil (r /. h)) in
  let sx = cells dx and sy = cells dy and sz = cells dz in
  let norm = (2. *. Float.pi *. sigma *. sigma) ** (-1.5) in
  let inv_2s2 = 1. /. (2. *. sigma *. sigma) in
  let r_max2 = r ** 2. in
  let iter_support p f =
    let w = Pbc.wrap box p in
    let cx = int_of_float (w.Vec3.x /. dx) in
    let cy = int_of_float (w.Vec3.y /. dy) in
    let cz = int_of_float (w.Vec3.z /. dz) in
    for oz = -sz to sz do
      for oy = -sy to sy do
        for ox = -sx to sx do
          let gx = (((cx + ox) mod nx) + nx) mod nx in
          let gy = (((cy + oy) mod ny) + ny) mod ny in
          let gz = (((cz + oz) mod nz) + nz) mod nz in
          let ddx = w.Vec3.x -. (float_of_int (cx + ox) *. dx) in
          let ddy = w.Vec3.y -. (float_of_int (cy + oy) *. dy) in
          let ddz = w.Vec3.z -. (float_of_int (cz + oz) *. dz) in
          let r2 = (ddx *. ddx) +. (ddy *. ddy) +. (ddz *. ddz) in
          if r2 <= r_max2 then
            f (gx + (nx * (gy + (ny * gz))))
              (norm *. exp (-.r2 *. inv_2s2))
              ddx ddy ddz
        done
      done
    done
  in
  let re = Array.make total 0. and im = Array.make total 0. in
  Array.iteri
    (fun i p ->
      let q = charges.(i) in
      if q <> 0. then
        iter_support p (fun idx g _ _ _ -> re.(idx) <- re.(idx) +. (q *. g)))
    positions;
  Fft.fft_3d ~sign:(-1) ~nx ~ny ~nz re im;
  let vol = Pbc.volume box in
  let cell_vol = vol /. float_of_int total in
  let e_scale = cell_vol *. cell_vol /. (2. *. vol) *. Units.coulomb in
  let inv_2b2 = 1. /. (2. *. beta *. beta) in
  let energy = ref 0. and virial = ref 0. in
  for k = 0 to total - 1 do
    let e_k = ghat.(k) *. ((re.(k) *. re.(k)) +. (im.(k) *. im.(k))) in
    energy := !energy +. e_k;
    virial := !virial +. (e_k *. (1. -. (k2s.(k) *. inv_2b2)));
    re.(k) <- re.(k) *. ghat.(k);
    im.(k) <- im.(k) *. ghat.(k)
  done;
  Fft.fft_3d ~sign:1 ~nx ~ny ~nz re im;
  let phi_scale = cell_vol /. vol in
  let forces =
    Array.mapi
      (fun i p ->
        let q = charges.(i) in
        let fx = ref 0. and fy = ref 0. and fz = ref 0. in
        iter_support p (fun idx g dx dy dz ->
            let w = re.(idx) *. phi_scale *. g in
            fx := !fx +. (w *. dx);
            fy := !fy +. (w *. dy);
            fz := !fz +. (w *. dz));
        let c = q *. cell_vol /. (sigma *. sigma) *. Units.coulomb in
        Vec3.make (c *. !fx) (c *. !fy) (c *. !fz))
      positions
  in
  (!energy *. e_scale, !virial *. e_scale, forces)

let test_gse_matches_direct_form () =
  (* A non-cubic box on an unequal grid, with charges at negative
     coordinates, beyond the box and exactly on its edges, at 1 and 3
     slots. *)
  let box = Pbc.make ~lx:14. ~ly:22. ~lz:12. in
  let grid = (16, 32, 8) and beta = 0.35 in
  let rng = Rng.create 69 in
  let inside =
    List.init 40 (fun _ ->
        Vec3.make
          (Rng.uniform_in rng 0. box.lx)
          (Rng.uniform_in rng 0. box.ly)
          (Rng.uniform_in rng 0. box.lz))
  in
  let special =
    [
      Vec3.make (-3.2) (-0.7) (-11.9);
      Vec3.make (box.lx +. 5.3) ((2. *. box.ly) +. 0.1) (-.box.lz -. 1.);
      Vec3.make box.lx 0. box.lz;
      Vec3.make (-.box.lx) box.ly 0.;
      Vec3.make 0. (-.box.ly) (3. *. box.lz);
      Vec3.make (-1e-17) 7.25 box.lz;
    ]
  in
  let pos = Array.of_list (inside @ special) in
  let n = Array.length pos in
  let q = Array.init n (fun i -> if i mod 2 = 0 then 0.8 else -0.8) in
  q.(3) <- 0.;
  let e_ref, w_ref, f_ref = direct_gse ~beta ~grid box q pos in
  let check label exec =
    let gse = Gse.create ~beta ~grid box in
    (* Twice on one handle: the reused grids must not carry state over. *)
    for pass = 1 to 2 do
      let acc = Mdsp_ff.Bonded.make_accum n in
      let e = Gse.reciprocal ~exec gse q pos acc in
      let tag s = Printf.sprintf "%s, pass %d: %s" label pass s in
      check_close ~rel:1e-12 (tag "energy") e_ref e;
      check_close ~rel:1e-12 (tag "virial") w_ref acc.Mdsp_ff.Bonded.virial;
      Array.iteri
        (fun i f ->
          let err = Vec3.dist f f_ref.(i) and mag = Vec3.norm f_ref.(i) in
          if err > 1e-12 *. mag then
            Alcotest.failf "%s: force %d off by %.3e of %.3e" label i
              (err /. mag) mag)
        acc.Mdsp_ff.Bonded.forces
    done
  in
  check "1 slot" Exec.serial;
  let pool = Exec.create (Exec.Domains { n = 3 }) in
  Fun.protect
    ~finally:(fun () -> Exec.shutdown pool)
    (fun () -> check "3 slots" pool)

let test_gse_serial_allocation () =
  (* The serial grid pipeline allocates O(1) per call plus the updated
     force vector per charge: at most 16 minor words per charged particle
     once the handle's grids and stencils exist. *)
  let sys = Mdsp_workload.Workloads.water_box ~n_side:4 () in
  let open Mdsp_workload.Workloads in
  let q = Mdsp_ff.Topology.charges sys.topo in
  let charged =
    Array.fold_left (fun c x -> if x <> 0. then c + 1 else c) 0 q
  in
  let gse = Gse.create ~beta:0.35 ~grid:(32, 32, 32) sys.box in
  let acc = Mdsp_ff.Bonded.make_accum (Array.length q) in
  ignore (Gse.reciprocal gse q sys.positions acc);
  let w0 = Gc.minor_words () in
  ignore (Gse.reciprocal gse q sys.positions acc);
  let w1 = Gc.minor_words () in
  let per = (w1 -. w0) /. float_of_int charged in
  check_true
    (Printf.sprintf "%.1f minor words per charged particle (<= 16)" per)
    (per <= 16.)

let () =
  Alcotest.run "mdsp_longrange"
    [
      ( "fft",
        [
          Alcotest.test_case "pow2 helpers" `Quick test_fft_pow2_helpers;
          Alcotest.test_case "delta function" `Quick test_fft_delta_function;
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "Parseval" `Quick test_fft_parseval;
          Alcotest.test_case "single mode" `Quick test_fft_single_mode;
          Alcotest.test_case "3d roundtrip" `Quick test_fft_3d_roundtrip;
          Alcotest.test_case "rejects non-pow2" `Quick
            test_fft_rejects_non_pow2;
        ] );
      ( "ewald",
        [
          Alcotest.test_case "NaCl Madelung" `Quick test_ewald_madelung_nacl;
          Alcotest.test_case "beta independence" `Quick
            test_ewald_beta_independence;
          Alcotest.test_case "CsCl Madelung" `Quick test_ewald_cscl_madelung;
          Alcotest.test_case "reciprocal forces numeric" `Quick
            test_ewald_reciprocal_forces_numeric;
          Alcotest.test_case "self energy" `Quick test_ewald_self_energy;
          Alcotest.test_case "excluded correction forces" `Quick
            test_ewald_excluded_correction_forces;
        ] );
      ( "gse",
        [
          Alcotest.test_case "matches Ewald energy" `Quick
            test_gse_matches_ewald_energy;
          Alcotest.test_case "matches Ewald forces" `Quick
            test_gse_matches_ewald_forces;
          Alcotest.test_case "grid refinement improves" `Quick
            test_gse_grid_refinement_improves;
          Alcotest.test_case "virial matches Ewald" `Quick
            test_gse_virial_matches_ewald;
          Alcotest.test_case "rejects bad config" `Quick
            test_gse_rejects_bad_config;
          Alcotest.test_case "chargeless zero" `Quick
            test_gse_chargeless_is_zero;
          Alcotest.test_case "separable kernels = direct form" `Quick
            test_gse_matches_direct_form;
          Alcotest.test_case "serial reciprocal allocation" `Quick
            test_gse_serial_allocation;
        ] );
    ]
