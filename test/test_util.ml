(* Unit and property tests for Mdsp_util: vectors, PBC, RNG, fixed point,
   polynomials, statistics, histograms, special functions. *)

open Mdsp_util
open Testsupport

let vec_gen =
  QCheck.(
    map
      (fun (x, y, z) -> Vec3.make x y z)
      (triple (float_range (-100.) 100.) (float_range (-100.) 100.)
         (float_range (-100.) 100.)))

(* --- Vec3 --- *)

let test_vec_basic () =
  let a = Vec3.make 1. 2. 3. and b = Vec3.make 4. (-5.) 6. in
  check_float "dot" (1. *. 4. +. (2. *. -5.) +. (3. *. 6.)) (Vec3.dot a b);
  check_float "norm2" 14. (Vec3.norm2 a);
  check_float "dist" (Vec3.norm (Vec3.sub a b)) (Vec3.dist a b);
  let c = Vec3.cross (Vec3.make 1. 0. 0.) (Vec3.make 0. 1. 0.) in
  check_true "cross z" (Vec3.equal_eps ~eps:1e-12 c (Vec3.make 0. 0. 1.))

let test_vec_angle () =
  check_float ~eps:1e-9 "right angle" (Float.pi /. 2.)
    (Vec3.angle (Vec3.make 1. 0. 0.) (Vec3.make 0. 3. 0.));
  check_float ~eps:1e-6 "parallel" 0.
    (Vec3.angle (Vec3.make 1. 1. 0.) (Vec3.make 2. 2. 0.));
  check_float ~eps:1e-6 "antiparallel" Float.pi
    (Vec3.angle (Vec3.make 1. 0. 0.) (Vec3.make (-2.) 0. 0.))

let test_vec_normalize_zero () =
  Alcotest.check_raises "zero vector"
    (Invalid_argument "Vec3.normalize: zero vector") (fun () ->
      ignore (Vec3.normalize Vec3.zero))

let test_axpy () =
  let r = Vec3.axpy 2. (Vec3.make 1. 1. 1.) (Vec3.make 0. 1. 2.) in
  check_true "axpy" (Vec3.equal_eps ~eps:1e-12 r (Vec3.make 2. 3. 4.))

let prop_cross_orthogonal =
  qtest "cross product orthogonal to operands"
    QCheck.(pair vec_gen vec_gen)
    (fun (a, b) ->
      let c = Vec3.cross a b in
      let scale = Float.max 1. (Vec3.norm a *. Vec3.norm b) in
      abs_float (Vec3.dot c a) /. scale < 1e-9
      && abs_float (Vec3.dot c b) /. scale < 1e-9)

let prop_triangle_inequality =
  qtest "triangle inequality"
    QCheck.(pair vec_gen vec_gen)
    (fun (a, b) ->
      Vec3.norm (Vec3.add a b) <= Vec3.norm a +. Vec3.norm b +. 1e-9)

let prop_dot_bilinear =
  qtest "dot product bilinearity"
    QCheck.(triple vec_gen vec_gen (float_range (-10.) 10.))
    (fun (a, b, s) ->
      let lhs = Vec3.dot (Vec3.scale s a) b in
      let rhs = s *. Vec3.dot a b in
      abs_float (lhs -. rhs) <= 1e-6 *. Float.max 1. (abs_float rhs))

(* --- Pbc --- *)

let test_pbc_wrap () =
  let b = Pbc.cubic 10. in
  let w = Pbc.wrap b (Vec3.make 12. (-3.) 10.) in
  check_float "x" 2. w.Vec3.x;
  check_float "y" 7. w.Vec3.y;
  check_float "z" 0. w.Vec3.z

let test_pbc_min_image () =
  let b = Pbc.cubic 10. in
  let d = Pbc.min_image b (Vec3.make 9.5 0. 0.) (Vec3.make 0.5 0. 0.) in
  check_float ~eps:1e-12 "wraps across boundary" (-1.) d.Vec3.x

let test_pbc_volume_scale () =
  let b = Pbc.make ~lx:2. ~ly:3. ~lz:4. in
  check_float "volume" 24. (Pbc.volume b);
  check_float "scaled volume" (24. *. 8.) (Pbc.volume (Pbc.scale b 2.));
  check_float "min edge" 2. (Pbc.min_edge b)

let test_pbc_fractional_roundtrip () =
  let b = Pbc.make ~lx:7. ~ly:11. ~lz:13. in
  let p = Vec3.make 3.5 10.9 0.1 in
  let f = Pbc.to_fractional b p in
  let q = Pbc.of_fractional b f in
  check_true "roundtrip" (Vec3.equal_eps ~eps:1e-9 p q)

(* [Pbc.min_image] takes a branch instead of [Float.round] for |d / l| <
   1.5; it must still be the rounding formula bit for bit. The reference
   is compared as bit patterns, so a [-0.] against a [+0.] fails: for
   [d = -0.] the formula gives [-0. -. l *. -0. = +0.], which is why the
   branch for |d / l| < 0.5 returns [d +. 0.] and not [d]. *)
let min_image_bits l d =
  let b = Pbc.cubic l in
  let got = (Pbc.min_image b (Vec3.make d 0. 0.) Vec3.zero).Vec3.x in
  let want = d -. (l *. Float.round (d /. l)) in
  (Int64.bits_of_float got, Int64.bits_of_float want)

let test_pbc_min_image_bitwise () =
  (* [d] and two float neighbours on each side. *)
  let near d =
    [ Float.pred (Float.pred d); Float.pred d; d; Float.succ d;
      Float.succ (Float.succ d) ]
  in
  List.iter
    (fun l ->
      let at =
        List.concat_map
          (fun u -> near (u *. l) @ near (-.(u *. l)))
          [ 0.; 0.5; 1.; 1.5; 2.5 ]
      in
      let special =
        [ Float.nan; Float.infinity; Float.neg_infinity; Float.min_float;
          -.Float.min_float; 4.9e-324; -4.9e-324; Float.max_float;
          -.Float.max_float; 0.; -0. ]
      in
      List.iter
        (fun d ->
          let got, want = min_image_bits l d in
          if got <> want then
            Alcotest.failf "l = %h, d = %h: min image %Lx, formula %Lx" l d
              got want)
        (at @ special))
    [ 1e-300; 0.1; 1.; Float.pi; 27.93; 1e300 ]

let prop_min_image_bitwise =
  qtest "min image is the rounding formula, bit for bit" ~count:2000
    QCheck.(pair (float_range 1e-3 1e3) (float_range (-3.) 3.))
    (fun (l, u) ->
      let got, want = min_image_bits l (u *. l) in
      got = want)

let prop_min_image_symmetric =
  qtest "min image antisymmetric"
    QCheck.(pair vec_gen vec_gen)
    (fun (a, b) ->
      let box = Pbc.cubic 50. in
      let d1 = Pbc.min_image box a b in
      let d2 = Pbc.min_image box b a in
      Vec3.equal_eps ~eps:1e-9 d1 (Vec3.neg d2))

let prop_min_image_within_half_box =
  qtest "min image components within half box"
    QCheck.(pair vec_gen vec_gen)
    (fun (a, b) ->
      let box = Pbc.cubic 20. in
      let d = Pbc.min_image box a b in
      abs_float d.Vec3.x <= 10. +. 1e-9
      && abs_float d.Vec3.y <= 10. +. 1e-9
      && abs_float d.Vec3.z <= 10. +. 1e-9)

let prop_wrap_idempotent =
  qtest "wrap idempotent" vec_gen (fun p ->
      let box = Pbc.cubic 17. in
      let w1 = Pbc.wrap box p in
      let w2 = Pbc.wrap box w1 in
      Vec3.equal_eps ~eps:1e-9 w1 w2)

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 12345 and b = Rng.create 12345 in
  for _ = 1 to 100 do
    check_true "same stream" (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_uniform_range () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let u = Rng.uniform rng in
    check_true "in [0,1)" (u >= 0. && u < 1.)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 2 in
  let acc = Stats.Online.create () in
  for _ = 1 to 50_000 do
    Stats.Online.add acc (Rng.uniform rng)
  done;
  check_close ~rel:0.02 "mean 0.5" 0.5 (Stats.Online.mean acc)

let test_rng_gaussian_moments () =
  let rng = Rng.create 3 in
  let acc = Stats.Online.create () in
  for _ = 1 to 100_000 do
    Stats.Online.add acc (Rng.gaussian rng)
  done;
  check_true "mean near 0" (abs_float (Stats.Online.mean acc) < 0.02);
  check_close ~rel:0.03 "variance 1" 1. (Stats.Online.variance acc)

let test_rng_int_bounds () =
  let rng = Rng.create 4 in
  let seen = Array.make 7 0 in
  for _ = 1 to 7000 do
    let k = Rng.int rng 7 in
    check_true "bound" (k >= 0 && k < 7);
    seen.(k) <- seen.(k) + 1
  done;
  Array.iter (fun c -> check_true "all buckets populated" (c > 700)) seen

let test_rng_int_invalid () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "nonpositive bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_split_decorrelated () =
  let parent = Rng.create 6 in
  let child = Rng.split parent in
  (* Streams should differ immediately. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 parent = Rng.bits64 child then incr same
  done;
  check_true "streams differ" (!same = 0)

let test_rng_unit_vector () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    check_close ~rel:1e-9 "unit norm" 1. (Vec3.norm (Rng.unit_vector rng))
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 8 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_true "is a permutation" (sorted = Array.init 50 Fun.id);
  check_true "actually shuffled" (a <> Array.init 50 Fun.id)

(* --- Fixed --- *)

let test_fixed_roundtrip () =
  let fmt = Fixed.format ~frac_bits:16 ~total_bits:32 in
  let xs = [ 0.; 1.; -1.; 0.5; 123.456; -99.0001 ] in
  List.iter
    (fun x ->
      let q = Fixed.quantize fmt x in
      check_true "roundtrip within resolution"
        (abs_float (q -. x) <= Fixed.quantization_error fmt +. 1e-12))
    xs

let test_fixed_saturation () =
  let fmt = Fixed.format ~frac_bits:8 ~total_bits:16 in
  let max_v = Fixed.max_value fmt in
  check_true "saturates" (Fixed.quantize fmt 1e9 <= max_v);
  Alcotest.check_raises "overflow raises" (Fixed.Overflow 1e9) (fun () ->
      ignore (Fixed.of_float_exn fmt 1e9))

let test_fixed_sum_order_independent () =
  let fmt = Fixed.force_format in
  let rng = Rng.create 9 in
  let xs = Array.init 500 (fun _ -> Rng.uniform_in rng (-100.) 100.) in
  let s1 = Fixed.sum fmt xs in
  let rev = Array.copy xs in
  let n = Array.length rev in
  for i = 0 to (n / 2) - 1 do
    let t = rev.(i) in
    rev.(i) <- rev.(n - 1 - i);
    rev.(n - 1 - i) <- t
  done;
  let s2 = Fixed.sum fmt rev in
  check_float "bitwise equal sums" s1 s2;
  Rng.shuffle rng rev;
  check_float "shuffled equal" s1 (Fixed.sum fmt rev)

let prop_fixed_add_exact =
  qtest "fixed add is exact on representable values"
    QCheck.(pair (float_range (-1000.) 1000.) (float_range (-1000.) 1000.))
    (fun (a, b) ->
      let fmt = Fixed.format ~frac_bits:20 ~total_bits:52 in
      let qa = Fixed.quantize fmt a and qb = Fixed.quantize fmt b in
      let s =
        Fixed.to_float fmt
          (Fixed.add fmt (Fixed.of_float fmt a) (Fixed.of_float fmt b))
      in
      abs_float (s -. (qa +. qb)) < 1e-12)

let test_fixed_bad_format () =
  Alcotest.check_raises "too wide"
    (Invalid_argument "Fixed.format: total_bits must be in [2, 63]")
    (fun () -> ignore (Fixed.format ~frac_bits:10 ~total_bits:64))

(* Random formats with 4-24 fractional and 4-20 integer bits — wide enough
   to be useful, narrow enough that the saturating paths get exercised. *)
let fixed_fmt_gen =
  QCheck.(
    map
      (fun (frac, extra) -> Fixed.format ~frac_bits:frac ~total_bits:(frac + extra))
      (pair (int_range 4 24) (int_range 4 20)))

let prop_fixed_roundtrip_error =
  qtest "round-trip error is at most the quantization error"
    QCheck.(pair fixed_fmt_gen (float_range (-1000.) 1000.))
    (fun (fmt, x) ->
      (* out-of-range values clamp (covered by the saturation property) *)
      abs_float x >= Fixed.max_value fmt
      || abs_float (Fixed.quantize fmt x -. x)
         <= Fixed.quantization_error fmt +. 1e-12)

let prop_fixed_of_float_saturates =
  qtest "of_float clamps out-of-range values to the format extremes"
    QCheck.(pair fixed_fmt_gen (float_range 1.5 1e6))
    (fun (fmt, mult) ->
      let m = Fixed.max_value fmt in
      let hi, sat_hi = Fixed.of_float_checked fmt (m *. mult) in
      let lo, sat_lo = Fixed.of_float_checked fmt (-.m *. mult) in
      sat_hi && sat_lo
      && Fixed.to_float fmt hi = m
      && Fixed.to_float fmt lo <= -.m
      && not (snd (Fixed.of_float_checked fmt (m /. 2.))))

let prop_fixed_sum_order_independent =
  qtest "fixed sum is independent of accumulation order"
    QCheck.(pair (list_of_size (Gen.int_range 0 64) (float_range (-50.) 50.))
              (int_range 0 1000))
    (fun (xs, seed) ->
      let fmt = Fixed.force_format in
      let a = Array.of_list xs in
      let b = Array.copy a in
      Rng.shuffle (Rng.create seed) b;
      Fixed.sum fmt a = Fixed.sum fmt b)

let prop_fixed_add_monotone =
  (* Saturating addition keeps order: clamping both ends of the range
     cannot swap a <= b. The narrow format makes the clamp actually fire. *)
  qtest "saturating add is monotone under clamping"
    QCheck.(triple (float_range (-1e5) 1e5) (float_range (-1e5) 1e5)
              (float_range (-1e5) 1e5))
    (fun (c, a, b) ->
      let fmt = Fixed.format ~frac_bits:8 ~total_bits:20 in
      let a, b = if a <= b then (a, b) else (b, a) in
      let qc = Fixed.of_float fmt c in
      let r1 = Fixed.add fmt qc (Fixed.of_float fmt a) in
      let r2 = Fixed.add fmt qc (Fixed.of_float fmt b) in
      Int64.compare r1 r2 <= 0)

let prop_fixed_add_checked_flag =
  qtest "add_checked flags exactly the unrepresentable sums"
    QCheck.(pair (float_range (-5e3) 5e3) (float_range (-5e3) 5e3))
    (fun (a, b) ->
      let fmt = Fixed.format ~frac_bits:8 ~total_bits:20 in
      let qa = Fixed.of_float fmt a and qb = Fixed.of_float fmt b in
      let s, sat = Fixed.add_checked fmt qa qb in
      let exact = Fixed.to_float fmt qa +. Fixed.to_float fmt qb in
      if sat then abs_float exact > Fixed.max_value fmt
      else Fixed.to_float fmt s = exact)

(* --- Poly --- *)

let test_poly_eval () =
  (* 2 + 3x + x^2 at x = 2 -> 12 *)
  check_float "horner" 12. (Poly.eval [| 2.; 3.; 1. |] 2.)

let test_poly_derivative () =
  let d = Poly.derivative [| 5.; 2.; 3. |] in
  check_float "c0" 2. d.(0);
  check_float "c1" 6. d.(1)

let test_poly_hermite_matches_endpoints () =
  let p = Poly.hermite_cubic ~x0:1. ~x1:3. ~f0:2. ~f1:(-1.) ~d0:0.5 ~d1:(-2.) in
  let d = Poly.derivative p in
  check_float ~eps:1e-9 "f(x0)" 2. (Poly.eval p 0.);
  check_float ~eps:1e-9 "f(x1)" (-1.) (Poly.eval p 2.);
  check_float ~eps:1e-9 "f'(x0)" 0.5 (Poly.eval d 0.);
  check_float ~eps:1e-9 "f'(x1)" (-2.) (Poly.eval d 2.)

let test_poly_solve () =
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Poly.solve a [| 5.; 10. |] in
  check_float ~eps:1e-9 "x0" 1. x.(0);
  check_float ~eps:1e-9 "x1" 3. x.(1)

let test_poly_solve_singular () =
  let a = [| [| 1.; 1. |]; [| 2.; 2. |] |] in
  Alcotest.check_raises "singular" (Failure "Poly.solve: singular matrix")
    (fun () -> ignore (Poly.solve a [| 1.; 2. |]))

let test_poly_least_squares_exact () =
  (* Quadratic data should be recovered exactly. *)
  let xs = Array.init 20 (fun i -> float_of_int i /. 4.) in
  let ys = Array.map (fun x -> 1. -. (2. *. x) +. (0.5 *. x *. x)) xs in
  let c = Poly.least_squares ~degree:2 xs ys in
  check_float ~eps:1e-8 "c0" 1. c.(0);
  check_float ~eps:1e-8 "c1" (-2.) c.(1);
  check_float ~eps:1e-8 "c2" 0.5 c.(2)

let test_chebyshev_nodes () =
  let nodes = Poly.chebyshev_nodes ~a:(-1.) ~b:1. ~n:5 in
  Array.iter (fun x -> check_true "in range" (x >= -1. && x <= 1.)) nodes;
  check_true "descending order distinct"
    (Array.length (Array.of_seq (Seq.map Fun.id (Array.to_seq nodes))) = 5)

(* --- Stats --- *)

let test_online_matches_batch () =
  let rng = Rng.create 10 in
  let xs = Array.init 1000 (fun _ -> Rng.gaussian rng) in
  let o = Stats.Online.create () in
  Array.iter (Stats.Online.add o) xs;
  check_close ~rel:1e-9 "mean" (Stats.mean xs) (Stats.Online.mean o);
  check_close ~rel:1e-9 "variance" (Stats.variance xs)
    (Stats.Online.variance o)

let test_autocorrelation_white_noise () =
  let rng = Rng.create 11 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian rng) in
  check_float ~eps:1e-12 "lag 0" 1. (Stats.autocorrelation xs 0);
  check_true "lag 5 near zero" (abs_float (Stats.autocorrelation xs 5) < 0.03)

let test_autocorrelation_ar1 () =
  (* AR(1) with coefficient phi: autocorrelation at lag k is phi^k. *)
  let rng = Rng.create 12 in
  let phi = 0.8 in
  let n = 100_000 in
  let xs = Array.make n 0. in
  for i = 1 to n - 1 do
    xs.(i) <- (phi *. xs.(i - 1)) +. Rng.gaussian rng
  done;
  check_close ~rel:0.05 "lag 1" phi (Stats.autocorrelation xs 1);
  check_close ~rel:0.1 "lag 3" (phi ** 3.) (Stats.autocorrelation xs 3);
  let tau = Stats.integrated_autocorrelation_time xs in
  (* tau = (1 + phi) / (1 - phi) = 9 for AR(1). *)
  check_close ~rel:0.2 "integrated act" 9. tau

let test_block_standard_error () =
  let rng = Rng.create 13 in
  let xs = Array.init 10_000 (fun _ -> Rng.gaussian rng) in
  let se = Stats.block_standard_error ~block:100 xs in
  (* Independent samples: SE ~ 1/sqrt(N). *)
  check_close ~rel:0.25 "standard error" 0.01 se

let test_linear_fit () =
  let xs = Array.init 50 float_of_int in
  let ys = Array.map (fun x -> 3. +. (2.5 *. x)) xs in
  let slope, intercept = Stats.linear_fit xs ys in
  check_float ~eps:1e-9 "slope" 2.5 slope;
  check_float ~eps:1e-7 "intercept" 3. intercept

let test_max_relative_drift () =
  check_float ~eps:1e-12 "drift" 0.1
    (Stats.max_relative_drift [| 10.; 10.5; 11.; 10.2 |])

(* --- Histogram --- *)

let test_histogram_basic () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  Histogram.add h 0.5;
  Histogram.add h 0.7;
  Histogram.add h 9.99;
  Histogram.add h 10.0;
  (* out of range *)
  check_float "total" 3. (Histogram.total h);
  Alcotest.(check int) "oor" 1 (Histogram.out_of_range h);
  check_float "bin 0" 2. (Histogram.counts h).(0);
  check_float "bin 9" 1. (Histogram.counts h).(9);
  check_float "center 0" 0.5 (Histogram.center h 0)

let test_histogram_density_normalized () =
  let h = Histogram.create ~lo:(-1.) ~hi:1. ~bins:20 in
  let rng = Rng.create 14 in
  for _ = 1 to 10_000 do
    Histogram.add h (Rng.uniform_in rng (-1.) 1.)
  done;
  let d = Histogram.density h in
  let integral =
    Array.fold_left (fun a x -> a +. (x *. Histogram.bin_width h)) 0. d
  in
  check_close ~rel:1e-9 "integrates to 1" 1. integral

let test_h2 () =
  let h = Histogram.H2.create ~xlo:0. ~xhi:2. ~xbins:2 ~ylo:0. ~yhi:2. ~ybins:2 in
  Histogram.H2.add h 0.5 0.5;
  Histogram.H2.add h 1.5 0.5;
  Histogram.H2.add h 1.5 1.5;
  let c = Histogram.H2.counts h in
  check_float "00" 1. c.(0).(0);
  check_float "10" 1. c.(1).(0);
  check_float "11" 1. c.(1).(1);
  check_float "xcenter" 0.5 (Histogram.H2.xcenter h 0)

(* --- Specfun --- *)

let test_erfc_values () =
  (* Reference values. *)
  check_float ~eps:2e-7 "erfc 0" 1. (Specfun.erfc 0.);
  check_float ~eps:2e-7 "erfc 1" 0.157299207 (Specfun.erfc 1.);
  check_float ~eps:2e-7 "erfc 2" 0.004677735 (Specfun.erfc 2.);
  check_float ~eps:2e-7 "erfc -1" (2. -. 0.157299207) (Specfun.erfc (-1.))

let test_erf_complement () =
  List.iter
    (fun x ->
      check_float ~eps:1e-12 "erf + erfc = 1" 1.
        (Specfun.erf x +. Specfun.erfc x))
    [ -2.; -0.3; 0.; 0.7; 1.9 ]

let test_gamma_ln () =
  (* Gamma(5) = 24. *)
  check_close ~rel:1e-8 "ln Gamma(5)" (log 24.) (Specfun.gamma_ln 5.);
  check_close ~rel:1e-7 "ln Gamma(0.5)" (log (sqrt Float.pi))
    (Specfun.gamma_ln 0.5)

let test_sinc () =
  check_float ~eps:1e-12 "sinc 0" 1. (Specfun.sinc 0.);
  check_float ~eps:1e-9 "sinc pi" 0. (Specfun.sinc Float.pi)

(* --- Units --- *)

let test_units () =
  check_close ~rel:1e-6 "fs roundtrip" 7.5 (Units.to_fs (Units.fs 7.5));
  check_close ~rel:1e-4 "kT at 300K" 0.59616 (Units.kt 300.);
  check_close ~rel:1e-3 "ns conversion" 1e-6 (Units.to_ns (Units.fs 1.))

(* --- Table_text --- *)

let test_table_text_render () =
  let t =
    Table_text.create ~title:"T" ~columns:[ ("a", Table_text.Left); ("b", Table_text.Right) ]
  in
  Table_text.row t [ "x"; "1" ];
  Table_text.row t [ "yy"; "22" ];
  let s = Table_text.render t in
  check_true "has title" (String.length s > 0 && s.[0] = 'T');
  check_true "contains row" (String.length s > 10)

let test_table_text_mismatch () =
  let t = Table_text.create ~title:"T" ~columns:[ ("a", Table_text.Left) ] in
  Alcotest.check_raises "cell count"
    (Invalid_argument "Table_text.row: cell count mismatch") (fun () ->
      Table_text.row t [ "x"; "y" ])

(* --- Exec.sweep --- *)

(* Sanitizing executors of 1 to 5 slots, built once and shared by every
   case (a pool per case would spawn domains per case). *)
let sweep_execs =
  lazy
    (Array.init 5 (fun k ->
         Exec.create ~sanitize:true (Exec.Domains { n = k + 1 })))

(* [reads] and [writes] overlap in "b" and "c" (a slot read-modifies its
   own tile); the [whole] resources are never written, so reading all of
   them on every slot is race-free at any width. *)
let sweep_case_gen =
  let open QCheck.Gen in
  (* A random-length prefix of a shuffle: any subset, in any order. *)
  let pick names =
    shuffle_l names >>= fun l ->
    int_bound (List.length l) >|= fun k -> List.filteri (fun i _ -> i < k) l
  in
  let whole =
    pick [ "g1"; "g2" ] >>= fun names ->
    flatten_l (List.map (fun r -> int_bound 400 >|= fun n -> (r, n)) names)
  in
  quad (int_range 1 5)
    (oneof [ int_bound 6; int_bound 300 ])
    (pair (pick [ "a"; "b"; "c" ]) (pick [ "b"; "c"; "d" ]))
    whole

let sweep_case_print (slots, total, (reads, writes), whole) =
  Printf.sprintf "slots=%d total=%d reads=[%s] writes=[%s] whole=[%s]" slots
    total (String.concat ";" reads) (String.concat ";" writes)
    (String.concat ";"
       (List.map (fun (r, n) -> Printf.sprintf "%s:%d" r n) whole))

let prop_sweep =
  qtest "sweep: tiles, exactly-once visits, declared footprint" ~count:300
    (QCheck.make ~print:sweep_case_print sweep_case_gen)
    (fun (slots, total, (reads, writes), whole) ->
      let exec = (Lazy.force sweep_execs).(slots - 1) in
      let visits = Array.make total 0 in
      let seen = Array.make slots None in
      let records = ref [] in
      Exec.set_observer exec (Some (fun r -> records := r :: !records));
      (* The barrier validates the declarations: a [Race] fails the case. *)
      Fun.protect
        ~finally:(fun () -> Exec.set_observer exec None)
        (fun () ->
          Exec.sweep ~phase:"test.sweep" ~reads ~writes ~whole exec ~total
            (fun s lo hi ->
              seen.(s) <- Some (lo, hi);
              for i = lo to hi - 1 do
                visits.(i) <- visits.(i) + 1
              done));
      let tiles = Exec.tile_bounds ~total ~ntiles:slots in
      let access s resource (lo, hi) acc_total =
        {
          Exec.acc_slot = s;
          acc_resource = resource;
          acc_lo = lo;
          acc_hi = hi;
          acc_total;
        }
      in
      let per_slot f = List.concat (List.init slots f) in
      let expected_reads =
        per_slot (fun s ->
            List.map (fun r -> access s r tiles.(s) None) reads
            @ List.map (fun (r, n) -> access s r (0, n) None) whole)
      in
      let expected_writes =
        per_slot (fun s ->
            List.map (fun r -> access s r tiles.(s) (Some total)) writes)
      in
      let expected_records =
        if expected_reads = [] && expected_writes = [] then []
        else
          [
            {
              Exec.br_phase = Some "test.sweep";
              br_reads = expected_reads;
              br_writes = expected_writes;
            };
          ]
      in
      Array.for_all (fun c -> c = 1) visits
      && Array.for_all2 (fun got tile -> got = Some tile) seen tiles
      && !records = expected_records)

let () =
  Alcotest.run "mdsp_util"
    [
      ( "vec3",
        [
          Alcotest.test_case "basics" `Quick test_vec_basic;
          Alcotest.test_case "angle" `Quick test_vec_angle;
          Alcotest.test_case "normalize zero" `Quick test_vec_normalize_zero;
          Alcotest.test_case "axpy" `Quick test_axpy;
          prop_cross_orthogonal;
          prop_triangle_inequality;
          prop_dot_bilinear;
        ] );
      ( "pbc",
        [
          Alcotest.test_case "wrap" `Quick test_pbc_wrap;
          Alcotest.test_case "min image" `Quick test_pbc_min_image;
          Alcotest.test_case "min image = Float.round formula, bitwise"
            `Quick test_pbc_min_image_bitwise;
          prop_min_image_bitwise;
          Alcotest.test_case "volume/scale" `Quick test_pbc_volume_scale;
          Alcotest.test_case "fractional roundtrip" `Quick
            test_pbc_fractional_roundtrip;
          prop_min_image_symmetric;
          prop_min_image_within_half_box;
          prop_wrap_idempotent;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "split decorrelated" `Quick
            test_rng_split_decorrelated;
          Alcotest.test_case "unit vector" `Quick test_rng_unit_vector;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
        ] );
      ( "fixed",
        [
          Alcotest.test_case "roundtrip" `Quick test_fixed_roundtrip;
          Alcotest.test_case "saturation" `Quick test_fixed_saturation;
          Alcotest.test_case "order independence" `Quick
            test_fixed_sum_order_independent;
          Alcotest.test_case "bad format" `Quick test_fixed_bad_format;
          prop_fixed_add_exact;
          prop_fixed_roundtrip_error;
          prop_fixed_of_float_saturates;
          prop_fixed_sum_order_independent;
          prop_fixed_add_monotone;
          prop_fixed_add_checked_flag;
        ] );
      ( "poly",
        [
          Alcotest.test_case "eval" `Quick test_poly_eval;
          Alcotest.test_case "derivative" `Quick test_poly_derivative;
          Alcotest.test_case "hermite endpoints" `Quick
            test_poly_hermite_matches_endpoints;
          Alcotest.test_case "solve" `Quick test_poly_solve;
          Alcotest.test_case "solve singular" `Quick test_poly_solve_singular;
          Alcotest.test_case "least squares exact" `Quick
            test_poly_least_squares_exact;
          Alcotest.test_case "chebyshev nodes" `Quick test_chebyshev_nodes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "online vs batch" `Quick test_online_matches_batch;
          Alcotest.test_case "autocorr white noise" `Quick
            test_autocorrelation_white_noise;
          Alcotest.test_case "autocorr AR(1)" `Quick test_autocorrelation_ar1;
          Alcotest.test_case "block standard error" `Quick
            test_block_standard_error;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
          Alcotest.test_case "max relative drift" `Quick
            test_max_relative_drift;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "density normalized" `Quick
            test_histogram_density_normalized;
          Alcotest.test_case "2d" `Quick test_h2;
        ] );
      ( "specfun",
        [
          Alcotest.test_case "erfc values" `Quick test_erfc_values;
          Alcotest.test_case "erf complement" `Quick test_erf_complement;
          Alcotest.test_case "gamma_ln" `Quick test_gamma_ln;
          Alcotest.test_case "sinc" `Quick test_sinc;
        ] );
      ("units", [ Alcotest.test_case "conversions" `Quick test_units ]);
      ( "table_text",
        [
          Alcotest.test_case "render" `Quick test_table_text_render;
          Alcotest.test_case "mismatch" `Quick test_table_text_mismatch;
        ] );
      ("exec", [ prop_sweep ]);
    ]
