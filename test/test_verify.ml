(* The verification layer: interval arithmetic soundness, the kernel
   interval analyzer (hazardous and safe kernels), the table-domain
   checker, the Exec write-set race sanitizer, and the mdsp-check
   registry end to end. *)

open Testsupport
module I = Mdsp_verify.Interval
module KC = Mdsp_verify.Kernel_check
module TC = Mdsp_verify.Table_check
module Check = Mdsp_verify.Check
module K = Mdsp_core.Kernel
module Exec = Mdsp_util.Exec

let iv lo hi = I.make lo hi

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_iv msg expected actual =
  if actual.I.lo <> expected.I.lo || actual.I.hi <> expected.I.hi then
    Alcotest.failf "%s: expected %s, got %s" msg (I.to_string expected)
      (I.to_string actual)

(* --- interval arithmetic --- *)

let test_interval_construction () =
  check_iv "swapped bounds normalize" (iv 1. 2.) (I.make 2. 1.);
  check_iv "nan widens to top" I.top (I.make Float.nan 1.);
  check_true "contains endpoint" (I.contains (iv 1. 2.) 2.);
  check_true "top contains everything" (I.contains I.top 1e308);
  check_true "contains_zero" (I.contains_zero (iv (-1.) 1.));
  check_true "positive misses zero" (not (I.contains_zero (iv 0.5 1.)));
  check_true "finite" (I.is_finite (iv (-3.) 7.));
  check_true "top not finite" (not (I.is_finite I.top));
  check_iv "hull" (iv (-1.) 5.) (I.hull (iv (-1.) 2.) (iv 3. 5.))

let test_interval_monotone_ops () =
  check_iv "add" (iv 3. 7.) (I.add (iv 1. 2.) (iv 2. 5.));
  check_iv "sub" (iv (-4.) 0.) (I.sub (iv 1. 2.) (iv 2. 5.));
  check_iv "neg" (iv (-2.) (-1.)) (I.neg (iv 1. 2.));
  check_iv "mul positive" (iv 2. 10.) (I.mul (iv 1. 2.) (iv 2. 5.));
  check_iv "mul mixed" (iv (-10.) 10.) (I.mul (iv (-2.) 2.) (iv 2. 5.));
  check_iv "sqrt" (iv 2. 3.) (I.sqrt_ (iv 4. 9.));
  check_iv "sqrt clips negatives" (iv 0. 2.) (I.sqrt_ (iv (-1.) 4.));
  check_iv "exp" (iv 1. (exp 1.)) (I.exp_ (iv 0. 1.));
  check_iv "log" (iv 0. (log 2.)) (I.log_ (iv 1. 2.));
  check_true "log of zero-reaching is unbounded below"
    ((I.log_ (iv 0. 2.)).I.lo = neg_infinity);
  check_iv "log of nothing positive" I.top (I.log_ (iv (-2.) (-1.)));
  check_iv "min" (iv (-1.) 2.) (I.min_ (iv (-1.) 2.) (iv 0. 5.));
  check_iv "max" (iv 0. 5.) (I.max_ (iv (-1.) 2.) (iv 0. 5.))

let test_interval_division () =
  check_iv "positive divisor" (iv 1. 4.) (I.div (iv 2. 4.) (iv 1. 2.));
  check_iv "negative divisor" (iv (-4.) (-1.)) (I.div (iv 2. 4.) (iv (-2.) (-1.)));
  check_iv "divisor spanning zero is top" I.top (I.div (iv 2. 4.) (iv (-1.) 1.));
  check_iv "divisor touching zero is top" I.top (I.div (iv 2. 4.) (iv 0. 1.));
  (* The 0 * inf bound convention must not leak infinities into products
     of finite intervals with [0, 0]. *)
  check_iv "zero times top" (iv 0. 0.) (I.mul (I.point 0.) I.top)

let test_interval_pow_sign () =
  check_iv "square folds sign" (iv 0. 9.) (I.pow_int (iv (-3.) 2.) 2);
  check_iv "square positive" (iv 4. 9.) (I.pow_int (iv 2. 3.) 2);
  check_iv "square negative" (iv 1. 9.) (I.pow_int (iv (-3.) (-1.)) 2);
  check_iv "cube keeps sign" (iv (-27.) 8.) (I.pow_int (iv (-3.) 2.) 3);
  check_iv "zeroth power" (iv 1. 1.) (I.pow_int (iv (-3.) 2.) 0);
  check_iv "inverse square" (iv 0.25 1.) (I.pow_int (iv 1. 2.) (-2));
  check_iv "negative power over zero is top" I.top
    (I.pow_int (iv (-1.) 2.) (-1))

let test_interval_trig () =
  let width_ok name a =
    check_true (name ^ " within [-1,1]") (a.I.lo >= -1. && a.I.hi <= 1.)
  in
  width_ok "cos" (I.cos_ (iv 0. 1.));
  check_iv "cos through pi dips to -1" (iv (-1.) (cos 2.))
    (I.cos_ (iv 2. 4.));
  check_iv "cos over a full period" (iv (-1.) 1.) (I.cos_ (iv 0. 7.));
  check_iv "unbounded angle" (iv (-1.) 1.) (I.cos_ I.top);
  check_true "sin of [0, pi/2] hits 1"
    ((I.sin_ (iv 0. (Float.pi /. 2.))).I.hi >= 1. -. 1e-12);
  width_ok "sin" (I.sin_ (iv 0.2 0.9))

(* Soundness property: for x drawn inside the operand interval, the
   concrete result lies inside the interval result. *)
let interval_gen =
  QCheck.(
    map
      (fun (a, b) -> (I.make a b, a, b))
      (pair (float_range (-50.) 50.) (float_range (-50.) 50.)))

let pick_inside (lo, hi) t = lo +. (t *. (hi -. lo))

let prop_unary_sound =
  qtest "unary interval ops are sound" ~count:500
    QCheck.(pair interval_gen (float_range 0. 1.))
    (fun ((a, lo, hi), t) ->
      let x = pick_inside (lo, hi) t in
      let sound f fi =
        let y = f x in
        Float.is_nan y || I.contains (fi a) y
      in
      sound (fun x -> -.x) I.neg
      && sound sqrt I.sqrt_ && sound exp I.exp_ && sound log I.log_
      && sound cos I.cos_ && sound sin I.sin_
      && List.for_all
           (fun n -> sound (fun x -> x ** float_of_int n)
                (fun a -> I.pow_int a n))
           [ -3; -2; -1; 0; 1; 2; 3; 4 ])

let prop_binary_sound =
  qtest "binary interval ops are sound" ~count:500
    QCheck.(triple interval_gen interval_gen (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun ((a, alo, ahi), (b, blo, bhi), (s, t)) ->
      let x = pick_inside (alo, ahi) s and y = pick_inside (blo, bhi) t in
      let sound f fi =
        let r = f x y in
        Float.is_nan r || I.contains (fi a b) r
      in
      sound ( +. ) I.add && sound ( -. ) I.sub && sound ( *. ) I.mul
      && sound ( /. ) I.div && sound Float.min I.min_
      && sound Float.max I.max_)

(* --- the kernel analyzer --- *)

let box = Mdsp_util.Pbc.cubic 20.

let analyze_kernel k =
  KC.check_kernel ~env:(KC.env ~box (K.params k)) k

let test_hazardous_kernel_flagged () =
  let r = analyze_kernel (Check.hazardous_kernel ()) in
  check_true "flagged" (not (KC.report_ok r));
  let hs = KC.report_hazards r in
  check_true "division hazard found"
    (List.exists
       (fun (_, h) -> match h with KC.Div_by_zero _ -> true | _ -> false)
       hs);
  check_true "log hazard found"
    (List.exists
       (fun (_, h) -> match h with KC.Log_domain _ -> true | _ -> false)
       hs);
  (* The report must pretty-print the offending denominator. *)
  check_true "offending subexpression printed"
    (List.exists
       (fun (_, h) ->
         match h with
         | KC.Div_by_zero (e, _) -> K.expr_to_string e = "x"
         | _ -> false)
       hs)

let test_safe_kernels_prove_clean () =
  (* The shipped kernels are the regression proofs: the epsilon guards
     Kernel.diff inserts must be recognized as positive. *)
  List.iter
    (fun k ->
      let r = analyze_kernel k in
      if not (KC.report_ok r) then
        Alcotest.failf "kernel %s flagged:@ %s" (K.name k)
          (Format.asprintf "%a" KC.pp_report r))
    (Check.builtin_kernels ())

let test_square_dependency_precision () =
  (* x * x evaluated as a square, not as a naive product of [-l, h] with
     itself — the fix that lets the flat-bottom sqrt guard verify. *)
  let e = K.(Sub (Mul (X, X), Const 1e-16)) in
  let env = KC.env ~box [] in
  let range, hazards = KC.analyze env e in
  check_true "no hazards" (hazards = []);
  check_true "square nonnegative" (range.I.lo >= -1e-16);
  let range2, _ = KC.analyze env K.(Sqrt (Add (Mul (X, X), Const 1e-16))) in
  check_true "sqrt of guarded square is positive" (range2.I.lo > 0.)

let test_exp_overflow_flagged () =
  let e = K.Exp K.(Mul (Const 1e6, X)) in
  let _, hazards = KC.analyze (KC.env ~box []) e in
  check_true "exp overflow flagged"
    (List.exists
       (function KC.Exp_overflow _ -> true | _ -> false)
       hazards)

let test_pp_expr_precedence () =
  let s = K.expr_to_string K.(Mul (Add (X, Const 1.), Pow_int (Y, 2))) in
  check_true (Printf.sprintf "infix with parens: %s" s)
    (s = "(x + 1) * y^2")

(* --- the table checker --- *)

let lj_radial =
  Mdsp_core.Table.of_form
    (Mdsp_ff.Nonbonded.Lennard_jones { epsilon = 0.238; sigma = 3.405 })
    ~cutoff:9.

let test_table_sound () =
  let table = Mdsp_core.Table.compile ~r_min:2. ~r_cut:9. ~n:1024 lj_radial in
  let r = TC.check ~name:"lj" ~min_separation:2.5 ~table ~radial:lj_radial () in
  check_true "sound" (TC.report_ok r);
  check_true "fit bounded" r.TC.fit_ok;
  check_true "quantization clean" r.TC.quant_ok

let test_table_rmin_margin () =
  let table = Mdsp_core.Table.compile ~r_min:2. ~r_cut:9. ~n:1024 lj_radial in
  let r =
    TC.check ~name:"lj" ~min_separation:1.5 ~table ~radial:lj_radial ()
  in
  check_true "r_min above the physical minimum is flagged"
    ((not r.TC.r_min_ok) && not (TC.report_ok r))

let test_table_fit_bound () =
  (* Four intervals cannot fit r^-12 over [2, 9]: the fit gate must trip. *)
  let table = Mdsp_core.Table.compile ~r_min:2. ~r_cut:9. ~n:4 lj_radial in
  let r = TC.check ~name:"lj-coarse" ~table ~radial:lj_radial () in
  check_true "coarse fit flagged" ((not r.TC.fit_ok) && not (TC.report_ok r))

let test_table_source_finite () =
  (* log(r^2 - 25) is NaN over most of [2, 5): the source sweep must see
     it even though the knots happen to produce numbers. *)
  let radial r2 = (Float.log (r2 -. 25.), 0.) in
  let table = Mdsp_core.Table.compile ~r_min:2. ~r_cut:9. ~n:64 radial in
  let r = TC.check ~name:"log-pole" ~table ~radial () in
  check_true "non-finite source flagged" (not r.TC.source_finite)

let test_table_quantization_audit () =
  (* A non-finite coefficient smuggled past quantize:false must be caught
     by the audit. *)
  let coeffs bad =
    Array.init 4 (fun i ->
        Array.init 4 (fun d ->
            if bad && i = 2 && d = 3 then infinity else 1e-3))
  in
  let table =
    Mdsp_machine.Interp_table.make ~r_min:2. ~r_cut:9. ~n:4 ~quantize:false
      ~energy_coeffs:(coeffs true) ~force_coeffs:(coeffs false) ()
  in
  let radial _ = (1e-3, 1e-3) in
  let r = TC.check ~name:"inf-coeff" ~table ~radial () in
  check_true "non-finite coefficient flagged" (not r.TC.quant_ok)

(* --- the write-set sanitizer --- *)

let with_pool ?(sanitize = true) n f =
  let pool = Exec.create ~sanitize (Exec.Domains { n }) in
  Fun.protect ~finally:(fun () -> Exec.shutdown pool) (fun () -> f pool)

let test_sanitizer_overlap_raises () =
  with_pool 2 (fun pool ->
      let raised =
        try
          (* Both slots claim [0, 10): a deliberate race. *)
          Exec.parallel_run pool (fun s ->
              Exec.declare_write ~slot:s ~resource:"overlap" ~lo:0 ~hi:10
                pool);
          false
        with Exec.Race msg ->
          check_true "message names the resource"
            (contains_sub ~sub:"overlap" msg);
          true
      in
      check_true "overlap raised" raised;
      (* The pool must survive and validate a clean schedule afterwards. *)
      let tiles = Exec.tile_bounds ~total:10 ~ntiles:2 in
      Exec.parallel_run pool (fun s ->
          let lo, hi = tiles.(s) in
          Exec.declare_write ~slot:s ~resource:"clean" ~total:10 ~lo ~hi pool))

let test_sanitizer_coverage_gap_raises () =
  with_pool 2 (fun pool ->
      let raised =
        try
          Exec.parallel_run pool (fun s ->
              (* Slot 1's tile is missing: [5, 10) of the extent is never
                 written. *)
              if s = 0 then
                Exec.declare_write ~slot:0 ~resource:"gap" ~total:10 ~lo:0
                  ~hi:5 pool);
          false
        with Exec.Race _ -> true
      in
      check_true "coverage gap raised" raised)

let test_sanitizer_extent_mismatch_raises () =
  with_pool 2 (fun pool ->
      let raised =
        try
          Exec.parallel_run pool (fun s ->
              Exec.declare_write ~slot:s ~resource:"extent"
                ~total:(10 + s) ~lo:(5 * s) ~hi:(5 * (s + 1)) pool);
          false
        with Exec.Race _ -> true
      in
      check_true "extent disagreement raised" raised)

let test_sanitizer_off_is_noop () =
  with_pool ~sanitize:false 2 (fun pool ->
      (* The same deliberate overlap is ignored without the sanitizer. *)
      Exec.parallel_run pool (fun s ->
          Exec.declare_write ~slot:s ~resource:"overlap" ~lo:0 ~hi:10 pool))

let test_sanitizer_same_slot_overlap_ok () =
  with_pool 2 (fun pool ->
      (* A slot may revisit its own range (e.g. two passes over one tile). *)
      Exec.parallel_run pool (fun s ->
          let lo = 10 * s in
          Exec.declare_write ~slot:s ~resource:"revisit" ~lo ~hi:(lo + 10)
            pool;
          Exec.declare_write ~slot:s ~resource:"revisit" ~lo ~hi:(lo + 5)
            pool))

let test_map_slots_sanitized () =
  with_pool 3 (fun pool ->
      let r = Exec.map_slots pool (fun s -> s * s) in
      check_true "map_slots declares cleanly" (r = [| 0; 1; 4 |]))

let test_phases_race_free () =
  (* Every registered parallel phase, and nothing else, passes the
     sanitizer at 1 / 2 / 4 slots: the phase names its barriers carried
     are exactly the dataflow registry. *)
  List.iter
    (fun slots ->
      let phases = Mdsp_verify.Phase_check.run_phases ~slots in
      check_true
        (Printf.sprintf "phases sanitized at %d slots = expected_phases"
           slots)
        (phases = List.sort compare Mdsp_verify.Dataflow.expected_phases))
    [ 1; 2; 4 ]

(* --- the read-set side of the conflict matrix --- *)

let test_read_write_overlap_raises () =
  with_pool 2 (fun pool ->
      let raised =
        try
          Exec.parallel_run pool (fun s ->
              let lo = 10 * s in
              Exec.declare_write ~slot:s ~resource:"rwrace" ~lo ~hi:(lo + 10)
                pool;
              (* Every slot also claims to read the whole array: slot 0's
                 read overlaps slot 1's write. *)
              Exec.declare_read ~slot:s ~resource:"rwrace" ~lo:0 ~hi:20 pool);
          false
        with Exec.Race msg ->
          check_true "message names the resource"
            (contains_sub ~sub:"rwrace" msg);
          true
      in
      check_true "cross-slot read-write overlap raised" raised)

let test_masked_read_conflict_raises () =
  with_pool 2 (fun pool ->
      let raised =
        try
          (* Slot 0's whole-array read reaches furthest, so a scan carrying
             only the single max-hi read would check slot 0's write against
             slot 0's own read and miss slot 1's shorter one underneath. *)
          Exec.parallel_run pool (fun s ->
              if s = 0 then begin
                Exec.declare_read ~slot:0 ~resource:"masked" ~lo:0 ~hi:100
                  pool;
                Exec.declare_write ~slot:0 ~resource:"masked" ~lo:15 ~hi:30
                  pool
              end
              else
                Exec.declare_read ~slot:1 ~resource:"masked" ~lo:10 ~hi:20
                  pool);
          false
        with Exec.Race msg ->
          check_true "message names the resource"
            (contains_sub ~sub:"masked" msg);
          true
      in
      check_true "read masked by the writer's own wider read raised" raised)

let test_overlapping_reads_ok () =
  with_pool 2 (fun pool ->
      (* Reads may overlap freely when nobody writes the resource. *)
      Exec.parallel_run pool (fun s ->
          ignore s;
          Exec.declare_read ~slot:s ~resource:"shared_ro" ~lo:0 ~hi:100 pool))

let test_same_slot_rmw_ok () =
  with_pool 2 (fun pool ->
      (* A slot reading its own write range is an ordinary
         read-modify-write (force accumulation), not a race. *)
      Exec.parallel_run pool (fun s ->
          let lo = 50 * s in
          Exec.declare_read ~slot:s ~resource:"rmw" ~lo ~hi:(lo + 50) pool;
          Exec.declare_write ~slot:s ~resource:"rmw" ~total:100 ~lo
            ~hi:(lo + 50) pool))

let test_read_beyond_extent_raises () =
  with_pool 2 (fun pool ->
      let raised =
        try
          Exec.parallel_run pool (fun s ->
              let lo = 5 * s in
              Exec.declare_write ~slot:s ~resource:"short" ~total:10 ~lo
                ~hi:(lo + 5) pool;
              (* The read range runs past the declared extent. *)
              Exec.declare_read ~slot:s ~resource:"short" ~lo ~hi:15 pool);
          false
        with Exec.Race _ -> true
      in
      check_true "read beyond the declared extent raised" raised)

(* --- phase dataflow --- *)

module DF = Mdsp_verify.Dataflow

let dataflow_report = lazy (DF.run ~slots:[ 1; 2 ] ())

let test_dataflow_certified () =
  let r = Lazy.force dataflow_report in
  check_true "acyclic" r.DF.df_acyclic;
  check_true "invariant across slot counts" r.DF.df_invariant;
  check_true "no missing phase" (r.DF.df_missing = []);
  check_true "every phase has a read-set" (r.DF.df_no_reads = []);
  check_true "every phase has a write-set" (r.DF.df_no_writes = []);
  check_true "report ok" (DF.ok r);
  List.iter
    (fun g ->
      check_true
        (Printf.sprintf "exactly the expected phase set at %d slots"
           g.DF.g_slots)
        (List.map (fun p -> p.DF.ph_name) g.DF.g_phases
        = List.sort compare DF.expected_phases))
    r.DF.df_graphs

let test_dataflow_edges_expected () =
  let r = Lazy.force dataflow_report in
  let g = List.hd r.DF.df_graphs in
  let has e = List.mem e g.DF.g_edges in
  check_true "rebuild feeds the pair phase"
    (has ("nbuild", "pair", "nlist.tiles"));
  check_true "first kick precedes the drift"
    (has ("integrate.kick1", "integrate.drift", "state.velocities"));
  check_true "the flat store sync precedes the second kick"
    (has ("soa.store", "integrate.kick2", "state.forces"));
  check_true "the grid pipeline chains into the gather"
    (has ("gse.phi_scale", "gse.gather", "gse.grid"));
  check_true "the SoA reduction drains into the store"
    (has ("soa.reduce", "soa.store", "soa.forces"));
  (* The GSE stages read the constrained positions, the gather adds into
     the forces the flat store wrote, and the combined grid feeds the
     forward transform. *)
  check_true "SHAKE precedes the spread"
    (has ("constraints.shake", "gse.spread", "state.positions"));
  check_true "SHAKE precedes the gather"
    (has ("constraints.shake", "gse.gather", "state.positions"));
  check_true "the flat store sync precedes the gather"
    (has ("soa.store", "gse.gather", "state.forces"));
  check_true "the combined grid feeds the forward transform"
    (has ("gse.combine", "gse.fft_fwd.x", "gse.grid"))

let test_dataflow_dot_deterministic () =
  let r = Lazy.force dataflow_report in
  match r.DF.df_graphs with
  | [ g1; g2 ] ->
      let d1 = DF.dot g1 and d2 = DF.dot g2 in
      check_true "DOT nonempty" (String.length d1 > 0);
      check_true "DOT names the pair edge"
        (contains_sub ~sub:"\"nbuild\" -> \"pair\"" d1);
      Alcotest.(check string) "byte-identical DOT at 1 and 2 slots" d1 d2
  | _ -> Alcotest.fail "expected graphs at two slot counts"

let test_dataflow_seed_race_fails () =
  let r = DF.run ~slots:[ 2 ] ~seed_race:true () in
  check_true "seeded" r.DF.df_seeded;
  check_true "the seeded race is caught and named"
    (match r.DF.df_failure with
    | Some msg -> contains_sub ~sub:"seed.race" msg
    | None -> false);
  check_true "report fails" (not (DF.ok r))

let test_dataflow_unregistered_phase_fails () =
  (* At one slot the seeded window is a plain same-slot read-modify-write,
     so no race fires — the only defect left is that "seed.race" is not in
     [expected_phases], and that alone must fail the report. *)
  let r = DF.run ~slots:[ 1 ] ~seed_race:true () in
  check_true "no race at one slot" (r.DF.df_failure = None);
  check_true "the unregistered phase is flagged"
    (r.DF.df_unexpected = [ "seed.race" ]);
  check_true "report fails" (not (DF.ok r))

(* The acyclicity checker itself, property-tested: edges that only point
   forward in some node order form a DAG; reversing any one of them closes
   a cycle Kahn's algorithm must find. *)
let mk_dag_graph n edges =
  let phases =
    List.init n (fun i ->
        {
          DF.ph_name = Printf.sprintf "p%d" i;
          ph_reads = [];
          ph_writes = [];
          ph_barriers = 1;
        })
  in
  { DF.g_slots = 1; g_phases = phases; g_edges = edges; g_unlabeled = 0 }

let prop_acyclic_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"forward edges are a DAG; one reversed edge is a cycle"
       QCheck.(
         pair (int_range 2 8)
           (small_list (pair (int_range 0 7) (int_range 0 7))))
       (fun (n, raw) ->
         let name i = Printf.sprintf "p%d" i in
         let edges =
           List.sort_uniq compare
             (List.filter_map
                (fun (a, b) ->
                  let a = a mod n and b = b mod n in
                  if a < b then Some (name a, name b, "r") else None)
                raw)
         in
         DF.acyclic (mk_dag_graph n edges)
         &&
         match edges with
         | [] -> true
         | (a, b, _) :: _ ->
             not (DF.acyclic (mk_dag_graph n ((b, a, "r") :: edges)))))

let test_dataflow_seed_cycle_fails () =
  (* The planted cyclic pair is race-free — its tiles are sound — so the
     only defect the acyclicity branch can blame is the cycle itself, and
     it must find it even at one slot. *)
  let r = DF.run ~slots:[ 1 ] ~seed_cycle:true () in
  check_true "seeded" r.DF.df_seeded;
  check_true "no race" (r.DF.df_failure = None);
  check_true "acyclicity fails" (not r.DF.df_acyclic);
  check_true "report fails" (not (DF.ok r));
  let g = List.hd r.DF.df_graphs in
  check_true "the planted a->b edge is derived"
    (List.mem ("seed.cycle.a", "seed.cycle.b", "seed.x") g.DF.g_edges);
  check_true "the planted b->a edge is derived"
    (List.mem ("seed.cycle.b", "seed.cycle.a", "seed.y") g.DF.g_edges)

(* --- constraint schedules --- *)

module Sched = Mdsp_verify.Schedule
module TP = Mdsp_ff.Topology

let test_schedule_builtins_certified () =
  let reports = Sched.run ~slots:[ 1; 2; 4 ] () in
  check_true "all builtin envelopes certified" (Sched.ok reports);
  let water = List.find (fun r -> r.Sched.rp_name = "water6k") reports in
  check_true "water6k fuses into 3-constraint clusters"
    (water.Sched.rp_max_cluster = 3);
  check_true "fused water clusters share no atom"
    water.Sched.rp_cert.Sched.crt_proper;
  check_true "every constraint clustered"
    (water.Sched.rp_n_constraints = 3 * water.Sched.rp_n_clusters);
  let chain = List.find (fun r -> r.Sched.rp_name = "chain10k") reports in
  check_true "chain10k has the empty schedule"
    (chain.Sched.rp_n_constraints = 0 && chain.Sched.rp_n_clusters = 0)

let test_schedule_seed_conflict_fails () =
  let c = Sched.certify (Sched.seed_conflict_plan ()) in
  check_true "units sharing an atom fail the proper check"
    (not c.Sched.crt_proper);
  check_true "and the cross-slot footprint check"
    (not c.Sched.crt_disjoint);
  check_true "certificate fails" (not (Sched.cert_ok c));
  check_true "violations name the shared atom"
    (List.exists (contains_sub ~sub:"atom 1") c.Sched.crt_violations);
  let c1 = Sched.certify ~slots:[ 1 ] (Sched.seed_conflict_plan ()) in
  check_true "one slot: still not proper, but one tile is disjoint"
    ((not c1.Sched.crt_proper) && c1.Sched.crt_disjoint)

(* Random constraint topologies: the plan the solver runs (its own cluster
   list) passes the full certificate, and the same plan with one of its
   units appended a second time fails it. *)
let prop_schedule_certified =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"random topologies: solver plan certified, duplicate fails"
       QCheck.(
         pair (int_range 3 24)
           (small_list (pair (int_range 0 23) (int_range 0 23))))
       (fun (n, raw) ->
         let edges =
           List.sort_uniq compare
             (List.filter_map
                (fun (a, b) ->
                  let a = a mod n and b = b mod n in
                  if a < b then Some (a, b) else None)
                raw)
         in
         let b = TP.Builder.create () in
         TP.Builder.set_lj_types b [| (0.1, 1.0) |];
         for _ = 1 to n do
           ignore
             (TP.Builder.add_atom b ~mass:1. ~charge:0. ~type_id:0 ~name:"X")
         done;
         List.iter
           (fun (i, j) -> TP.Builder.add_constraint b ~i ~j ~dist:1.)
           edges;
         let topo = TP.Builder.finish b in
         let p = Sched.plan ~name:"prop" topo in
         let units = p.Sched.pl_units in
         let duplicated =
           match units with
           | [||] -> true
           | _ ->
               let u = units.(Array.length units / 2) in
               not
                 (Sched.cert_ok
                    (Sched.certify
                       {
                         p with
                         Sched.pl_units = Array.append units [| u |];
                       }))
         in
         units = Mdsp_md.Constraints.(clusters (create topo))
         && Sched.cert_ok (Sched.certify p)
         && duplicated))

(* --- the registry --- *)

(* --- fixed-point datapath certifier --- *)

module FC = Mdsp_verify.Fixed_check
module FI = Mdsp_verify.Fixed_interval
module Fixed = Mdsp_util.Fixed

let water_env = lazy (List.hd (Check.builtin_envelopes ()))

let test_fixed_interval_domain () =
  let fmt = Mdsp_util.Fixed.format ~frac_bits:10 ~total_bits:24 in
  let qerr = Fixed.quantization_error fmt in
  let a = FI.quantize fmt (FI.of_magnitude 3.) in
  check_float "quantize adds half a resolution" qerr a.FI.err;
  let s = FI.add a a in
  check_float "errors add through addition" (2. *. qerr) s.FI.err;
  let r = FI.repeat_add ~count:100 a in
  check_true "repeat_add scales value and error"
    (FI.worst_magnitude r >= 300. && r.FI.err = 100. *. qerr);
  check_true "fits the 24-bit format" (FI.fits fmt r);
  check_true "positive margin" (FI.margin_bits fmt r > 0.);
  let m = FI.of_magnitude 100. in
  match FI.min_safe_total_bits fmt m with
  | None -> Alcotest.fail "expected a finite safe width"
  | Some tb ->
      check_true "reported width fits"
        (FI.fits (Fixed.format ~frac_bits:10 ~total_bits:tb) m);
      check_true "one bit fewer does not"
        (tb <= 11
        || not (FI.fits (Fixed.format ~frac_bits:10 ~total_bits:(tb - 1)) m))

let test_datapath_water_proved () =
  let r = FC.certify (Lazy.force water_env) in
  check_true "water datapath proved safe" (FC.proved r);
  List.iter
    (fun name ->
      check_true (name ^ " proved") (FC.format_ok r name);
      check_true
        (Printf.sprintf "%s margin %.2f >= 1 bit" name (FC.format_margin r name))
        (FC.format_margin r name >= 1.))
    (FC.format_names r);
  check_true "certificate covers all four formats"
    (List.sort compare (FC.format_names r)
    = List.sort compare
        [ "force_format"; "energy_format"; "position_format"; "coeff_format" ]);
  check_true "every accumulator row has a finite worst case"
    (List.for_all
       (fun a -> Float.is_finite a.FC.worst && a.FC.worst >= 0.)
       r.FC.accs)

let test_datapath_narrow_flagged () =
  let env = Lazy.force water_env in
  let r = FC.certify ~format:Check.narrow_format env in
  check_true "narrow format rejected" (not (FC.proved r));
  check_true "force format flagged" (not (FC.format_ok r "force_format"));
  check_true "position datapath unaffected by the force narrowing"
    (FC.format_ok r "position_format");
  let acc =
    List.find
      (fun a -> a.FC.acc = "HTIS per-atom component accumulator")
      r.FC.accs
  in
  check_true "per-atom accumulator row unsafe" (not acc.FC.safe);
  check_true "negative margin" (acc.FC.margin_bits < 0.);
  (* the verdict is actionable: the reported minimal width really is
     minimal — certifying at that width clears the row, one bit fewer
     does not *)
  match acc.FC.min_safe_bits with
  | None -> Alcotest.fail "expected a minimal safe width"
  | Some bits ->
      check_true "minimal width at most the default 48" (bits <= 48);
      let row_at tb =
        let f = { Check.narrow_format with Fixed.total_bits = tb } in
        let r = FC.certify ~format:f env in
        List.find (fun a -> a.FC.acc = acc.FC.acc) r.FC.accs
      in
      check_true "reported width is safe" (row_at bits).FC.safe;
      check_true "one bit fewer is not" (not (row_at (bits - 1)).FC.safe)

let test_datapath_runtime_cross_check () =
  let env = Lazy.force water_env in
  let sys = Mdsp_workload.Workloads.water_box ~n_side:2 () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let types =
    Array.map
      (fun (a : Mdsp_ff.Topology.atom) -> a.Mdsp_ff.Topology.type_id)
      topo.Mdsp_ff.Topology.atoms
  in
  let charges = Mdsp_ff.Topology.charges topo in
  let box = sys.Mdsp_workload.Workloads.box in
  let pos = sys.Mdsp_workload.Workloads.positions in
  let cutoff = env.FC.cutoff in
  let nlist = Mdsp_space.Neighbor_list.create ~cutoff ~skin:1. box pos in
  let run format =
    Mdsp_machine.Htis.compute_forces ~format env.FC.tables ~types ~charges
      ~cutoff box nlist pos
  in
  (* The certified direction: the format the certifier proves safe runs
     with a clean saturation counter, on both execution paths. *)
  check_true "default format proved" (FC.proved (FC.certify env));
  let r = run Fixed.force_format in
  Alcotest.(check int) "proved-safe run is clean" 0 r.Mdsp_machine.Htis.saturations;
  let rm =
    Mdsp_machine.Machine_sim.compute ~nodes:env.FC.nodes env.FC.tables ~types
      ~charges ~cutoff box nlist pos
  in
  Alcotest.(check int) "proved-safe machine-sim run is clean" 0
    rm.Mdsp_machine.Machine_sim.saturations;
  (* The other direction: a format the certifier rejects — narrow enough
     that the real configuration (not just the adversarial worst case)
     overflows — must trip the runtime counter. *)
  let tiny = { Fixed.force_format with Fixed.total_bits = 26 } in
  check_true "certifier rejects the tiny format"
    (not (FC.proved (FC.certify ~format:tiny env)));
  let r = run tiny in
  check_true "tiny-format run actually saturates"
    (r.Mdsp_machine.Htis.saturations > 0)

let test_registry_end_to_end () =
  let s = Check.run ~seed_hazard:true ~seed_narrow:true ~slots:[ 2 ] () in
  check_true "seeded summary fails" (not (Check.ok s));
  check_true "only the seeded kernel fails"
    (List.for_all
       (fun (r : KC.report) ->
         KC.report_ok r = (r.KC.kernel <> "seeded_hazard"))
       s.Check.kernels);
  check_true "all tables sound"
    (List.for_all TC.report_ok s.Check.tables);
  check_true "sanitizer clean"
    (List.for_all (fun r -> r.Check.failure = None) s.Check.sanitize);
  check_true "only the narrowed datapaths fail"
    (List.for_all
       (fun (r : FC.report) ->
         FC.proved r = not (contains_sub ~sub:"[narrow" r.FC.workload))
       s.Check.datapath);
  check_true "all three envelopes in the registry"
    (List.exists (fun (r : FC.report) -> r.FC.workload = "water6k")
       s.Check.datapath
    && List.exists (fun (r : FC.report) -> r.FC.workload = "chain10k")
         s.Check.datapath);
  let json = Check.to_json s in
  let has sub = contains_sub ~sub json in
  check_true "json verdict keys"
    (has "\"verify.ok\": 0"
    && has "\"kernel.seeded_hazard\": 0"
    && has "\"kernel.flat_bottom\": 1"
    && has "\"table.lj\": 1"
    && has "\"sanitize.slots2\": 1"
    && has "\"datapath.water.ok\": 1"
    && has "\"datapath.water.force_format\": 1"
    && has "\"datapath.water[narrow32].ok\": 0"
    && has "\"datapath.water[narrow32].force_format\": 0")

let () =
  Alcotest.run "verify"
    [
      ( "interval",
        [
          Alcotest.test_case "construction and predicates" `Quick
            test_interval_construction;
          Alcotest.test_case "monotone ops" `Quick test_interval_monotone_ops;
          Alcotest.test_case "division spanning zero" `Quick
            test_interval_division;
          Alcotest.test_case "pow_int sign handling" `Quick
            test_interval_pow_sign;
          Alcotest.test_case "trig widening" `Quick test_interval_trig;
          prop_unary_sound;
          prop_binary_sound;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "hazardous kernel flagged" `Quick
            test_hazardous_kernel_flagged;
          Alcotest.test_case "shipped kernels prove clean" `Quick
            test_safe_kernels_prove_clean;
          Alcotest.test_case "x*x is a square" `Quick
            test_square_dependency_precision;
          Alcotest.test_case "exp overflow flagged" `Quick
            test_exp_overflow_flagged;
          Alcotest.test_case "expression pretty-printer" `Quick
            test_pp_expr_precedence;
        ] );
      ( "table",
        [
          Alcotest.test_case "sound table passes" `Quick test_table_sound;
          Alcotest.test_case "r_min margin" `Quick test_table_rmin_margin;
          Alcotest.test_case "fit error bound" `Quick test_table_fit_bound;
          Alcotest.test_case "source finiteness sweep" `Quick
            test_table_source_finite;
          Alcotest.test_case "quantization audit" `Quick
            test_table_quantization_audit;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "cross-slot overlap raises" `Quick
            test_sanitizer_overlap_raises;
          Alcotest.test_case "coverage gap raises" `Quick
            test_sanitizer_coverage_gap_raises;
          Alcotest.test_case "extent mismatch raises" `Quick
            test_sanitizer_extent_mismatch_raises;
          Alcotest.test_case "off by default" `Quick test_sanitizer_off_is_noop;
          Alcotest.test_case "same-slot revisits allowed" `Quick
            test_sanitizer_same_slot_overlap_ok;
          Alcotest.test_case "map_slots declares" `Quick
            test_map_slots_sanitized;
          Alcotest.test_case "force phases race-free at 1/2/4 slots" `Quick
            test_phases_race_free;
          Alcotest.test_case "cross-slot read-write overlap raises" `Quick
            test_read_write_overlap_raises;
          Alcotest.test_case "read masked by writer's wider read raises"
            `Quick test_masked_read_conflict_raises;
          Alcotest.test_case "overlapping reads allowed" `Quick
            test_overlapping_reads_ok;
          Alcotest.test_case "same-slot read-modify-write allowed" `Quick
            test_same_slot_rmw_ok;
          Alcotest.test_case "read beyond extent raises" `Quick
            test_read_beyond_extent_raises;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "happens-before graph certified" `Quick
            test_dataflow_certified;
          Alcotest.test_case "expected edges present" `Quick
            test_dataflow_edges_expected;
          Alcotest.test_case "DOT deterministic across slot counts" `Quick
            test_dataflow_dot_deterministic;
          Alcotest.test_case "seeded race fails the report" `Quick
            test_dataflow_seed_race_fails;
          Alcotest.test_case "unregistered phase fails the report" `Quick
            test_dataflow_unregistered_phase_fails;
          Alcotest.test_case "seeded cycle fails acyclicity" `Quick
            test_dataflow_seed_cycle_fails;
          prop_acyclic_sound;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "builtin envelopes certified" `Quick
            test_schedule_builtins_certified;
          Alcotest.test_case "seeded conflict fails the certificate" `Quick
            test_schedule_seed_conflict_fails;
          prop_schedule_certified;
        ] );
      ( "datapath",
        [
          Alcotest.test_case "fixed-interval abstract domain" `Quick
            test_fixed_interval_domain;
          Alcotest.test_case "water datapath proved safe" `Quick
            test_datapath_water_proved;
          Alcotest.test_case "narrowed format flagged with minimal width"
            `Quick test_datapath_narrow_flagged;
          Alcotest.test_case "static verdicts match runtime saturation"
            `Quick test_datapath_runtime_cross_check;
        ] );
      ( "registry",
        [
          Alcotest.test_case "seeded run end to end" `Quick
            test_registry_end_to_end;
        ] );
    ]
