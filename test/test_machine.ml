(* Tests for Mdsp_machine: interpolation-table format, HTIS functional model
   (accuracy + bit-level determinism), configuration, performance model,
   and the multi-node decomposition with its analytic import model. *)

open Mdsp_util
open Mdsp_machine
open Testsupport

(* --- Interp_table --- *)

let linear_table ~quantize =
  (* Table representing e(r2) = r2, f(r2) = 2 r2 exactly (cubics suffice). *)
  let n = 4 in
  let r_min = 1. and r_cut = 3. in
  let s0 = r_min *. r_min and s1 = r_cut *. r_cut in
  let width = (s1 -. s0) /. float_of_int n in
  let e_coeffs =
    Array.init n (fun i ->
        let base = s0 +. (float_of_int i *. width) in
        [| base; 1.; 0.; 0. |])
  in
  let f_coeffs =
    Array.init n (fun i ->
        let base = s0 +. (float_of_int i *. width) in
        [| 2. *. base; 2.; 0.; 0. |])
  in
  Interp_table.make ~r_min ~r_cut ~n ~quantize ~energy_coeffs:e_coeffs
    ~force_coeffs:f_coeffs ()

let test_interp_table_exact_polynomial () =
  let t = linear_table ~quantize:false in
  List.iter
    (fun r2 ->
      let e, f = Interp_table.eval t r2 in
      check_close ~rel:1e-12 "energy" r2 e;
      check_close ~rel:1e-12 "force" (2. *. r2) f)
    [ 1.0; 2.5; 5.3; 8.9 ]

let test_interp_table_cutoff_and_clamp () =
  let t = linear_table ~quantize:false in
  let e, f = Interp_table.eval t 9.5 in
  check_float ~eps:0. "zero beyond cutoff (e)" 0. e;
  check_float ~eps:0. "zero beyond cutoff (f)" 0. f;
  (* Below r_min^2: clamped to the first knot. *)
  let e_low, _ = Interp_table.eval t 0.1 in
  check_close ~rel:1e-12 "clamped at r_min^2" 1. e_low

let test_interp_table_quantization_error_bounded () =
  let t = linear_table ~quantize:true in
  List.iter
    (fun r2 ->
      let e, _ = Interp_table.eval t r2 in
      (* Block quantization with 24 fractional bits: relative error per
         coefficient below 2^-24 * (block scale / coeff). *)
      check_close ~rel:1e-5 "quantized close" r2 e)
    [ 1.0; 2.5; 5.3 ]

let test_interp_table_validation () =
  Alcotest.check_raises "bad n"
    (Invalid_argument "Interp_table.make: n must be positive") (fun () ->
      ignore
        (Interp_table.make ~r_min:1. ~r_cut:2. ~n:0 ~quantize:false
           ~energy_coeffs:[||] ~force_coeffs:[||] ()));
  Alcotest.check_raises "bad range"
    (Invalid_argument "Interp_table.make: need 0 <= r_min < r_cut") (fun () ->
      ignore
        (Interp_table.make ~r_min:3. ~r_cut:2. ~n:1 ~quantize:false
           ~energy_coeffs:[| [| 0.; 0.; 0.; 0. |] |]
           ~force_coeffs:[| [| 0.; 0.; 0.; 0. |] |] ()))

let test_interp_table_sram () =
  let t = linear_table ~quantize:true in
  check_true "sram scales with n" (Interp_table.sram_bytes t > 0)

(* --- Config --- *)

let test_config_throughputs () =
  let cfg = Config.anton_like () in
  Alcotest.(check int) "512 nodes" 512 (Config.node_count cfg);
  (* 512 * 32 pipelines at 0.8 GHz. *)
  check_close ~rel:1e-9 "pair throughput" (512. *. 32. *. 0.8e9)
    (Config.pair_throughput cfg);
  check_true "flex throughput positive" (Config.flex_throughput cfg > 0.);
  Alcotest.(check int) "torus diameter" 12 (Config.max_hops cfg)

(* --- Htis over real tables --- *)

let lj_machine_setup n =
  let sys = Mdsp_workload.Workloads.lj_fluid ~n () in
  let cutoff = 8.0 in
  let ts =
    Mdsp_core.Table.table_set_of_topology sys.Mdsp_workload.Workloads.topo
      ~cutoff ~elec:Mdsp_ff.Pair_interactions.No_coulomb ~n:2048 ()
  in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let types =
    Array.map
      (fun (a : Mdsp_ff.Topology.atom) -> a.Mdsp_ff.Topology.type_id)
      topo.Mdsp_ff.Topology.atoms
  in
  let charges = Mdsp_ff.Topology.charges topo in
  (sys, ts, types, charges, cutoff)

let test_htis_matches_reference () =
  let sys, ts, types, charges, cutoff = lj_machine_setup 150 in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let box = sys.Mdsp_workload.Workloads.box in
  let pos = sys.Mdsp_workload.Workloads.positions in
  let mach_ev = Htis.evaluator ts ~types ~charges ~cutoff in
  let ref_ev =
    Mdsp_ff.Pair_interactions.of_topology topo ~cutoff
      ~trunc:Mdsp_ff.Nonbonded.Shift ~elec:Mdsp_ff.Pair_interactions.No_coulomb
  in
  let r_ref = Mdsp_baseline.Reference.compute topo box pos ~evaluator:ref_ev in
  let r_mach = Mdsp_baseline.Reference.compute topo box pos ~evaluator:mach_ev in
  let err =
    Mdsp_baseline.Reference.max_force_error
      r_ref.Mdsp_baseline.Reference.forces r_mach.Mdsp_baseline.Reference.forces
  in
  check_true (Printf.sprintf "force error %.2e < 1e-5" err) (err < 1e-5);
  check_close ~rel:1e-5 "pair energy"
    r_ref.Mdsp_baseline.Reference.pair_energy
    r_mach.Mdsp_baseline.Reference.pair_energy

let test_htis_determinism_under_permutation () =
  let sys, ts, types, charges, cutoff = lj_machine_setup 120 in
  let box = sys.Mdsp_workload.Workloads.box in
  let pos = sys.Mdsp_workload.Workloads.positions in
  let nlist = Mdsp_space.Neighbor_list.create ~cutoff ~skin:1. box pos in
  let r0 = Htis.compute_forces ts ~types ~charges ~cutoff box nlist pos in
  Alcotest.(check int) "no silent saturation" 0 r0.Htis.saturations;
  let np = Mdsp_space.Neighbor_list.length nlist in
  let rng = Rng.create 81 in
  for _ = 1 to 5 do
    let perm = Array.init np Fun.id in
    Rng.shuffle rng perm;
    let r =
      Htis.compute_forces ~perm ts ~types ~charges ~cutoff box nlist pos
    in
    check_true "energy bitwise equal" (r.Htis.energy = r0.Htis.energy);
    Alcotest.(check int) "no silent saturation" 0 r.Htis.saturations;
    Array.iteri
      (fun i v ->
        if v <> r0.Htis.forces.(i) then
          Alcotest.failf "force %d differs under permutation" i)
      r.Htis.forces
  done

let test_htis_float_accumulation_is_order_dependent () =
  (* Sanity check on the premise: plain float accumulation differs under
     reordering, which is exactly why the machine uses fixed point. *)
  let rng = Rng.create 82 in
  let xs = Array.init 1000 (fun _ -> Rng.uniform_in rng (-1e6) 1e6) in
  let s1 = Array.fold_left ( +. ) 0. xs in
  let rev = Array.copy xs in
  Rng.shuffle rng rev;
  let s2 = Array.fold_left ( +. ) 0. rev in
  check_true "float sums differ under reorder" (s1 <> s2)

let test_htis_cycles () =
  let cfg = Config.anton_like () in
  check_close ~rel:1e-12 "pairs over pipelines" (1000. /. 32.)
    (Htis.cycles cfg ~pairs:1000)

(* --- Perf model --- *)

let workload n =
  Perf.plain_workload ~n_atoms:n ~density:0.1 ~cutoff:9.0 ~dt_fs:2.5

let test_perf_monotone_in_atoms () =
  let cfg = Config.anton_like () in
  let t n = (Perf.step_time cfg (workload n)).Perf.step_s in
  check_true "more atoms, longer steps" (t 100_000 > t 10_000);
  check_true "ns/day decreases"
    (Perf.ns_per_day cfg (workload 100_000)
    < Perf.ns_per_day cfg (workload 10_000))

let test_perf_strong_scaling_helps_then_saturates () =
  let w = workload 25_000 in
  let t nodes =
    (Perf.step_time (Config.anton_like ~nodes ()) w).Perf.step_s
  in
  let t64 = t (4, 4, 4) and t512 = t (8, 8, 8) in
  check_true "512 nodes faster than 64" (t512 < t64);
  (* Speedup is sub-linear: latency terms keep it below 8x. *)
  check_true "sub-linear speedup" (t64 /. t512 < 8.)

let test_perf_fft_adds_time () =
  let cfg = Config.anton_like () in
  let w = workload 25_000 in
  let w_fft = { w with Perf.fft_grid = Some (64, 64, 64) } in
  check_true "FFT costs time"
    ((Perf.step_time cfg w_fft).Perf.step_s > (Perf.step_time cfg w).Perf.step_s)

let test_perf_pair_passes_multiplier () =
  let cfg = Config.anton_like () in
  let w = workload 200_000 in
  (* Large system: HTIS-bound, so doubling pair passes nearly doubles the
     pipeline time. *)
  let w2 = { w with Perf.pair_passes = 2.0 } in
  let b1 = Perf.step_time cfg w and b2 = Perf.step_time cfg w2 in
  check_close ~rel:1e-9 "htis time doubles" (2. *. b1.Perf.htis_s) b2.Perf.htis_s

let test_perf_of_system () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:6 () in
  let w =
    Perf.of_system sys.Mdsp_workload.Workloads.topo
      sys.Mdsp_workload.Workloads.box
  in
  Alcotest.(check int) "atoms" 648 w.Perf.n_atoms;
  Alcotest.(check int) "constraints" 648 w.Perf.n_constraints;
  check_close ~rel:0.05 "density is waterlike" 0.1 w.Perf.density

let test_perf_breakdown_components_sum () =
  let cfg = Config.anton_like () in
  let w = { (workload 25_000) with Perf.fft_grid = Some (32, 32, 32) } in
  let b = Perf.step_time cfg w in
  check_true "all components positive"
    (b.Perf.htis_s > 0. && b.Perf.flex_s > 0. && b.Perf.comm_s > 0.
   && b.Perf.fft_s > 0. && b.Perf.sync_s > 0.);
  check_true "step at least max of compute resources"
    (b.Perf.step_s
    >= Float.max b.Perf.htis_s (Float.max b.Perf.flex_s b.Perf.comm_s))

let test_machine_sim_parallel_determinism () =
  let sys, ts, types, charges, cutoff = lj_machine_setup 200 in
  let box = sys.Mdsp_workload.Workloads.box in
  let pos = sys.Mdsp_workload.Workloads.positions in
  let nlist = Mdsp_space.Neighbor_list.create ~cutoff ~skin:1. box pos in
  (* Single-stream reference. *)
  let r1 = Htis.compute_forces ts ~types ~charges ~cutoff box nlist pos in
  (* Decomposed across several torus sizes: bitwise identical. *)
  List.iter
    (fun nodes ->
      let r =
        Machine_sim.compute ~nodes ts ~types ~charges ~cutoff box nlist pos
      in
      check_true "energy bitwise equal" (r.Machine_sim.energy = r1.Htis.energy);
      Alcotest.(check int) "no silent saturation" 0 r.Machine_sim.saturations;
      Array.iteri
        (fun i v ->
          if v <> r1.Htis.forces.(i) then
            Alcotest.failf "parallel forces differ at atom %d" i)
        r.Machine_sim.forces;
      check_true "pair conservation"
        (Array.fold_left ( + ) 0 r.Machine_sim.pairs_per_node
        = Mdsp_space.Neighbor_list.length nlist))
    [ (1, 1, 1); (2, 2, 2); (4, 4, 4); (3, 2, 1) ]

let test_machine_sim_load_balance () =
  let sys, ts, types, charges, cutoff = lj_machine_setup 500 in
  let box = sys.Mdsp_workload.Workloads.box in
  let pos = sys.Mdsp_workload.Workloads.positions in
  let nlist = Mdsp_space.Neighbor_list.create ~cutoff ~skin:1. box pos in
  let r =
    Machine_sim.compute ~nodes:(2, 2, 2) ts ~types ~charges ~cutoff box nlist
      pos
  in
  (* A homogeneous fluid should balance within a factor ~2. *)
  check_true
    (Printf.sprintf "imbalance %.2f < 2" (Machine_sim.imbalance r))
    (Machine_sim.imbalance r < 2.)

let prop_machine_sim_any_nodes =
  qtest "parallel decomposition bitwise-equal for random torus dims" ~count:12
    QCheck.(triple (int_range 1 5) (int_range 1 5) (int_range 1 5))
    (fun (px, py, pz) ->
      let sys, ts, types, charges, cutoff = lj_machine_setup 120 in
      let box = sys.Mdsp_workload.Workloads.box in
      let pos = sys.Mdsp_workload.Workloads.positions in
      let nlist = Mdsp_space.Neighbor_list.create ~cutoff ~skin:1. box pos in
      let r1 =
        Htis.compute_forces ts ~types ~charges ~cutoff box nlist pos
      in
      let r =
        Machine_sim.compute ~nodes:(px, py, pz) ts ~types ~charges ~cutoff box
          nlist pos
      in
      r.Machine_sim.energy = r1.Htis.energy
      && r.Machine_sim.saturations = 0
      && Array.for_all2 ( = ) r.Machine_sim.forces r1.Htis.forces)

let test_table_sram_budget () =
  let cfg = Config.anton_like () in
  let sys = Mdsp_workload.Workloads.water_box ~n_side:3 () in
  let small =
    Mdsp_core.Table.table_set_of_topology sys.Mdsp_workload.Workloads.topo
      ~cutoff:8.
      ~elec:(Mdsp_ff.Pair_interactions.Reaction_field { epsilon_rf = 78.5 })
      ~n:256 ()
  in
  let big =
    Mdsp_core.Table.table_set_of_topology sys.Mdsp_workload.Workloads.topo
      ~cutoff:8.
      ~elec:(Mdsp_ff.Pair_interactions.Reaction_field { epsilon_rf = 78.5 })
      ~n:8192 ()
  in
  check_true "bytes monotone in width"
    (Htis.table_set_bytes big > Htis.table_set_bytes small);
  check_true "small set fits" (Htis.tables_fit cfg small);
  check_true "huge set does not" (not (Htis.tables_fit cfg big))

(* --- Flex budget --- *)

let test_flex_budget_sane () =
  let cfg = Config.anton_like () in
  let w = workload 23_500 in
  let b = Flex.budget cfg w in
  check_true "available positive" (b.Flex.ops_available > 0.);
  check_true "used positive" (b.Flex.ops_used > 0.);
  check_true "slack consistent"
    (abs_float (b.Flex.ops_slack -. Float.max 0. (b.Flex.ops_available -. b.Flex.ops_used)) < 1e-6);
  (* A water-class workload at 512 nodes leaves plenty of headroom. *)
  check_true "has headroom" (b.Flex.slack_fraction > 0.2)

let test_flex_fits_monotone () =
  let cfg = Config.anton_like () in
  let w = workload 23_500 in
  let h = Flex.headroom cfg w in
  check_true "small method fits" (Flex.fits cfg w ~extra_ops:(h /. 10.));
  check_true "oversized method does not" (not (Flex.fits cfg w ~extra_ops:(h *. 2.)))

(* --- machine vs cluster baseline --- *)

let test_machine_beats_cluster_by_orders_of_magnitude () =
  let w = { (workload 25_000) with Perf.fft_grid = Some (64, 64, 64) } in
  let machine = Perf.ns_per_day (Config.anton_like ()) w in
  let cluster = Mdsp_baseline.Cluster.ns_per_day (Mdsp_baseline.Cluster.commodity ()) w in
  let ratio = machine /. cluster in
  check_true
    (Printf.sprintf "speedup %.0fx in [10, 1000]" ratio)
    (ratio > 10. && ratio < 1000.)

(* --- Multi-node decomposition + torus network --- *)

let decomp_frame ?(seed = 7) ?(n = 90) () =
  random_positions ~seed ~n ~box_l:12.0 ~min_dist:1.0

let test_decomp_exactly_once_vs_brute () =
  let box, pos = decomp_frame () in
  List.iter
    (fun nodes ->
      let d = Decomp.create box ~nodes ~cutoff:4.0 in
      let stats = Decomp.analyze d pos in
      let brute = Decomp.brute_pairs d pos in
      Alcotest.(check int) "assigned = brute force" brute stats.Decomp.n_pairs;
      Alcotest.(check int)
        "cell list = brute force" brute stats.Decomp.singlenode_pairs;
      Alcotest.(check int)
        "no residency violations" 0 stats.Decomp.residency_violations;
      check_true "pair_once_ok" stats.Decomp.pair_once_ok;
      check_true "per-node counts sum to total"
        (Array.fold_left ( + ) 0 stats.Decomp.pairs_per_node
        = stats.Decomp.n_pairs))
    [ (1, 1, 1); (2, 2, 2); (3, 2, 1); (4, 4, 4) ]

let test_torus_wraparound () =
  Alcotest.(check int) "ring of 8: 0 to 7 is 1 hop" 1 (Torus.axis_hops 8 0 7);
  Alcotest.(check int) "ring of 8: 1 to 5 is 4 hops" 4 (Torus.axis_hops 8 1 5);
  Alcotest.(check int) "ring of 1 has no hops" 0 (Torus.axis_hops 1 0 5);
  let t = Torus.create (4, 4, 4) in
  Alcotest.(check int) "diameter of 4x4x4" 6 (Torus.diameter t);
  (* Opposite corners wrap: one hop per axis, not three. *)
  Alcotest.(check int)
    "corner wrap" 3
    (Torus.hops t (Torus.rank t (0, 0, 0)) (Torus.rank t (3, 3, 3)))

let prop_torus_hops =
  qtest "torus hops symmetric, bounded by diameter, zero iff equal"
    ~count:200
    QCheck.(
      pair
        (triple (int_range 1 6) (int_range 1 6) (int_range 1 6))
        (pair (int_range 0 1000) (int_range 0 1000)))
    (fun (dims, (i, j)) ->
      let t = Torus.create dims in
      let nn = Torus.node_count t in
      let a = i mod nn and b = j mod nn in
      let h = Torus.hops t a b in
      h = Torus.hops t b a
      && h = 0 = (a = b)
      && h <= Torus.diameter t
      && Torus.rank t (Torus.coords t a) = a)

let test_comm_volume_conservation () =
  let box, pos = decomp_frame () in
  let d = Decomp.create box ~nodes:(3, 2, 2) ~cutoff:4.0 in
  let stats = Decomp.analyze d pos in
  let cfg = Config.anton_like ~nodes:(3, 2, 2) () in
  let step = Comm_model.of_stats cfg ~grid:(16, 16, 16) stats in
  let sum = Array.fold_left ( +. ) 0. in
  check_true "import traffic nonzero" (step.Comm_model.import.Comm_model.bytes > 0.);
  List.iter
    (fun (p : Comm_model.phase) ->
      check_close ~rel:1e-12
        (p.Comm_model.label ^ ": bytes sent = total")
        p.Comm_model.bytes (sum p.Comm_model.sent_bytes);
      check_close ~rel:1e-12
        (p.Comm_model.label ^ ": bytes received = total")
        p.Comm_model.bytes (sum p.Comm_model.recv_bytes);
      check_true
        (p.Comm_model.label ^ ": finite non-negative time")
        (Float.is_finite p.Comm_model.time_s && p.Comm_model.time_s >= 0.))
    (Comm_model.phases step);
  check_close ~rel:1e-12 "force return mirrors import"
    step.Comm_model.import.Comm_model.bytes
    step.Comm_model.force_return.Comm_model.bytes

let test_decomp_determinism_slots () =
  let box, pos = decomp_frame ~n:120 () in
  let d = Decomp.create box ~nodes:(2, 2, 2) ~cutoff:4.0 in
  let runs =
    List.map
      (fun slots ->
        let exec =
          if slots = 1 then Exec.create ~sanitize:true Exec.Serial
          else Exec.create ~sanitize:true (Exec.Domains { n = slots })
        in
        Fun.protect
          ~finally:(fun () -> Exec.shutdown exec)
          (fun () -> Decomp.analyze ~exec d pos))
      [ 1; 2; 4 ]
  in
  match runs with
  | [] -> assert false
  | r1 :: rest ->
      check_true "reference frame checks out" r1.Decomp.pair_once_ok;
      List.iteri
        (fun k r ->
          let tag = Printf.sprintf "%d slots" (1 lsl (k + 1)) in
          check_true (tag ^ ": owners equal")
            (r.Decomp.owner_of_atom = r1.Decomp.owner_of_atom);
          check_true (tag ^ ": pairs per node equal")
            (r.Decomp.pairs_per_node = r1.Decomp.pairs_per_node);
          check_true (tag ^ ": import edges equal")
            (r.Decomp.imports = r1.Decomp.imports);
          Alcotest.(check int)
            (tag ^ ": total pairs") r1.Decomp.n_pairs r.Decomp.n_pairs)
        rest

(* --- Decomp: analytic import model --- *)

let test_decomp_assign_partitions () =
  let box, positions = random_positions ~seed:41 ~n:100 ~box_l:16. ~min_dist:0.6 in
  let d = Decomp.create box ~nodes:(2, 2, 2) ~cutoff:3. in
  Alcotest.(check int) "node count" 8 (Decomp.node_count d);
  let home = Decomp.assign d positions in
  let total = Array.fold_left (fun a h -> a + Array.length h) 0 home in
  Alcotest.(check int) "every atom assigned once" 100 total;
  (* Owner consistency. *)
  Array.iteri
    (fun node atoms ->
      Array.iter
        (fun i ->
          Alcotest.(check int) "owner matches bucket" node
            (Decomp.owner d positions.(i)))
        atoms)
    home

let test_decomp_import_volume_halved () =
  let box = Pbc.cubic 40. in
  let d = Decomp.create box ~nodes:(4, 4, 4) ~cutoff:4. in
  check_close ~rel:1e-9 "half-shell imports half the volume"
    (Decomp.import_volume d ~policy:Decomp.Full_shell /. 2.)
    (Decomp.import_volume d ~policy:Decomp.Half_shell)

let test_decomp_import_counts_scale_with_cutoff () =
  let box, positions = random_positions ~seed:42 ~n:400 ~box_l:24. ~min_dist:0.5 in
  let counts r =
    let d = Decomp.create box ~nodes:(2, 2, 2) ~cutoff:r in
    Array.fold_left ( + ) 0
      (Decomp.import_counts d ~policy:Decomp.Full_shell positions)
  in
  let c_small = counts 2. and c_large = counts 5. in
  check_true "larger cutoff imports more" (c_large > c_small);
  check_true "some imports happen" (c_small > 0)

let test_decomp_home_volume () =
  let box = Pbc.cubic 30. in
  let d = Decomp.create box ~nodes:(3, 5, 2) ~cutoff:3. in
  check_close ~rel:1e-12 "home volume" (27000. /. 30.) (Decomp.home_volume d)

let () =
  Alcotest.run "mdsp_machine"
    [
      ( "interp_table",
        [
          Alcotest.test_case "exact polynomial" `Quick
            test_interp_table_exact_polynomial;
          Alcotest.test_case "cutoff and clamp" `Quick
            test_interp_table_cutoff_and_clamp;
          Alcotest.test_case "quantization bounded" `Quick
            test_interp_table_quantization_error_bounded;
          Alcotest.test_case "validation" `Quick test_interp_table_validation;
          Alcotest.test_case "sram" `Quick test_interp_table_sram;
        ] );
      ("config", [ Alcotest.test_case "throughputs" `Quick test_config_throughputs ]);
      ( "htis",
        [
          Alcotest.test_case "matches reference forces" `Quick
            test_htis_matches_reference;
          Alcotest.test_case "bitwise determinism" `Quick
            test_htis_determinism_under_permutation;
          Alcotest.test_case "float premise" `Quick
            test_htis_float_accumulation_is_order_dependent;
          Alcotest.test_case "cycle count" `Quick test_htis_cycles;
        ] );
      ( "machine_sim",
        [
          Alcotest.test_case "parallel bitwise determinism" `Quick
            test_machine_sim_parallel_determinism;
          Alcotest.test_case "load balance" `Quick
            test_machine_sim_load_balance;
          prop_machine_sim_any_nodes;
        ] );
      ( "sram",
        [ Alcotest.test_case "table budget" `Quick test_table_sram_budget ] );
      ( "flex",
        [
          Alcotest.test_case "budget sane" `Quick test_flex_budget_sane;
          Alcotest.test_case "fits monotone" `Quick test_flex_fits_monotone;
        ] );
      ( "perf",
        [
          Alcotest.test_case "monotone in atoms" `Quick
            test_perf_monotone_in_atoms;
          Alcotest.test_case "strong scaling" `Quick
            test_perf_strong_scaling_helps_then_saturates;
          Alcotest.test_case "fft adds time" `Quick test_perf_fft_adds_time;
          Alcotest.test_case "pair passes multiplier" `Quick
            test_perf_pair_passes_multiplier;
          Alcotest.test_case "of_system" `Quick test_perf_of_system;
          Alcotest.test_case "breakdown" `Quick
            test_perf_breakdown_components_sum;
          Alcotest.test_case "machine vs cluster" `Quick
            test_machine_beats_cluster_by_orders_of_magnitude;
        ] );
      ( "decomp",
        [
          Alcotest.test_case "assignment partitions atoms" `Quick
            test_decomp_assign_partitions;
          Alcotest.test_case "half-shell volume" `Quick
            test_decomp_import_volume_halved;
          Alcotest.test_case "imports scale with cutoff" `Quick
            test_decomp_import_counts_scale_with_cutoff;
          Alcotest.test_case "home volume" `Quick test_decomp_home_volume;
        ] );
      ( "multi_node",
        [
          Alcotest.test_case "exactly-once vs brute force" `Quick
            test_decomp_exactly_once_vs_brute;
          Alcotest.test_case "torus wraparound" `Quick test_torus_wraparound;
          prop_torus_hops;
          Alcotest.test_case "comm volume conservation" `Quick
            test_comm_volume_conservation;
          Alcotest.test_case "determinism at 1/2/4 slots" `Quick
            test_decomp_determinism_slots;
        ] );
    ]
