(* Bechamel micro-benchmarks of the hot kernels: one Test.make per kernel,
   all in one run. These time the *simulator's own* OCaml implementation
   (useful for development); machine-performance numbers come from the
   analytic model in E4-E7. *)

open Mdsp_util
open Bechamel
open Toolkit

let lj_setup =
  lazy
    (let sys = Mdsp_workload.Workloads.lj_fluid ~n:500 () in
     let cutoff = 8.0 in
     let open Mdsp_workload.Workloads in
     let evaluator =
       Mdsp_ff.Pair_interactions.of_topology sys.topo ~cutoff
         ~trunc:Mdsp_ff.Nonbonded.Shift
         ~elec:Mdsp_ff.Pair_interactions.No_coulomb
     in
     let ts =
       Mdsp_core.Table.table_set_of_topology sys.topo ~cutoff
         ~elec:Mdsp_ff.Pair_interactions.No_coulomb ~n:2048 ()
     in
     let types = Array.make 500 0 in
     let charges = Array.make 500 0. in
     let table_eval =
       Mdsp_machine.Htis.evaluator ts ~types ~charges ~cutoff
     in
     let nlist =
       Mdsp_space.Neighbor_list.create ~cutoff ~skin:1. sys.box sys.positions
     in
     (sys, evaluator, table_eval, nlist))

let test_pair_analytic =
  Test.make ~name:"pair forces: analytic evaluator (LJ-500)"
    (Staged.stage (fun () ->
         let sys, evaluator, _, nlist = Lazy.force lj_setup in
         let acc = Mdsp_ff.Bonded.make_accum 500 in
         ignore
           (Mdsp_ff.Pair_interactions.compute evaluator
              sys.Mdsp_workload.Workloads.box nlist
              sys.Mdsp_workload.Workloads.positions acc)))

let test_pair_table =
  Test.make ~name:"pair forces: interpolation tables (LJ-500)"
    (Staged.stage (fun () ->
         let sys, _, table_eval, nlist = Lazy.force lj_setup in
         let acc = Mdsp_ff.Bonded.make_accum 500 in
         ignore
           (Mdsp_ff.Pair_interactions.compute table_eval
              sys.Mdsp_workload.Workloads.box nlist
              sys.Mdsp_workload.Workloads.positions acc)))

let soa_setup =
  lazy
    (let sys, _, _, nlist = Lazy.force lj_setup in
     let cutoff = 8.0 in
     let pp =
       match
         Mdsp_md.Soa_kernels.pair_params_of_topology
           sys.Mdsp_workload.Workloads.topo ~cutoff
           ~trunc:Mdsp_ff.Nonbonded.Shift
           ~elec:Mdsp_ff.Pair_interactions.No_coulomb
       with
       | Some pp -> pp
       | None -> assert false
     in
     let store = Mdsp_md.Soa.create ~box:sys.Mdsp_workload.Workloads.box 500 in
     Mdsp_md.Soa.sync_load store sys.Mdsp_workload.Workloads.positions;
     let is, js = Mdsp_space.Neighbor_list.raw_pairs nlist in
     let np = Mdsp_space.Neighbor_list.length nlist in
     let sc = Mdsp_md.Soa_kernels.make_scratch () in
     (sys, pp, store, is, js, np, sc))

let test_pair_soa =
  Test.make ~name:"pair forces: flat SoA kernel (LJ-500)"
    (Staged.stage (fun () ->
         let sys, pp, store, is, js, np, sc = Lazy.force soa_setup in
         Mdsp_md.Soa.clear_forces store;
         Mdsp_md.Soa_kernels.reset_scratch sc;
         Mdsp_md.Soa_kernels.pair_range pp sys.Mdsp_workload.Workloads.box
           store ~is ~js 0 np sc))

let test_neighbor_rebuild =
  Test.make ~name:"neighbor-list rebuild (LJ-500)"
    (Staged.stage (fun () ->
         let sys, _, _, nlist = Lazy.force lj_setup in
         ignore
           (Mdsp_space.Neighbor_list.rebuild nlist
              sys.Mdsp_workload.Workloads.positions)))

let test_fft =
  let re = Array.make (32 * 32 * 32) 1. in
  let im = Array.make (32 * 32 * 32) 0. in
  Test.make ~name:"3D FFT 32^3"
    (Staged.stage (fun () ->
         Mdsp_longrange.Fft.fft_3d ~sign:(-1) ~nx:32 ~ny:32 ~nz:32 re im))

let test_table_compile =
  let lj = Mdsp_ff.Nonbonded.Lennard_jones { epsilon = 0.238; sigma = 3.405 } in
  let radial = Mdsp_core.Table.of_form lj ~cutoff:9. in
  Test.make ~name:"table compile (1024 intervals)"
    (Staged.stage (fun () ->
         ignore (Mdsp_core.Table.compile ~r_min:2. ~r_cut:9. ~n:1024 radial)))

let test_kernel_eval =
  let open! Mdsp_core.Kernel in
  let kern =
    create ~name:"posre"
      ~energy:(c 1.5 * (sq (X - c 1.) + sq Y + sq Z))
      ~particles:(Array.init 100 Fun.id)
      ~params:[]
  in
  let bias = to_bias ~time:(fun () -> 0.) kern in
  let box = Pbc.cubic 20. in
  let rng = Rng.create 3 in
  let positions =
    Array.init 100 (fun _ ->
        Vec3.make
          (Rng.uniform_in rng 0. 20.)
          (Rng.uniform_in rng 0. 20.)
          (Rng.uniform_in rng 0. 20.))
  in
  Test.make ~name:"kernel DSL bias (100 particles)"
    (Staged.stage (fun () ->
         let acc = Mdsp_ff.Bonded.make_accum 100 in
         ignore (bias.Mdsp_md.Force_calc.bias_compute box positions acc)))

let test_shake =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:4 () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let cons = Mdsp_md.Constraints.create topo in
  let rng = Rng.create 4 in
  let base = sys.Mdsp_workload.Workloads.positions in
  let masses = Mdsp_ff.Topology.masses topo in
  Test.make ~name:"SHAKE (64 rigid waters)"
    (Staged.stage (fun () ->
         let distorted =
           Array.map
             (fun p -> Vec3.add p (Vec3.scale 0.02 (Rng.gaussian_vec rng)))
             base
         in
         Mdsp_md.Constraints.shake cons sys.Mdsp_workload.Workloads.box
           ~prev:base distorted ~masses))

let run () =
  Bench_common.section "TIMING" "Bechamel micro-benchmarks (simulator hot paths)";
  let tests =
    [
      test_pair_analytic;
      test_pair_table;
      test_pair_soa;
      test_neighbor_rebuild;
      test_fft;
      test_table_compile;
      test_kernel_eval;
      test_shake;
    ]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:(Some 300) () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg [ instance ]
          (Test.make_grouped ~name:"g" [ test ])
      in
      Hashtbl.iter
        (fun name result ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              instance result
          in
          match Analyze.OLS.estimates stats with
          | Some [ est ] ->
              Printf.printf "  %-45s %12.1f ns/run\n"
                (String.sub name 2 (String.length name - 2))
                est
          | _ -> Printf.printf "  %-45s (no estimate)\n" name)
        results)
    tests
