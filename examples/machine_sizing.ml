(* Using the performance model as a design tool: how big a machine does a
   target simulation rate require, and where do the cycles go? The same
   questions the hardware/software co-design in the paper answers.

   Run with: dune exec examples/machine_sizing.exe *)

open Mdsp_machine

let () =
  let n_atoms = 92_000 in
  let w =
    {
      (Perf.plain_workload ~n_atoms ~density:0.1 ~cutoff:9.0 ~dt_fs:2.5) with
      Perf.n_constraints = n_atoms;
      fft_grid = Some (128, 128, 128);
    }
  in
  Printf.printf "target workload: %d atoms, cutoff 9 A, dt 2.5 fs\n\n" n_atoms;
  Printf.printf "%-10s %12s %10s %10s %10s %10s\n" "torus" "ns/day" "pipes(us)"
    "flex(us)" "comm(us)" "lr(us)";
  List.iter
    (fun nodes ->
      let cfg = Config.anton_like ~nodes () in
      let b = Perf.step_time cfg w in
      let px, py, pz = nodes in
      Printf.printf "%-10s %12.0f %10.2f %10.2f %10.2f %10.2f\n"
        (Printf.sprintf "%dx%dx%d" px py pz)
        (Perf.ns_per_day cfg w)
        (b.Perf.htis_s *. 1e6) (b.Perf.flex_s *. 1e6) (b.Perf.comm_s *. 1e6)
        (b.Perf.fft_s *. 1e6))
    [ (2, 2, 2); (4, 4, 4); (8, 8, 8); (16, 8, 8) ];

  (* And the method question: can we afford metadynamics + tempering at
     512 nodes? *)
  let cfg = Config.anton_like () in
  let cv = Mdsp_core.Cv.distance ~i:0 ~j:1 in
  let meta =
    Mdsp_core.Metadynamics.create ~cvs:[| cv |] ~sigmas:[| 0.3 |] ~height:0.1
      ~stride:100 ~temp:300. ()
  in
  let temper =
    Mdsp_core.Tempering.create ~temps:[| 300.; 315.; 330. |] ~stride:200 ()
  in
  Printf.printf "\nmethod overheads at 8x8x8:\n";
  List.iter
    (fun cost ->
      Printf.printf "  %-22s %+.2f%%\n" cost.Mdsp_core.Mapping.method_name
        (100. *. Mdsp_core.Mapping.overhead cfg w cost))
    [
      Mdsp_core.Mapping.plain;
      Mdsp_core.Mapping.of_metadynamics meta;
      Mdsp_core.Mapping.of_tempering temper;
    ];
  Printf.printf
    "\nConclusion: the sampling methods are free at machine scale; size the\n\
     torus for the pair and long-range work.\n"
