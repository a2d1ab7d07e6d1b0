(* Two independent free-energy routes over the same landscape — umbrella
   sampling + WHAM and well-tempered metadynamics — cross-checked against
   each other and the analytic answer. This is the kind of methodological
   workflow the extended machine makes routine.

   Run with: dune exec examples/free_energy_pipeline.exe *)

open Mdsp_workload
module E = Mdsp_md.Engine

let barrier = Workloads.double_well_barrier
let half_width = Workloads.double_well_half_width
let temp = 300.

let make_engine () =
  let sys = Workloads.double_well () in
  let cfg =
    {
      E.default_config with
      dt_fs = 2.0;
      temperature = temp;
      thermostat = E.Langevin { gamma_fs = 0.02 };
    }
  in
  Workloads.make_engine ~config:cfg sys

let () =
  let cv = Mdsp_core.Cv.position ~axis:`X ~i:0 in

  (* Route 1: umbrella sampling + WHAM. *)
  Printf.printf "route 1: umbrella sampling (13 windows) + WHAM...\n%!";
  let centers = Array.init 13 (fun i -> -3.0 +. (0.5 *. float_of_int i)) in
  let plan =
    Mdsp_core.Umbrella.make_plan ~cv ~k:4.0 ~centers ~equil_steps:500
      ~sample_steps:4000 ~sample_stride:5
  in
  let results = Mdsp_core.Umbrella.run plan ~make_engine in
  let pmf = Mdsp_core.Umbrella.solve ~temp ~lo:(-3.4) ~hi:3.4 ~bins:34 results in

  (* Route 2: well-tempered metadynamics. *)
  Printf.printf "route 2: well-tempered metadynamics (240 ps)...\n%!";
  let eng = make_engine () in
  let meta =
    Mdsp_core.Metadynamics.create ~well_tempered:2700. ~cvs:[| cv |]
      ~sigmas:[| 0.25 |] ~height:0.12 ~stride:50 ~temp ()
  in
  Mdsp_core.Metadynamics.attach meta eng;
  E.run eng 120_000;
  let fes = Mdsp_core.Metadynamics.free_energy_estimate meta ~lo:(-3.4) ~hi:3.4 ~bins:34 in
  let fes_min = Array.fold_left (fun a (_, f) -> Float.min a f) infinity fes in

  (* Compare. *)
  Printf.printf "\n%8s %12s %12s %12s\n" "x" "F_umbrella" "F_metad" "F_exact";
  Array.iteri
    (fun b f_w ->
      if (not (Float.is_nan f_w)) && b mod 2 = 0 then begin
        let x = pmf.Mdsp_analysis.Wham.centers.(b) in
        let _, f_m =
          Array.fold_left
            (fun (best, bf) (s, f) ->
              if abs_float (s -. x) < abs_float (best -. x) then (s, f)
              else (best, bf))
            (99., 0.) fes
        in
        Printf.printf "%8.2f %12.2f %12.2f %12.2f\n" x f_w (f_m -. fes_min)
          (Workloads.double_well_energy ~barrier ~half_width x)
      end)
    pmf.Mdsp_analysis.Wham.free_energy;
  Printf.printf
    "\nTwo methods, one machine mapping: biases run on the programmable\n\
     cores while the pair pipelines keep streaming.\n"
