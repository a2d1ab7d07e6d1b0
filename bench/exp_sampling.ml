(* Experiments E8-E11, E13, E14: the extended sampling methods running on
   real dynamics, each validated against an analytic or known answer. *)

open Mdsp_util
open Bench_common
module E = Mdsp_md.Engine

let dw_barrier = Mdsp_workload.Workloads.double_well_barrier
let dw_half_width = Mdsp_workload.Workloads.double_well_half_width

(* E8 (Fig. 5): metadynamics recovers the double-well free energy. *)
let e8 () =
  section "E8" "Metadynamics free-energy recovery (Fig. 5)";
  let eng = double_well_engine ~temp:300. () in
  let cv = Mdsp_core.Cv.position ~axis:`X ~i:0 in
  let meta =
    Mdsp_core.Metadynamics.create ~well_tempered:2700. ~cvs:[| cv |]
      ~sigmas:[| 0.25 |] ~height:0.12 ~stride:50 ~temp:300. ()
  in
  Mdsp_core.Metadynamics.attach meta eng;
  E.run eng 150_000;
  let fes = Mdsp_core.Metadynamics.free_energy_estimate meta ~lo:(-3.5) ~hi:3.5 ~bins:29 in
  let fmin = Array.fold_left (fun a (_, f) -> Float.min a f) infinity fes in
  let t =
    T.create ~title:"Reconstructed free energy along x (kcal/mol)"
      ~columns:[ ("x", T.Right); ("F_metad", T.Right); ("F_exact", T.Right) ]
  in
  Array.iter
    (fun (s, f) ->
      if int_of_float (Float.round (s *. 4.)) mod 2 = 0 then
        T.row t
          [
            T.cell_f ~prec:3 s;
            T.cell_f ~prec:3 (f -. fmin);
            T.cell_f ~prec:3
              (Mdsp_workload.Workloads.double_well_energy ~barrier:dw_barrier
                 ~half_width:dw_half_width s);
          ])
    fes;
  T.print t;
  let f_at x =
    let _, f =
      Array.fold_left
        (fun (best, bf) (s, f) ->
          if abs_float (s -. x) < abs_float (best -. x) then (s, f)
          else (best, bf))
        (99., 0.) fes
    in
    f -. fmin
  in
  let barrier = f_at 0. -. Float.min (f_at (-.dw_half_width)) (f_at dw_half_width) in
  note "hills deposited: %d; barrier estimate %.2f kcal/mol (true %.1f)\n"
    (Mdsp_core.Metadynamics.n_hills meta)
    barrier dw_barrier

(* E9 (Fig. 6): tempering and replica exchange traverse temperature space. *)
let e9 () =
  section "E9" "Simulated tempering and replica exchange (Fig. 6)";
  (* Simulated tempering. *)
  let eng = lj_engine ~n:108 ~equil:1000 () in
  let temps = [| 120.; 132.; 145.; 160. |] in
  let st = Mdsp_core.Tempering.create ~temps ~stride:50 () in
  Mdsp_core.Tempering.attach st eng;
  E.run eng 40_000;
  let t =
    T.create ~title:"Simulated tempering: rung occupancy (LJ-108)"
      ~columns:[ ("T (K)", T.Right); ("visits", T.Right); ("weight", T.Right) ]
  in
  let visits = Mdsp_core.Tempering.visits st in
  let weights = Mdsp_core.Tempering.weights st in
  Array.iteri
    (fun i temp ->
      T.row t
        [ T.cell_f ~prec:4 temp; T.cell_i visits.(i); T.cell_f ~prec:3 weights.(i) ])
    temps;
  T.print t;
  note "tempering acceptance: %.2f\n\n" (Mdsp_core.Tempering.acceptance_rate st);
  (* REMD. *)
  let engines =
    Array.mapi
      (fun i temp ->
        let sys = Mdsp_workload.Workloads.lj_fluid ~n:108 () in
        let cfg =
          {
            E.default_config with
            dt_fs = 2.0;
            temperature = temp;
            thermostat = E.Langevin { gamma_fs = 0.02 };
          }
        in
        Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:(300 + i) sys)
      temps
  in
  Array.iter (fun e -> E.run e 1000) engines;
  let remd = Mdsp_core.Remd.create ~engines ~temps ~stride:50 ~seed:11 in
  Mdsp_core.Remd.run remd ~sweeps:150;
  let acc = Mdsp_core.Remd.acceptance remd in
  let t2 =
    T.create ~title:"Replica exchange: neighbor-pair acceptance"
      ~columns:[ ("pair", T.Left); ("acceptance", T.Right) ]
  in
  Array.iteri
    (fun i a ->
      T.row t2
        [
          Printf.sprintf "%.0fK <-> %.0fK" temps.(i) temps.(i + 1);
          Printf.sprintf "%.2f" a;
        ])
    acc;
  T.print t2;
  note
    "Healthy (0.2-0.6) acceptance across the ladder on both methods; the\n\
     machine implements the exchange as a scalar-energy message.\n"

(* E10 (Table IV): FEP reproduces analytic free-energy differences. *)
let e10 () =
  section "E10" "Alchemical FEP vs analytic results (Table IV)";
  (* (a) harmonic spring-constant change: dF = (3/2) kT ln(k1/k0). *)
  let temp = 300. in
  let kt = Units.kt temp in
  let rng = Rng.create 17 in
  let k0 = 1.0 and k1 = 2.0 in
  let sigma = sqrt (kt /. (2. *. k0)) in
  let du =
    Array.init 300_000 (fun _ ->
        let x = Rng.gaussian_ms rng ~mean:0. ~sigma in
        let y = Rng.gaussian_ms rng ~mean:0. ~sigma in
        let z = Rng.gaussian_ms rng ~mean:0. ~sigma in
        (k1 -. k0) *. ((x *. x) +. (y *. y) +. (z *. z)))
  in
  let df_est = Mdsp_analysis.Free_energy.exp_averaging ~temp du in
  let df_exact = 1.5 *. kt *. log (k1 /. k0) in
  let t =
    T.create ~title:"Free-energy differences (kcal/mol)"
      ~columns:
        [ ("transformation", T.Left); ("estimate", T.Right); ("exact/ref", T.Right) ]
  in
  T.row t
    [
      "harmonic k: 1.0 -> 2.0 (Zwanzig)";
      T.cell_f ~prec:4 df_est;
      T.cell_f ~prec:4 df_exact;
    ];
  (* (b) LJ particle decoupling in a fluid, BAR over a lambda schedule;
     cross-checked against Widom test-particle insertion on the same
     fluid (a method-independent route to the same mu_ex). *)
  let sys = Mdsp_workload.Workloads.lj_fluid ~n:108 () in
  let info =
    Mdsp_core.Fep.make_info sys.Mdsp_workload.Workloads.topo
      ~solute:(Array.init 108 (fun i -> i = 0))
      ~cutoff:8. ~elec:Mdsp_ff.Pair_interactions.No_coulomb
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
  E.run eng 1500;
  (* Widom reference, sampled on the unperturbed fluid. *)
  let widom =
    Mdsp_core.Widom.create ~epsilon:0.238 ~sigma:3.405 ~cutoff:8.
      ~insertions_per_frame:100 ~seed:3
  in
  Mdsp_core.Widom.attach widom ~stride:20 eng;
  E.run eng 20_000;
  ignore (E.remove_post_step eng "widom");
  let mu_widom = Mdsp_core.Widom.mu_excess widom ~temp:120. in
  let res =
    Mdsp_core.Fep.run info ~engine:eng
      ~lambdas:[| 0.0; 0.15; 0.3; 0.45; 0.6; 0.75; 0.9; 1.0 |]
      ~temp:120. ~equil_steps:800 ~sample_steps:6000 ~sample_stride:10
  in
  T.row t
    [
      "LJ solute coupling 0 -> 1 (BAR, 8 windows)";
      T.cell_f ~prec:3 res.Mdsp_core.Fep.delta_f;
      Printf.sprintf "Widom mu_ex = %.3f (+- ~0.3 stat.)" mu_widom;
    ];
  T.print t;
  note "per-stage BAR: %s\n"
    (String.concat ", "
       (Array.to_list
          (Array.map (Printf.sprintf "%.2f") res.Mdsp_core.Fep.per_stage)))

(* E11 (Fig. 7): string method with swarms converges to the bowed MFEP. *)
let e11 () =
  section "E11" "String method with swarms of trajectories (Fig. 7)";
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
  let cvx = Mdsp_core.Cv.position ~axis:`X ~i:0 in
  let cvy = Mdsp_core.Cv.position ~axis:`Y ~i:0 in
  let sm =
    Mdsp_core.String_method.create ~cvs:[| cvx; cvy |] ~start:[| -2.5; 0. |]
      ~stop:[| 2.5; 0. |] ~n_images:11 ~engine:eng ~k:20. ~equil_steps:300
      ~n_swarms:15 ~swarm_steps:40 ~seed:5
  in
  let final_move = ref infinity in
  for _ = 1 to 30 do
    final_move := Mdsp_core.String_method.iterate sm
  done;
  let t =
    T.create ~title:"Converged string vs analytic minimum-energy path"
      ~columns:[ ("x", T.Right); ("y (string)", T.Right); ("y (MEP)", T.Right) ]
  in
  Array.iter
    (fun img ->
      T.row t
        [
          T.cell_f ~prec:3 img.(0);
          T.cell_f ~prec:3 img.(1);
          T.cell_f ~prec:3
            (Mdsp_workload.Workloads.double_well_2d_path
               ~half_width:dw_half_width
               ~bow:Mdsp_workload.Workloads.double_well_2d_bow img.(0));
        ])
    (Mdsp_core.String_method.images sm);
  T.print t;
  note "iterations: %d, final image movement: %.3f CV units\n"
    (Mdsp_core.String_method.iterations sm)
    !final_move

(* E13 (Fig. 8): umbrella sampling + WHAM potential of mean force. *)
let e13 () =
  section "E13" "Umbrella sampling + WHAM (Fig. 8)";
  let make_engine () = double_well_engine ~temp:300. () in
  let cv = Mdsp_core.Cv.position ~axis:`X ~i:0 in
  let centers = Array.init 13 (fun i -> -3.0 +. (0.5 *. float_of_int i)) in
  let plan =
    Mdsp_core.Umbrella.make_plan ~cv ~k:4.0 ~centers ~equil_steps:500
      ~sample_steps:5000 ~sample_stride:5
  in
  let results = Mdsp_core.Umbrella.run plan ~make_engine in
  let p = Mdsp_core.Umbrella.solve ~temp:300. ~lo:(-3.4) ~hi:3.4 ~bins:34 results in
  let t =
    T.create ~title:"PMF along x (kcal/mol)"
      ~columns:[ ("x", T.Right); ("F_wham", T.Right); ("F_exact", T.Right) ]
  in
  Array.iteri
    (fun b f ->
      if (not (Float.is_nan f)) && b mod 2 = 0 then
        T.row t
          [
            T.cell_f ~prec:3 p.Mdsp_analysis.Wham.centers.(b);
            T.cell_f ~prec:3 f;
            T.cell_f ~prec:3
              (Mdsp_workload.Workloads.double_well_energy ~barrier:dw_barrier
                 ~half_width:dw_half_width p.Mdsp_analysis.Wham.centers.(b));
          ])
    p.Mdsp_analysis.Wham.free_energy;
  T.print t;
  note "WHAM iterations: %d\n" p.Mdsp_analysis.Wham.iterations

(* E14 (Fig. 9): TAMD and boost potentials accelerate barrier crossing. *)
let e14 () =
  section "E14" "Barrier-crossing acceleration: TAMD and boost (Fig. 9)";
  let run ~variant seed =
    let eng = double_well_engine ~temp:200. ~seed () in
    let cv = Mdsp_core.Cv.position ~axis:`X ~i:0 in
    (match variant with
    | `Plain -> ()
    | `Tamd ->
        let t =
          Mdsp_core.Tamd.create ~cv ~k:10. ~s0:(-.dw_half_width) ~gamma:0.1
            ~s_temp:1500. ~seed ()
        in
        Mdsp_core.Tamd.attach t eng
    | `Amd ->
        let e0 = E.potential_energy eng in
        let amd = Mdsp_core.Amd.create ~threshold:(e0 +. 3.5) ~alpha:0.7 in
        Mdsp_core.Amd.attach amd eng);
    let trace = ref [] in
    E.add_post_step eng ~name:"trace" (fun eng ->
        let st = E.state eng in
        trace :=
          cv.Mdsp_core.Cv.value st.Mdsp_md.State.box st.Mdsp_md.State.positions
          :: !trace);
    E.run eng 20_000;
    crossings (List.rev !trace)
  in
  let total variant =
    List.fold_left (fun acc seed -> acc + run ~variant seed) 0 [ 1; 2; 3 ]
  in
  let t =
    T.create
      ~title:"Barrier crossings in 3 x 40 ps at 200 K (barrier = 7.5 kT)"
      ~columns:[ ("method", T.Left); ("crossings", T.Right) ]
  in
  T.row t [ "plain MD"; T.cell_i (total `Plain) ];
  T.row t [ "TAMD (hot CV at 1500 K)"; T.cell_i (total `Tamd) ];
  T.row t [ "accelerated MD (boost)"; T.cell_i (total `Amd) ];
  T.print t;
  note
    "Both acceleration methods multiply the crossing rate of plain MD, as\n\
     the paper's motivating applications require.\n"
