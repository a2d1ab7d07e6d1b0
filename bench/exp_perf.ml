(* Experiments E4-E7: the machine performance model — absolute rates vs
   the commodity baseline, strong scaling, and per-method overheads. *)

open Bench_common
open Mdsp_machine

let water_density = 0.1002
let dt_fs = 2.5

let workload n =
  {
    (Perf.plain_workload ~n_atoms:n ~density:water_density ~cutoff:9.0 ~dt_fs) with
    Perf.n_constraints = n;
    (* rigid waters: one constraint cluster per 3 atoms -> ~n constraints *)
    fft_grid =
      (let g = Mdsp_longrange.Fft.next_pow2 (int_of_float ((float_of_int n /. water_density) ** (1. /. 3.))) in
       Some (g, g, g));
  }

(* E4 (Fig. 2): simulation rate vs system size, machine vs cluster. *)
let e4 () =
  section "E4" "Simulation rate vs system size (Fig. 2)";
  let machine = Config.anton_like () in
  let cluster = Mdsp_baseline.Cluster.commodity () in
  let t =
    T.create
      ~title:
        "ns/day, water-like systems (512-node machine vs 64-node cluster)"
      ~columns:
        [
          ("atoms", T.Right);
          ("machine ns/day", T.Right);
          ("cluster ns/day", T.Right);
          ("speedup", T.Right);
        ]
  in
  List.iter
    (fun n ->
      let w = workload n in
      let m = Perf.ns_per_day machine w in
      let c = Mdsp_baseline.Cluster.ns_per_day cluster w in
      T.row t
        [
          T.cell_i n;
          T.cell_f ~prec:4 m;
          T.cell_f ~prec:4 c;
          Printf.sprintf "%.0fx" (m /. c);
        ])
    [ 6_000; 12_000; 23_500; 46_000; 92_000; 184_000; 368_000 ];
  T.print t;
  note
    "Shape reproduced: the special-purpose machine wins by one to two\n\
     orders of magnitude, with the edge largest for small systems where\n\
     cluster latency dominates.\n"

(* E5 (Fig. 3): strong scaling at fixed workload. *)
let e5 () =
  section "E5" "Strong scaling, 23.5k-atom system (Fig. 3)";
  let w = workload 23_500 in
  let t =
    T.create ~title:"ns/day vs machine size"
      ~columns:
        [
          ("nodes", T.Right);
          ("ns/day", T.Right);
          ("speedup vs 8", T.Right);
          ("parallel efficiency", T.Right);
        ]
  in
  let base = ref None in
  List.iter
    (fun (nodes, label) ->
      let cfg = Config.anton_like ~nodes () in
      let r = Perf.ns_per_day cfg w in
      let b =
        match !base with
        | None ->
            base := Some (float_of_int label, r);
            (float_of_int label, r)
        | Some b -> b
      in
      let speedup = r /. snd b in
      let ideal = float_of_int label /. fst b in
      T.row t
        [
          T.cell_i label;
          T.cell_f ~prec:4 r;
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%.0f%%" (100. *. speedup /. ideal);
        ])
    [
      ((2, 2, 2), 8);
      ((4, 2, 2), 16);
      ((4, 4, 2), 32);
      ((4, 4, 4), 64);
      ((8, 4, 4), 128);
      ((8, 8, 4), 256);
      ((8, 8, 8), 512);
    ];
  T.print t;
  note
    "Scaling rolls over as per-node work shrinks against fixed\n\
     synchronization and long-range costs — the expected strong-scaling\n\
     shape for a fixed-size problem.\n"

let method_costs () =
  let cv = Mdsp_core.Cv.distance ~i:0 ~j:1 in
  let meta =
    Mdsp_core.Metadynamics.create ~cv ~sigma:0.3 ~height:0.1 ~stride:100
      ~temp:300. ()
  in
  let smd = Mdsp_core.Smd.create ~cv ~k:10. ~start:0. ~speed_per_step:1e-4 () in
  let temper =
    Mdsp_core.Tempering.create ~temps:[| 300.; 320.; 340. |] ~stride:200 ()
  in
  let tamd =
    Mdsp_core.Tamd.create ~cv ~k:50. ~s0:0. ~gamma:0.05 ~s_temp:900. ~seed:1 ()
  in
  let amd = Mdsp_core.Amd.create ~threshold:0. ~alpha:1. in
  let posre =
    Mdsp_core.Restraints.position ~name:"posre"
      ~particles:(Array.init 200 Fun.id) ~k:2.
      ~reference:Mdsp_util.Vec3.zero
  in
  (* A 20-atom dummy solute for the FEP cost model. *)
  let sys20 = Mdsp_workload.Workloads.lj_fluid ~n:20 () in
  let fep_info =
    Mdsp_core.Fep.make_info sys20.Mdsp_workload.Workloads.topo
      ~solute:(Array.init 20 (fun i -> i < 2))
      ~cutoff:9. ~elec:Mdsp_ff.Pair_interactions.No_coulomb
  in
  [
    Mdsp_core.Mapping.plain;
    Mdsp_core.Mapping.of_restraint posre;
    Mdsp_core.Mapping.of_smd smd;
    Mdsp_core.Mapping.of_metadynamics meta;
    Mdsp_core.Mapping.of_tempering temper;
    Mdsp_core.Mapping.of_tamd tamd;
    Mdsp_core.Mapping.of_amd amd ~n_atoms:23_500;
    Mdsp_core.Mapping.of_fep fep_info;
  ]

(* E6 (Table III): per-method performance overhead. *)
let e6 () =
  section "E6" "Method overhead on the machine (Table III)";
  let cfg = Config.anton_like () in
  let base = workload 23_500 in
  let rows = Mdsp_core.Mapping.table cfg base (method_costs ()) in
  let t =
    T.create ~title:"Extended methods vs plain MD, 23.5k atoms, 512 nodes"
      ~columns:
        [ ("method", T.Left); ("ns/day", T.Right); ("overhead", T.Right) ]
  in
  List.iter
    (fun r ->
      T.row t
        [
          r.Mdsp_core.Mapping.name;
          T.cell_f ~prec:4 r.Mdsp_core.Mapping.ns_per_day;
          Printf.sprintf "%.2f%%" r.Mdsp_core.Mapping.overhead_pct;
        ])
    rows;
  T.print t;
  note
    "The headline of the paper: the extended methods ride on the\n\
     programmable cores and per-window tables, so their cost over plain MD\n\
     is small (FEP pays for its extra table pass).\n"

(* E21: the live E7 — run the actual force pipeline on the Serial and
   Domains execution backends, read the executor's phase clock, and set the
   measured breakdown next to the analytic machine model. Every figure is
   per step: the phase seconds of a run divided by the steps it ran. *)
let e21 () =
  section "E21"
    "Execution backends: measured per-phase step times (live Fig. 4)";
  let module X = Mdsp_util.Exec in
  let module FC = Mdsp_md.Force_calc in
  let module K = Mdsp_md.Soa_kernels in
  let n = 4000 and steps = 10 and ndomains = 4 in
  let pool_backend = X.Domains { n = ndomains } in
  let sys = Mdsp_workload.Workloads.lj_fluid ~n () in
  let cfg =
    {
      Mdsp_md.Engine.default_config with
      dt_fs = 2.0;
      temperature = 120.;
      thermostat = Mdsp_md.Engine.Langevin { gamma_fs = 0.02 };
    }
  in
  (* [steps] steps from a warm neighbor list on a fresh executor: its phase
     clock over those steps, the minor words per step, and the engine. *)
  let measure ?gse_grid ~config ~steps sys backend =
    let exec = X.create backend in
    let eng =
      Mdsp_workload.Workloads.make_engine ~config ~seed:42 ~exec ?gse_grid sys
    in
    Mdsp_md.Engine.run eng 2;
    X.reset_phase_times exec;
    let w0 = Gc.minor_words () in
    Mdsp_md.Engine.run eng steps;
    let w1 = Gc.minor_words () in
    let phases = X.phase_times exec in
    X.shutdown exec;
    (phases, (w1 -. w0) /. float_of_int steps, eng)
  in
  (* Per-step seconds of the phases whose names [sel] accepts. *)
  let per_step ~steps phases sel =
    List.fold_left
      (fun acc (name, s) -> if sel name then acc +. s else acc)
      0. phases
    /. float_of_int steps
  in
  let family ~steps phases prefix =
    per_step ~steps phases (String.starts_with ~prefix)
  in
  (* Per-step seconds of one Perf.resource_rows row (0 when unmeasured):
     Perf holds the phase-to-resource mapping. *)
  let resource rows name =
    match List.find (fun r -> r.Perf.resource = name) rows with
    | { Perf.measured_s = Some v; _ } -> v
    | _ -> 0.
  in
  let model_of (sys : Mdsp_workload.Workloads.system) ?fft_grid dt_fs =
    Perf.step_time (Config.anton_like ())
      (Perf.of_system ~dt_fs ?fft_grid sys.Mdsp_workload.Workloads.topo
         sys.Mdsp_workload.Workloads.box)
  in
  let speedup a b = if b > 0. then Printf.sprintf "%.2fx" (a /. b) else "-" in
  let ph_serial, words_flat, eng = measure ~config:cfg ~steps sys X.Serial in
  let ph_par, _, _ = measure ~config:cfg ~steps sys pool_backend in
  let npairs =
    Mdsp_space.Neighbor_list.length (FC.nlist (Mdsp_md.Engine.force_calc eng))
  in
  let b_lj = model_of sys 2.0 in
  let rows_s = Perf.resource_rows b_lj ~steps ph_serial in
  let rows_p = Perf.resource_rows b_lj ~steps ph_par in
  let pair_s = resource rows_s "pair pipelines"
  and pair_p = resource rows_p "pair pipelines" in
  (* The boxed oracle kernels (1-4 terms, then the neighbor-list pairs) on
     the serial engine's final list and positions: what the pair phase
     would cost with boxed accumulators. *)
  let fc = Mdsp_md.Engine.force_calc eng in
  let st = Mdsp_md.Engine.state eng in
  let box = st.Mdsp_md.State.box and x = st.Mdsp_md.State.positions in
  let boxed_pair_s, words_boxed =
    let ev = FC.evaluator fc in
    let acc = Mdsp_ff.Bonded.make_accum (Array.length x) in
    let pair () =
      Mdsp_ff.Bonded.reset acc;
      ignore
        (Mdsp_ff.Pair_interactions.compute_pairs14 (FC.topology fc)
           ~cutoff:ev.Mdsp_ff.Pair_interactions.cutoff box x acc);
      ignore (Mdsp_ff.Pair_interactions.compute ev box (FC.nlist fc) x acc)
    in
    pair ();
    let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
    for _ = 1 to steps do
      pair ()
    done;
    let t1 = Unix.gettimeofday () and w1 = Gc.minor_words () in
    let k = float_of_int steps in
    ((t1 -. t0) /. k, (w1 -. w0) /. k)
  in
  (* The flat 1-4 + pair kernels on a warm store over the same list,
     Gc-metered: the analytic loops must allocate nothing. *)
  let soa_pair_words =
    let kernel = K.pair_kernel (FC.topology fc) (FC.evaluator fc) in
    let p14 = K.kernel_pairs14 kernel in
    let store = Mdsp_md.Soa.create ~box (Array.length x) in
    Mdsp_md.Soa.sync_load store x;
    let sc = K.make_scratch () in
    let is, js = Mdsp_space.Neighbor_list.raw_pairs (FC.nlist fc) in
    let pass () =
      K.pairs14_range p14 box store 0 (K.pairs14_count p14) sc;
      K.kernel_range kernel box store ~is ~js 0 npairs sc
    in
    pass ();
    let w0 = Gc.minor_words () in
    for _ = 1 to steps do
      pass ()
    done;
    let w1 = Gc.minor_words () in
    (w1 -. w0) /. float_of_int steps
  in
  let t =
    T.create
      ~title:
        (Printf.sprintf
           "measured per-step phase times, %d-atom LJ fluid (%d pairs)" n
           npairs)
      ~columns:
        [
          ("phase", T.Left);
          ("serial (us)", T.Right);
          (Printf.sprintf "%d domains (us)" ndomains, T.Right);
          ("speedup", T.Right);
        ]
  in
  List.iter
    (fun name ->
      let a = per_step ~steps ph_serial (String.equal name)
      and b = per_step ~steps ph_par (String.equal name) in
      T.row t
        [
          name;
          T.cell_f ~prec:1 (a *. 1e6);
          T.cell_f ~prec:1 (b *. 1e6);
          speedup a b;
        ])
    (List.sort_uniq String.compare (List.map fst (ph_serial @ ph_par)));
  let step_s = resource rows_s "step" and step_p = resource rows_p "step" in
  T.row t
    [
      "total";
      T.cell_f ~prec:1 (step_s *. 1e6);
      T.cell_f ~prec:1 (step_p *. 1e6);
      speedup step_s step_p;
    ];
  T.print t;
  (* The engine's flat pair phase against the boxed oracle kernels timed
     on the same list and positions: bitwise-identical results
     (test_parallel proves it), so the delta is pure
     data-layout/allocation effect. *)
  let t_soa =
    T.create
      ~title:"flat (SoA) pair phase vs boxed oracle kernels, same list"
      ~columns:
        [
          ("phase", T.Left);
          ("boxed oracle (us)", T.Right);
          ("flat serial (us)", T.Right);
          ("flat speedup", T.Right);
          (Printf.sprintf "flat %d domains (us)" ndomains, T.Right);
        ]
  in
  T.row t_soa
    [
      "pair (pipelines)";
      T.cell_f ~prec:1 (boxed_pair_s *. 1e6);
      T.cell_f ~prec:1 (pair_s *. 1e6);
      speedup boxed_pair_s pair_s;
      T.cell_f ~prec:1 (pair_p *. 1e6);
    ];
  T.print t_soa;
  note
    "allocation: %.0f minor words per boxed oracle pair evaluation vs %.0f\n\
     per flat engine step (flat 1-4 + pair kernels: %.0f words per pass —\n\
     the analytic loops allocate nothing once warm).\n"
    words_boxed words_flat soa_pair_words;
  (* The sweeps the constraint-schedule certificate lets the pool run: a
     rigid water box drives SHAKE/RATTLE over the fused 3-atom cluster
     list (the schedule [mdsp check --constraints] certifies) plus the
     Berendsen velocity rescale, serial vs domains. Bitwise identity
     between the two columns' trajectories is test_parallel's job; this
     table prices the sweeps. *)
  let cons_steps = 10 in
  let measure_cons backend =
    let ph, _, _ =
      measure
        ~config:
          {
            Mdsp_md.Engine.default_config with
            dt_fs = 1.0;
            temperature = 300.;
            thermostat = Mdsp_md.Engine.Berendsen { tau_fs = 100. };
          }
        ~steps:cons_steps
        (Mdsp_workload.Workloads.water_box ~n_side:8 ())
        backend
    in
    ( family ~steps:cons_steps ph "constraints.",
      family ~steps:cons_steps ph "thermo.",
      family ~steps:cons_steps ph "integrate." )
  in
  let cons_s, thermo_cs, integ_cs = measure_cons X.Serial in
  let cons_p, thermo_cp, integ_cp = measure_cons pool_backend in
  let t_cons =
    T.create
      ~title:
        "constraint + thermostat sweeps, 1536-atom rigid water box \
         (512 clusters)"
      ~columns:
        [
          ("phase", T.Left);
          ("serial (us)", T.Right);
          (Printf.sprintf "%d domains (us)" ndomains, T.Right);
          ("speedup", T.Right);
        ]
  in
  let cons_phase name a b =
    T.row t_cons
      [
        name;
        T.cell_f ~prec:1 (a *. 1e6);
        T.cell_f ~prec:1 (b *. 1e6);
        speedup a b;
      ]
  in
  cons_phase "constraints.* (SHAKE/RATTLE/fold)" cons_s cons_p;
  cons_phase "thermo.* (rescale)" thermo_cs thermo_cp;
  cons_phase "integrate.* (kick/drift)" integ_cs integ_cp;
  T.print t_cons;
  record "e21.constraints_serial_us" (cons_s *. 1e6);
  record
    (Printf.sprintf "e21.constraints_domains%d_us" ndomains)
    (cons_p *. 1e6);
  record "e21.constraints_speedup" (cons_s /. Float.max 1e-12 cons_p);
  record "e21.thermostat_serial_us" (thermo_cs *. 1e6);
  record
    (Printf.sprintf "e21.thermostat_domains%d_us" ndomains)
    (thermo_cp *. 1e6);
  let pair_speedup = pair_s /. Float.max 1e-12 pair_p in
  let cores = X.recommended_domains () in
  if cores < ndomains then
    note
      "NOTE: host reports %d usable core(s); %d domains oversubscribe it,\n\
       so wall-clock speedup cannot manifest here. The tiled decomposition\n\
       and deterministic reduction are validated by test_parallel; rerun on\n\
       a multicore host for the scaling figure.\n"
      cores ndomains;
  let integ_s = family ~steps ph_serial "integrate."
  and integ_p = family ~steps ph_par "integrate." in
  record "e21.host_cores" (float_of_int cores);
  record "e21.npairs" (float_of_int npairs);
  record "e21.pair_serial_us" (pair_s *. 1e6);
  record (Printf.sprintf "e21.pair_domains%d_us" ndomains) (pair_p *. 1e6);
  record "e21.pair_speedup" pair_speedup;
  record "e21.step_serial_us" (step_s *. 1e6);
  record (Printf.sprintf "e21.step_domains%d_us" ndomains) (step_p *. 1e6);
  record "e21.nbuild_serial_us" (resource rows_s "  nbuild" *. 1e6);
  record "e21.integrate_serial_us" (integ_s *. 1e6);
  record
    (Printf.sprintf "e21.integrate_domains%d_us" ndomains)
    (integ_p *. 1e6);
  record "e21.integrate_speedup" (integ_s /. Float.max 1e-12 integ_p);
  record "e21.pair_soa_serial_us" (pair_s *. 1e6);
  record
    (Printf.sprintf "e21.pair_soa_domains%d_us" ndomains)
    (pair_p *. 1e6);
  record "e21.soa_pair_speedup" (boxed_pair_s /. Float.max 1e-12 pair_s);
  record "e21.soa_pair_minor_words_per_step" soa_pair_words;
  record "e21.step_minor_words_boxed" words_boxed;
  record "e21.step_minor_words_soa" words_flat;
  (* The GSE grid pipeline — the stage the machine backs with dedicated
     long-range hardware: a charged water box with grid electrostatics,
     serial vs domains, broken into spread/fft/convolve/gather. *)
  let gse_grid = (16, 16, 16) in
  let gse_steps = 6 in
  let gse_sys = Mdsp_workload.Workloads.water_box ~n_side:4 () in
  let measure_gse backend =
    let ph, _, _ =
      measure ~gse_grid
        ~config:
          {
            Mdsp_md.Engine.default_config with
            dt_fs = 1.0;
            temperature = 300.;
            thermostat = Mdsp_md.Engine.Langevin { gamma_fs = 0.02 };
          }
        ~steps:gse_steps gse_sys backend
    in
    ph
  in
  let gse_serial = measure_gse X.Serial in
  let gse_par = measure_gse pool_backend in
  let b_gse = model_of gse_sys ~fft_grid:gse_grid 1.0 in
  let gs = Perf.resource_rows b_gse ~steps:gse_steps gse_serial in
  let gp = Perf.resource_rows b_gse ~steps:gse_steps gse_par in
  let gx, gy, gz = gse_grid in
  let t_gse =
    T.create
      ~title:
        (Printf.sprintf
           "GSE grid pipeline sub-phases, 192-atom water box, %dx%dx%d grid"
           gx gy gz)
      ~columns:
        [
          ("phase", T.Left);
          ("serial (us)", T.Right);
          (Printf.sprintf "%d domains (us)" ndomains, T.Right);
          ("speedup", T.Right);
        ]
  in
  List.iter
    (fun (key, label, row) ->
      let a = resource gs row and b = resource gp row in
      T.row t_gse
        [
          label;
          T.cell_f ~prec:1 (a *. 1e6);
          T.cell_f ~prec:1 (b *. 1e6);
          speedup a b;
        ];
      record (Printf.sprintf "e21.lr_%s_serial_us" key) (a *. 1e6);
      record
        (Printf.sprintf "e21.lr_%s_domains%d_us" key ndomains)
        (b *. 1e6))
    [
      ("spread", "spread", "  spread");
      ("fft", "fft", "  fft");
      ("convolve", "convolve", "  convolve");
      ("gather", "gather", "  gather");
      ("total", "long-range total", "long-range");
    ];
  T.print t_gse;
  (* The analytic machine model for the grid workload, next to what we
     actually measured on the host backend — sub-phase rows included on
     both sides. *)
  let t2 =
    T.create ~title:"analytic 512-node model vs host measurement (per step)"
      ~columns:
        [ ("resource", T.Left); ("model (us)", T.Right); ("measured (us)", T.Right) ]
  in
  List.iter
    (fun r ->
      T.row t2
        [
          r.Perf.resource;
          T.cell_f ~prec:3 (r.Perf.model_s *. 1e6);
          (match r.Perf.measured_s with
          | Some m -> T.cell_f ~prec:1 (m *. 1e6)
          | None -> "-");
        ])
    gp;
  T.print t2;
  note "%s"
    (Printf.sprintf
       "Pair phase speedup at %d domains: %.2fx. The host runs the same\n\
        tiled pair sum the hardwired pipelines execute; the model columns\n\
        show how far a special-purpose 512-node machine pulls ahead.\n"
       ndomains pair_speedup)

(* E7 (Fig. 4): where the time goes, per method. *)
let e7 () =
  section "E7" "Per-step resource breakdown by method (Fig. 4)";
  let cfg = Config.anton_like () in
  let base = workload 23_500 in
  let t =
    T.create ~title:"Per-step time by machine resource (microseconds)"
      ~columns:
        [
          ("method", T.Left);
          ("pipelines", T.Right);
          ("flex cores", T.Right);
          ("network", T.Right);
          ("long-range", T.Right);
          ("sync", T.Right);
          ("step", T.Right);
        ]
  in
  List.iter
    (fun cost ->
      let w = Mdsp_core.Mapping.apply cost base in
      let b = Perf.step_time cfg w in
      let us x = T.cell_f ~prec:3 (x *. 1e6) in
      T.row t
        [
          cost.Mdsp_core.Mapping.method_name;
          us b.Perf.htis_s;
          us b.Perf.flex_s;
          us b.Perf.comm_s;
          us b.Perf.fft_s;
          us b.Perf.sync_s;
          us b.Perf.step_s;
        ])
    (method_costs ());
  T.print t;
  note
    "Methods perturb mostly the flexible-subsystem column; the hardwired\n\
     pipeline time is untouched except by FEP's extra pass.\n"
