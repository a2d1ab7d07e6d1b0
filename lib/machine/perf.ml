type workload = {
  n_atoms : int;
  density : float;
  cutoff : float;
  dt_fs : float;
  bonded_terms : int;
  n_constraints : int;
  flex_ops_per_step : float;
  pair_passes : float;
  fft_grid : (int * int * int) option;
  method_bytes_per_step : float;
}

let plain_workload ~n_atoms ~density ~cutoff ~dt_fs =
  {
    n_atoms;
    density;
    cutoff;
    dt_fs;
    bonded_terms = 0;
    n_constraints = 0;
    flex_ops_per_step = 0.;
    pair_passes = 1.0;
    fft_grid = None;
    method_bytes_per_step = 0.;
  }

let of_system ?(dt_fs = 2.0) ?fft_grid (topo : Mdsp_ff.Topology.t) box =
  let n = Mdsp_ff.Topology.n_atoms topo in
  {
    n_atoms = n;
    density = float_of_int n /. Mdsp_util.Pbc.volume box;
    cutoff = 9.0;
    dt_fs;
    bonded_terms = Mdsp_ff.Bonded.term_count topo;
    n_constraints = Mdsp_ff.Topology.n_constraints topo;
    flex_ops_per_step = 0.;
    pair_passes = 1.0;
    fft_grid;
    method_bytes_per_step = 0.;
  }

let pair_count w =
  let vol_sphere = 4. /. 3. *. Float.pi *. (w.cutoff ** 3.) in
  float_of_int w.n_atoms *. w.density *. vol_sphere /. 2. *. w.pair_passes

(* Flexible-subsystem op costs (arithmetic ops per item). These encode the
   relative expense of each stage on the programmable cores. *)
let ops_per_bonded_term = 60.
let ops_per_atom_integration = 40.
let ops_per_constraint = 50.
let ops_per_grid_point = 12. (* spreading + gather work per grid pt, amortized *)

(* Partition of [ops_per_grid_point] across the grid-pipeline stages, used
   only for the modeled sub-phase rows; their sum must equal the total so
   the sub-model stays consistent with [fft_s]. *)
let ops_spread = 5.
let ops_convolve = 2.
let ops_gather = 5.

type breakdown = {
  htis_s : float;
  flex_s : float;
  comm_s : float;
  fft_s : float;
  lr_spread_s : float;
  lr_fft_s : float;
  lr_convolve_s : float;
  lr_gather_s : float;
  sync_s : float;
  step_s : float;
}

(* Analytic estimate of the two all-to-all FFT transpose passes; the
   decomposed path replaces exactly this term with a priced
   Comm_model.transpose phase. *)
let transpose_time cfg w =
  match w.fft_grid with
  | None -> 0.
  | Some (gx, gy, gz) ->
      let nodes = float_of_int (Config.node_count cfg) in
      let inject_bw =
        cfg.Config.link_gb_s *. 1e9 *. float_of_int cfg.Config.links_per_node
      in
      let transpose_bytes = float_of_int (gx * gy * gz) /. nodes *. 16. *. 2. in
      (transpose_bytes /. inject_bw)
      +. (2. *. float_of_int (Config.max_hops cfg)
         *. cfg.Config.hop_latency_ns *. 1e-9)

let step_time cfg w =
  let nodes = float_of_int (Config.node_count cfg) in
  let clock_hz = cfg.Config.clock_ghz *. 1e9 in
  (* --- pair pipelines --- *)
  let pairs_per_node = pair_count w /. nodes in
  let htis_cycles =
    pairs_per_node
    /. (float_of_int cfg.Config.ppips_per_node
       *. cfg.Config.ppip_pairs_per_cycle)
  in
  let htis_s = htis_cycles /. clock_hz in
  (* --- flexible subsystem --- *)
  let flex_ops =
    (float_of_int w.bonded_terms *. ops_per_bonded_term)
    +. (float_of_int w.n_atoms *. ops_per_atom_integration)
    +. (float_of_int w.n_constraints *. ops_per_constraint)
    +. w.flex_ops_per_step
  in
  let flex_node_throughput =
    float_of_int cfg.Config.flex_cores_per_node
    *. cfg.Config.flex_ops_per_cycle *. clock_hz
  in
  let flex_s = flex_ops /. nodes /. flex_node_throughput in
  (* --- import/export communication --- *)
  let px, py, pz = cfg.Config.nodes in
  let vol = float_of_int w.n_atoms /. w.density in
  let box_edge = vol ** (1. /. 3.) in
  let hx = box_edge /. float_of_int px
  and hy = box_edge /. float_of_int py
  and hz = box_edge /. float_of_int pz in
  let r = w.cutoff in
  let import_volume =
    (* half-shell import region around one home box *)
    (2. *. r *. ((hx *. hy) +. (hy *. hz) +. (hx *. hz))
    +. (Float.pi *. r *. r *. (hx +. hy +. hz))
    +. (4. /. 3. *. Float.pi *. (r ** 3.)))
    /. 2.
  in
  let import_atoms = w.density *. import_volume in
  let import_bytes =
    import_atoms *. float_of_int cfg.Config.bytes_per_atom *. 2.
    (* positions in + forces back *)
  in
  let inject_bw =
    cfg.Config.link_gb_s *. 1e9 *. float_of_int cfg.Config.links_per_node
  in
  let comm_s =
    ((import_bytes +. (w.method_bytes_per_step /. nodes)) /. inject_bw)
    +. (cfg.Config.hop_latency_ns *. 1e-9
       *. ceil (r /. Float.min hx (Float.min hy hz)))
  in
  (* --- long-range FFT --- *)
  let fft_s, lr_spread_s, lr_fft_s, lr_convolve_s, lr_gather_s =
    match w.fft_grid with
    | None -> (0., 0., 0., 0., 0.)
    | Some (gx, gy, gz) ->
        let k = float_of_int (gx * gy * gz) in
        let compute =
          (k /. nodes)
          *. (Float.max 1. (log (k) /. log 2.) *. 2. +. ops_per_grid_point)
          /. flex_node_throughput
        in
        (* Two all-to-all transpose passes of the (complex) grid. *)
        let transpose = transpose_time cfg w in
        (* Sub-phase attribution: the butterflies and transposes are the
           FFT proper; ops_per_grid_point splits across spread, convolve
           (scale by Ghat) and gather, so the four sum to [fft_s]. *)
        let per_pt ops = k /. nodes *. ops /. flex_node_throughput in
        ( compute +. transpose,
          per_pt ops_spread,
          (k /. nodes *. (Float.max 1. (log k /. log 2.) *. 2.)
           /. flex_node_throughput)
          +. transpose,
          per_pt ops_convolve,
          per_pt ops_gather )
  in
  (* --- synchronization --- *)
  let sync_s =
    cfg.Config.sync_latency_ns *. 1e-9
    *. Float.max 1. (log nodes /. log 2.)
  in
  (* The machine overlaps aggressively: a step is bounded by its slowest
     resource, plus the serial long-range phase and the barrier. *)
  let step_s = Float.max htis_s (Float.max flex_s comm_s) +. fft_s +. sync_s in
  {
    htis_s;
    flex_s;
    comm_s;
    fft_s;
    lr_spread_s;
    lr_fft_s;
    lr_convolve_s;
    lr_gather_s;
    sync_s;
    step_s;
  }

let ns_per_day cfg w =
  let b = step_time cfg w in
  let steps_per_day = 86400. /. b.step_s in
  steps_per_day *. w.dt_fs *. 1e-6

(* --- decomposition-driven variant ---

   Same compute terms as [step_time], but the network terms come from a
   priced Comm_model.step (real per-node import/force-return traffic and
   hop distances from a Decomp frame) instead of the analytic half-shell
   volume: comm_s becomes the import + force-return wire times (plus the
   method bytes), and the FFT's analytic transpose estimate is replaced by
   the priced transpose phase when one is present. *)

let step_time_decomposed cfg w ~(comm : Comm_model.step) =
  let b = step_time cfg w in
  let nodes = float_of_int (Config.node_count cfg) in
  let inject_bw =
    cfg.Config.link_gb_s *. 1e9 *. float_of_int cfg.Config.links_per_node
  in
  let comm_s =
    comm.Comm_model.import.Comm_model.time_s
    +. comm.Comm_model.force_return.Comm_model.time_s
    +. (w.method_bytes_per_step /. nodes /. inject_bw)
  in
  let fft_s, lr_fft_s =
    match comm.Comm_model.transpose with
    | Some tp when w.fft_grid <> None ->
        let delta = tp.Comm_model.time_s -. transpose_time cfg w in
        (b.fft_s +. delta, b.lr_fft_s +. delta)
    | _ -> (b.fft_s, b.lr_fft_s)
  in
  let step_s = Float.max b.htis_s (Float.max b.flex_s comm_s) +. fft_s +. b.sync_s in
  { b with comm_s; fft_s; lr_fft_s; step_s }

let ns_per_day_decomposed cfg w ~comm =
  let b = step_time_decomposed cfg w ~comm in
  86400. /. b.step_s *. w.dt_fs *. 1e-6

(* --- model vs measurement ---

   The executor's phase clock (Mdsp_util.Exec.phase_times) records wall
   time per registered phase name; this is the one place that decides which
   machine resource would execute each phase. *)

type resource_row = {
  resource : string;
  model_s : float;  (** analytic per-step seconds from {!step_time} *)
  measured_s : float option;  (** measured per-step seconds, when mapped *)
}

let resource_rows ?comm b ~steps phases =
  (* Per-step seconds of the charged phases [sel] accepts; [None] when it
     accepts none, so a misspelt name shows up as an unmeasured row. *)
  let measured sel =
    match List.filter (fun (name, _) -> sel name) phases with
    | [] -> None
    | _ when steps <= 0 -> None
    | l ->
        Some
          (List.fold_left (fun acc (_, s) -> acc +. s) 0. l
          /. float_of_int steps)
  in
  let named names = measured (fun name -> List.mem name names) in
  let prefixed prefix = measured (String.starts_with ~prefix) in
  (* Torus-phase sub-rows of the network row, present when a priced
     Comm_model.step is supplied. Wire times have no host analogue, so
     [measured_s] stays [None]. *)
  let comm_rows =
    match comm with
    | None -> []
    | Some (c : Comm_model.step) ->
        List.map
          (fun (p : Comm_model.phase) ->
            {
              resource = "  " ^ p.Comm_model.label;
              model_s = p.Comm_model.time_s;
              measured_s = None;
            })
          (Comm_model.phases c)
  in
  let row resource model_s measured_s = { resource; model_s; measured_s } in
  [
    row "pair pipelines" b.htis_s (named [ "pair"; "pair14" ]);
    row "flex cores" b.flex_s (named [ "bonded"; "bias" ]);
    row "long-range" b.fft_s (prefixed "gse.");
    (* GSE grid-pipeline sub-phases: a breakdown of the long-range row
       (model and measurement both), indented in table output. *)
    row "  spread" b.lr_spread_s (named [ "gse.spread"; "gse.combine" ]);
    row "  fft" b.lr_fft_s (prefixed "gse.fft_");
    row "  convolve" b.lr_convolve_s (named [ "gse.convolve"; "gse.phi_scale" ]);
    row "  gather" b.lr_gather_s (named [ "gse.gather" ]);
    row "network" b.comm_s (named [ "cell.bin"; "nbuild" ]);
    (* The tiled pair-list build slice of the network row (import/export
       walks dominate the remainder). *)
    row "  nbuild" b.comm_s (named [ "nbuild" ]);
  ]
  @ comm_rows
  @ [ row "sync" b.sync_s None; row "step" b.step_s (measured (fun _ -> true)) ]
