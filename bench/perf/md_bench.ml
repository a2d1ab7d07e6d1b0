(* The MD workloads: set-up, the timed step window, correctness checks, and
   the layer probes of a traced run.

   Every layer is measured from outside, by timing calls into its public
   functions on copies of the live state; nothing here reads the library's
   own timing records. *)

open Mdsp_util
module W = Mdsp_workload.Workloads
module E = Mdsp_md.Engine
module Fc = Mdsp_md.Force_calc
module Nl = Mdsp_space.Neighbor_list
module PI = Mdsp_ff.Pair_interactions
module Topology = Mdsp_ff.Topology
module Bonded = Mdsp_ff.Bonded

type spec = {
  name : string;
  system : seed:int -> W.system;
  pooled : bool;  (** steps on the process pool; otherwise on one slot *)
  soa : bool;
  gse_grid : (int * int * int) option;
  tables : bool;  (** install the Htis table evaluator at set-up *)
  minimize : int;  (** steepest-descent steps at set-up *)
  temperature : float;
  warmup : int;
  cross_slot : bool;  (** re-run the warm-up on one slot and compare *)
}

let dt_fs = 2.0

(* The same thermostat the CLI and the job service use. *)
let langevin = E.Langevin { gamma_fs = 0.02 }

(* 2187 atoms rather than water6k: GSE spreading and gathering cost about
   50 us per atom on two slots, and the window has to hold 100 steps. *)
let water =
  {
    name = "water2k_gse";
    system = (fun ~seed -> W.water_box ~seed ~n_side:9 ());
    pooled = true;
    soa = true;
    gse_grid = Some (32, 32, 32);
    tables = false;
    minimize = 0;
    temperature = 300.;
    warmup = 10;
    cross_slot = true;
  }

(* One slot: on the pool, the step time of this workload flips between
   ~11 and ~20 ms for whole runs (the host's placement of the two vCPUs),
   a spread across runs no bound can absorb; on one slot it stays within
   10%. water2k_gse keeps the fine-grained pool phases on the end-to-end
   path, and util.exec.scaling_eff still measures this one on the pool. *)
let chain =
  {
    name = "chain10k_min";
    system = (fun ~seed -> W.bead_chain ~seed ~n_beads:256 ~n_total:10_000 ());
    pooled = false;
    soa = true;
    gse_grid = None;
    tables = false;
    minimize = 100;
    temperature = 300.;
    warmup = 10;
    cross_slot = false;
  }

(* The lattice has no seed; the seed reaches this workload through the
   engine's velocities. *)
let lj_tables =
  {
    name = "lj1k_tables";
    system = (fun ~seed:_ -> W.lj_fluid ~n:1000 ());
    pooled = false;
    soa = false;
    gse_grid = None;
    tables = true;
    minimize = 0;
    temperature = 120.;
    warmup = 20;
    cross_slot = false;
  }

(* One single-run job of service_mix, built exactly as the scheduler
   builds it; the service workload probes the MD layers on it. *)
let lj64_job =
  {
    name = "lj64";
    system = (fun ~seed:_ -> W.of_name "lj64");
    pooled = false;
    soa = false;
    gse_grid = None;
    tables = false;
    minimize = 0;
    temperature = 120.;
    warmup = 0;
    cross_slot = false;
  }

let workloads = [ water; chain; lj_tables ]

(* The smoke test's shortened minimization. *)
let quick_spec spec = { spec with minimize = min spec.minimize 30 }

(* --- set-up --- *)

type built = {
  eng : E.t;
  sys : W.system;
  cutoff : float;
  elec : PI.electrostatics;
}

let charged (sys : W.system) =
  Array.exists (fun (a : Topology.atom) -> a.charge <> 0.) sys.topo.atoms

let types (sys : W.system) =
  Array.map (fun (a : Topology.atom) -> a.type_id) sys.topo.atoms

let compile_tables (b : built) =
  Mdsp_core.Table.table_set_of_topology b.sys.topo ~cutoff:b.cutoff
    ~elec:b.elec ~n:2048 ()

let table_evaluator (b : built) ts =
  Mdsp_machine.Htis.evaluator ts ~types:(types b.sys)
    ~charges:(Topology.charges b.sys.topo) ~cutoff:b.cutoff

(* The cutoff and electrostatics are chosen here by the same rule
   [Workloads.make_engine] applies, and passed to it explicitly, so the
   probes below evaluate exactly the model the engine runs. *)
let build ?checks spec ~seed ~exec ~minimize =
  let sys = spec.system ~seed in
  let cutoff = Float.min 9. (0.45 *. Pbc.min_edge sys.box) in
  let elec =
    if not (charged sys) then PI.No_coulomb
    else if spec.gse_grid <> None then PI.Ewald_real { beta = 3. /. cutoff }
    else PI.Reaction_field { epsilon_rf = 78.5 }
  in
  let config =
    {
      E.default_config with
      dt_fs;
      temperature = spec.temperature;
      thermostat = langevin;
    }
  in
  let eng =
    W.make_engine ~config ~cutoff ~elec ?gse_grid:spec.gse_grid ~seed ~exec
      ~soa:spec.soa sys
  in
  let b = { eng; sys; cutoff; elec } in
  if spec.tables then begin
    let analytic = E.potential_energy eng in
    Fc.set_evaluator (E.force_calc eng) (table_evaluator b (compile_tables b));
    E.refresh_forces eng;
    let tabled = E.potential_energy eng in
    Option.iter
      (fun c ->
        Report.check c
          (Float.abs (tabled -. analytic) <= 1e-3 *. Float.abs analytic)
          (Printf.sprintf
             "set-up: table-path energy %.6g differs from analytic %.6g by \
              more than 1e-3 relative"
             tabled analytic))
      checks
  end;
  if minimize && spec.minimize > 0 then
    Tracer.span "Engine.minimize" (fun () -> E.minimize eng ~steps:spec.minimize);
  b

let exec_of (b : built) = Fc.exec (E.force_calc b.eng)

(* --- stepping --- *)

let finite_energy checks eng =
  let e = E.total_energy eng in
  let ok = Float.is_finite e in
  Report.check checks ok
    (Printf.sprintf "first non-finite total energy at step %d (%g)"
       (E.steps_done eng) e);
  ok

type window = { steps : int; wall : float; durs : float list; blown : bool }

(* How long a window runs: a time (the benchmark) or a step count (the
   smoke test, which must not depend on the speed of the machine). *)
type length = Seconds of float | Steps of int

let half = function Seconds s -> Seconds (s /. 2.) | Steps n -> Steps (n / 2)

(* Step-count windows come with the smoke test's other shortened counts. *)
let quick = function Steps _ -> true | Seconds _ -> false

(* Step for [length] (at least two steps), timing each [Engine.step].
   Stops at the first non-finite energy: the rest of a blown-up trajectory
   measures nothing. [on_step k] runs after the k-th step, outside its
   span. *)
let window ?(on_step = fun _ -> ()) checks eng ~length =
  let t0 = Clock.now_ns () in
  let over n =
    n >= 2
    && match length with Seconds s -> Clock.seconds_since t0 >= s | Steps k -> n >= k
  in
  let rec go n durs =
    if over n then { steps = n; wall = Clock.seconds_since t0; durs; blown = false }
    else begin
      let (), d = Tracer.timed "Engine.step" (fun () -> E.step eng) in
      if not (finite_energy checks eng) then
        { steps = n + 1; wall = Clock.seconds_since t0; durs = d :: durs; blown = true }
      else begin
        on_step (n + 1);
        go (n + 1) (d :: durs)
      end
    end
  in
  go 0 []

let warm_up checks spec eng =
  let rec go k = k > spec.warmup || (E.step eng; finite_energy checks eng && go (k + 1)) in
  go 1

(* The repository keeps parallel runs bitwise equal to serial ones; the
   benchmark holds it to 1e-6 relative on the warm-up's final energy. *)
let cross_slot_check checks spec ~seed (b : built) =
  let b1 = build spec ~seed ~exec:Exec.serial ~minimize:true in
  ignore (warm_up checks spec b1.eng);
  let e = E.potential_energy b.eng and e1 = E.potential_energy b1.eng in
  Report.check checks
    (Float.abs (e -. e1) <= 1e-6 *. Float.abs e)
    (Printf.sprintf
       "potential energy after warm-up: %.17g on %d slots vs %.17g on 1 slot"
       e (Exec.n_slots (exec_of b)) e1)

(* Largest relative constraint violation of the live state; 0 without
   constraints. *)
let max_violation eng =
  let st = E.state eng in
  Mdsp_md.Constraints.max_violation (E.constraints eng) st.box st.positions

let final_checks checks spec eng =
  let t = E.temperature eng in
  Report.check checks
    (t >= 0.5 *. spec.temperature && t <= 2. *. spec.temperature)
    (Printf.sprintf "final temperature %.1f K outside 0.5x-2x of %.0f K" t
       spec.temperature);
  if Mdsp_md.Constraints.count (E.constraints eng) > 0 then begin
    let v = max_violation eng in
    Report.check checks (v <= 1e-6)
      (Printf.sprintf "constraint violation %.3g exceeds 1e-6" v)
  end

let ns_per_day (w : window) =
  float_of_int w.steps *. dt_fs *. 1e-6 /. w.wall *. 86400.

(* [ms stat durs] is [stat] of the durations in milliseconds; 0 when there
   is nothing to rank: a run that blew up in its warm-up is reported as
   failed, and its numbers must still print as JSON. *)
let ms stat durs = if durs = [] then 0. else stat durs *. 1e3

(* --- layer probes --- *)

type probe = {
  spec : spec;
  seed : int;
  pool : Exec.t;
  b : built;  (** probe engine, on the live run's executor *)
  acc : Bonded.accum;
  soa : Mdsp_md.Soa.t;
  pp : Mdsp_md.Soa_kernels.pair_params;
  sc : Mdsp_md.Soa_kernels.scratch;
  gse : Mdsp_longrange.Gse.t;
  gse_charges : float array;
      (** the system's charges; alternating +-1 e on an uncharged system,
          where GSE would otherwise skip every particle *)
  cons : Mdsp_md.Constraints.t;
  mutable rounds : int;
}

let make_probe spec ~seed ~exec ~pool =
  Tracer.span "probe.init" @@ fun () ->
  let b = build spec ~seed ~exec ~minimize:false in
  let n = Array.length b.sys.positions in
  let pp =
    match
      Mdsp_md.Soa_kernels.pair_params_of_topology b.sys.topo ~cutoff:b.cutoff
        ~trunc:Mdsp_ff.Nonbonded.Shift ~elec:b.elec
    with
    | Some pp -> pp
    | None -> failwith "perf: no flat pair parameters for a shifted cutoff"
  in
  {
    spec;
    seed;
    pool;
    b;
    acc = Bonded.make_accum n;
    soa = Mdsp_md.Soa.create ~box:b.sys.box n;
    pp;
    sc = Mdsp_md.Soa_kernels.make_scratch ();
    gse =
      Mdsp_longrange.Gse.create ~beta:(3. /. b.cutoff)
        ~grid:(Option.value spec.gse_grid ~default:(32, 32, 32))
        b.sys.box;
    gse_charges =
      (let q = Topology.charges b.sys.topo in
       if charged b.sys then q
       else Array.mapi (fun i _ -> if i mod 2 = 0 then 1. else -1.) q);
    cons = Mdsp_md.Constraints.create b.sys.topo;
    rounds = 0;
  }

(* One round of probes on a copy of [st]. Each layer runs on this
   workload's own particles even where the workload's steps do not use it
   (GSE on a reaction-field system, SHAKE without constraints): the value
   is what that layer costs here, and a change to it must leave this
   workload's end-to-end numbers alone. *)
let round p (st : Mdsp_md.State.t) =
  Tracer.span "probe.round" @@ fun () ->
  p.rounds <- p.rounds + 1;
  let exec = exec_of p.b and box = st.box and topo = p.b.sys.topo in
  let x = Array.copy st.positions and v = Array.copy st.velocities in
  let fc = E.force_calc p.b.eng in
  let nl = Fc.nlist fc in
  Layer.probe "space.cell.build_ms" "Cell_list.build" (fun () ->
      ignore
        (Mdsp_space.Cell_list.build ~exec box x ~cutoff:(Nl.cutoff nl +. Nl.skin nl)));
  (* Rebuilding the probe calculator's own list first keeps the next
     probe's compute free of a rebuild. *)
  Layer.probe "space.nlist.rebuild_ms" "Neighbor_list.rebuild" (fun () ->
      ignore (Nl.rebuild ~box nl x));
  (* Timed on the second call: the live step computes forces with its
     arrays in cache, and md.engine.other_ms subtracts this value from the
     step time. *)
  ignore (Fc.compute fc box x p.acc);
  Layer.probe "md.force.compute_ms" "Force_calc.compute" (fun () ->
      ignore (Fc.compute fc box x p.acc));
  Layer.probe "md.soa.sync_ms" "Soa.sync_load" (fun () ->
      Mdsp_md.Soa.sync_load ~exec p.soa x);
  let np = Nl.length nl in
  let is, js = Nl.raw_pairs nl in
  Mdsp_md.Soa_kernels.reset_scratch p.sc;
  let (), dt =
    Tracer.timed "Soa_kernels.pair_range" (fun () ->
        Mdsp_md.Soa_kernels.pair_range p.pp box p.soa ~is ~js 0 np p.sc)
  in
  Layer.add "md.pair.ns_per_pair" (dt *. 1e9 /. float_of_int (max 1 np));
  Bonded.reset p.acc;
  Layer.probe "ff.bonded_ms" "Bonded.all" (fun () ->
      ignore (Bonded.all ~exec box topo x p.acc));
  let ts =
    Layer.probe "core.table.compile_ms" "Table.table_set_of_topology" (fun () ->
        compile_tables p.b)
  in
  Layer.add "machine.table_set_kb"
    (float_of_int (Mdsp_machine.Htis.table_set_bytes ts) /. 1024.);
  let ev = table_evaluator p.b ts in
  Bonded.reset p.acc;
  let _, dt =
    Tracer.timed "Pair_interactions.compute" (fun () -> PI.compute ev box nl x p.acc)
  in
  Layer.add "machine.table_pair_ns_per_pair" (dt *. 1e9 /. float_of_int (max 1 np));
  let ph = Mdsp_longrange.Gse.zero_phases () in
  Bonded.reset p.acc;
  ignore
    (Tracer.span "Gse.reciprocal" (fun () ->
         Mdsp_longrange.Gse.reciprocal ~exec ~phases:ph p.gse p.gse_charges x
           p.acc));
  Layer.add "longrange.gse.spread_ms" (ph.spread_s *. 1e3);
  Layer.add "longrange.gse.fft_ms" (ph.fft_s *. 1e3);
  Layer.add "longrange.gse.convolve_ms" (ph.convolve_s *. 1e3);
  Layer.add "longrange.gse.gather_ms" (ph.gather_s *. 1e3);
  (* SHAKE and RATTLE on (x, x + dt v), as one unconstrained drift would
     leave them. *)
  let masses = st.masses and h = Units.fs dt_fs in
  let x1 = Array.mapi (fun i xi -> Vec3.axpy h v.(i) xi) x in
  Layer.probe "md.constraints.shake_ms" "Constraints.shake" (fun () ->
      Mdsp_md.Constraints.shake ~exec p.cons box ~prev:x x1 ~masses);
  Layer.probe "md.constraints.rattle_ms" "Constraints.rattle" (fun () ->
      Mdsp_md.Constraints.rattle ~exec p.cons box x1 v ~masses)

(* Probes run once, at the end: the minimizer, the scaling of the step
   from one slot to the pool, and the cost of an empty pool barrier. *)
let finish p ~snap ~step_s ~length =
  let quick = quick length in
  let time_steps eng k =
    E.restore eng snap;
    snd (Tracer.timed "probe.steps" (fun () -> for _ = 1 to k do E.step eng done))
  in
  E.restore p.b.eng snap;
  let k = if quick then 2 else 5 in
  let (), dt =
    Tracer.timed "Engine.minimize" (fun () -> E.minimize p.b.eng ~steps:k)
  in
  Layer.add "md.engine.minimize_ms_per_step" (dt *. 1e3 /. float_of_int k);
  let pooled = Exec.n_slots (exec_of p.b) > 1 in
  let other =
    build p.spec ~seed:p.seed ~exec:(if pooled then Exec.serial else p.pool)
      ~minimize:false
  in
  let k = if quick then 2 else max 3 (min 200 (int_of_float (0.5 /. step_s))) in
  let t_live = time_steps p.b.eng k and t_other = time_steps other.eng k in
  let t1, tn = if pooled then (t_other, t_live) else (t_live, t_other) in
  Layer.add "util.exec.scaling_eff"
    (t1 /. (float_of_int (Exec.n_slots p.pool) *. tn));
  for _ = 1 to 1000 do
    let (), dt = Clock.time (fun () -> Exec.parallel_run p.pool (fun _ -> ())) in
    Layer.add "util.exec.barrier_us" (dt *. 1e6)
  done

(* Barriers one step crosses, counted by a sanitizing executor's observer
   on an engine restored from [snap]. Spawns its own pool, so it runs after
   the process pool has been shut down. *)
let count_barriers spec ~seed ~slots ~snap =
  let san = Exec.create ~sanitize:true (Exec.Domains { n = slots }) in
  let b = build spec ~seed ~exec:san ~minimize:false in
  E.restore b.eng snap;
  let n = ref 0 in
  Exec.set_observer san (Some (fun _ -> incr n));
  E.step b.eng;
  Exec.set_observer san None;
  Exec.shutdown san;
  float_of_int !n

(* Step-level layer values measured over an untraced stretch of [eng]:
   neighbor-list rebuild rate, pair count, and allocation per step. *)
let stepping_values eng (w : window) ~rebuilds ~minor ~major =
  let per_step x = x /. float_of_int (max 1 w.steps) in
  [
    ("space.nlist.rebuilds_per_100_steps", 100. *. per_step (float_of_int rebuilds));
    ("space.nlist.pairs", float_of_int (Nl.length (Fc.nlist (E.force_calc eng))));
    ("md.engine.minor_words_per_step", per_step minor);
    ("md.engine.major_gcs_per_1k_steps", 1000. *. per_step (float_of_int major));
  ]

(* [observe checks eng ~length] is {!window} with the counters
   {!stepping_values} needs read around it. *)
let observe ?on_step checks eng ~length =
  let nl = Fc.nlist (E.force_calc eng) in
  let r0 = Nl.rebuild_count nl and g0 = Gc.quick_stat () in
  let w = window ?on_step checks eng ~length in
  let g1 = Gc.quick_stat () in
  let values =
    stepping_values eng w ~rebuilds:(Nl.rebuild_count nl - r0)
      ~minor:(g1.minor_words -. g0.minor_words)
      ~major:(g1.major_collections - g0.major_collections)
  in
  (w, values)

(* Values derived from probe medians and the untraced step median. *)
let probe_values ~step_ms_p50 =
  let med = Layer.median in
  ( "md.engine.other_ms",
    step_ms_p50 -. med "md.force.compute_ms" -. med "md.constraints.shake_ms"
    -. med "md.constraints.rattle_ms" )
  :: List.map
       (fun name -> (name, med name))
       [
         "util.exec.barrier_us";
         "util.exec.scaling_eff";
         "space.nlist.rebuild_ms";
         "space.cell.build_ms";
         "ff.bonded_ms";
         "machine.table_pair_ns_per_pair";
         "machine.table_set_kb";
         "core.table.compile_ms";
         "md.force.compute_ms";
         "md.pair.ns_per_pair";
         "md.soa.sync_ms";
         "md.constraints.shake_ms";
         "md.constraints.rattle_ms";
         "md.engine.minimize_ms_per_step";
         "longrange.gse.spread_ms";
         "longrange.gse.fft_ms";
         "longrange.gse.convolve_ms";
         "longrange.gse.gather_ms";
       ]

(* Pool width: one slot per core, the most one process may load. *)
let slots = Exec.recommended_domains ()

let new_pool () = Exec.create (Exec.Domains { n = slots })

(* [setups ~quick ~release f] times the set-up [f] at least three times
   and, while they take under half a second in total, up to 50 times, and
   returns every duration with the last result: a cheap set-up is repeated
   until its median is steady. [release] disposes of each superseded
   result before the next set-up starts, untimed, so at most one pool is
   alive. [quick] sets up once. *)
let setups ~quick ~release f =
  let rec go prev times total =
    Option.iter release prev;
    let r, dt = Clock.time f in
    let times = dt :: times and total = total +. dt in
    let n = List.length times in
    if quick || (n >= 3 && total >= 0.5) || n >= 50 then (times, r)
    else go (Some r) times total
  in
  go None [] 0.

(* Set-up is what `mdsp run` does before its first step: start the pool
   (pooled workloads), build the system and the engine, minimize. *)
let set_up checks spec ~seed =
  let exec = if spec.pooled then new_pool () else Exec.serial in
  build ~checks spec ~seed ~exec ~minimize:true

(* The untraced run: the end-to-end metrics. *)
let run checks spec ~seed ~length =
  let times, b =
    setups ~quick:(quick length)
      ~release:(fun b -> Exec.shutdown (exec_of b); Gc.full_major ())
      (fun () -> set_up checks spec ~seed)
  in
  let warm = warm_up checks spec b.eng in
  if warm && spec.cross_slot then cross_slot_check checks spec ~seed b;
  let w =
    if warm then window checks b.eng ~length
    else { steps = 0; wall = 1.; durs = []; blown = true }
  in
  if not w.blown then final_checks checks spec b.eng;
  Exec.shutdown (exec_of b);
  ( [
      ("ns_per_day", ns_per_day w);
      ("latency_ms_p50", ms Quantile.median w.durs);
      ("latency_ms_tail", ms Quantile.tail w.durs);
      ("setup_s", Quantile.median times);
    ],
    [ ("steps", w.steps); ("setups", List.length times) ] )

(* The traced run: half the window untraced, half traced with a probe
   round after every tenth step. [service pool] measures the service
   layer on the pool before it is shut down; the barrier count runs after,
   on a sanitizing pool of its own, so no more domains than [slots] are
   ever alive. *)
let run_traced checks spec ~seed ~length ~service =
  Tracer.enabled := true;
  let b = Tracer.span "setup" (fun () -> set_up checks spec ~seed) in
  let exec = exec_of b in
  let pool = if spec.pooled then exec else new_pool () in
  let warm = warm_up checks spec b.eng in
  if warm && spec.cross_slot then cross_slot_check checks spec ~seed b;
  Tracer.enabled := false;
  if not warm then failwith "perf: the warm-up blew up; no layer to probe";
  let wu, stepping = observe checks b.eng ~length:(half length) in
  Tracer.enabled := true;
  let p = make_probe spec ~seed ~exec ~pool in
  let live_round () = round p (E.state b.eng) in
  let wt =
    window checks b.eng ~length:(half length) ~on_step:(fun k ->
        if k mod 10 = 0 then live_round ())
  in
  if wu.blown || wt.blown then failwith "perf: the trajectory blew up";
  if p.rounds = 0 then live_round ();
  final_checks checks spec b.eng;
  let snap = E.snapshot b.eng in
  let step_ms_p50 = ms Quantile.median wu.durs in
  finish p ~snap ~step_s:(step_ms_p50 /. 1e3) ~length;
  let service_values = service pool in
  Tracer.enabled := false;
  Exec.shutdown pool;
  ( stepping
    @ probe_values ~step_ms_p50
    @ service_values
    @ [
        ("md.constraints.max_violation", max_violation b.eng);
        ("trace.overhead_frac", (ms Quantile.median wt.durs /. step_ms_p50) -. 1.);
        ( "util.exec.barriers_per_step",
          count_barriers spec ~seed ~slots:(Exec.n_slots exec) ~snap );
      ],
    [ ("steps", wu.steps); ("traced_steps", wt.steps); ("probe_rounds", p.rounds) ] )
