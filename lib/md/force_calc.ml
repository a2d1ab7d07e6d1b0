open Mdsp_util

type longrange =
  | Lr_none
  | Lr_ewald of Mdsp_longrange.Ewald.t
  | Lr_gse of Mdsp_longrange.Gse.t

type energies = {
  bond : float;
  angle : float;
  dihedral : float;
  pair : float;
  recip : float;
  correction : float;
  bias : float;
}

let total e =
  e.bond +. e.angle +. e.dihedral +. e.pair +. e.recip +. e.correction
  +. e.bias

let zero_energies =
  {
    bond = 0.;
    angle = 0.;
    dihedral = 0.;
    pair = 0.;
    recip = 0.;
    correction = 0.;
    bias = 0.;
  }

type timings = {
  mutable pair_s : float;
  mutable bonded_s : float;
  mutable longrange_s : float;
  mutable lr_spread_s : float;
  mutable lr_fft_s : float;
  mutable lr_convolve_s : float;
  mutable lr_gather_s : float;
  mutable bias_s : float;
  mutable neighbor_s : float;
  mutable nbuild_s : float;
  mutable integrate_s : float;
  mutable constraints_s : float;
  mutable thermostat_s : float;
  mutable pair_words : float;
  mutable calls : int;
}

let zero_timings () =
  {
    pair_s = 0.;
    bonded_s = 0.;
    longrange_s = 0.;
    lr_spread_s = 0.;
    lr_fft_s = 0.;
    lr_convolve_s = 0.;
    lr_gather_s = 0.;
    bias_s = 0.;
    neighbor_s = 0.;
    nbuild_s = 0.;
    integrate_s = 0.;
    constraints_s = 0.;
    thermostat_s = 0.;
    pair_words = 0.;
    calls = 0;
  }

let timings_total tm =
  tm.pair_s +. tm.bonded_s +. tm.longrange_s +. tm.bias_s +. tm.neighbor_s
  +. tm.integrate_s +. tm.constraints_s +. tm.thermostat_s

let timings_per_call tm =
  if tm.calls = 0 then zero_timings ()
  else begin
    let c = float_of_int tm.calls in
    {
      pair_s = tm.pair_s /. c;
      bonded_s = tm.bonded_s /. c;
      longrange_s = tm.longrange_s /. c;
      lr_spread_s = tm.lr_spread_s /. c;
      lr_fft_s = tm.lr_fft_s /. c;
      lr_convolve_s = tm.lr_convolve_s /. c;
      lr_gather_s = tm.lr_gather_s /. c;
      bias_s = tm.bias_s /. c;
      neighbor_s = tm.neighbor_s /. c;
      nbuild_s = tm.nbuild_s /. c;
      integrate_s = tm.integrate_s /. c;
      constraints_s = tm.constraints_s /. c;
      thermostat_s = tm.thermostat_s /. c;
      pair_words = tm.pair_words /. c;
      calls = tm.calls;
    }
  end

let now () = Unix.gettimeofday ()

type bias = {
  bias_name : string;
  bias_compute : Pbc.t -> Vec3.t array -> Mdsp_ff.Bonded.accum -> float;
}

type transform = {
  tr_name : string;
  tr_apply : Pbc.t -> Vec3.t array -> Mdsp_ff.Bonded.accum -> float -> float;
}

module K = Soa_kernels

(* The flat particle store every force phase runs on, and the per-slot
   scratch for the parallel phases. Slot stores share the position columns
   with [store] (only their force columns are private), so one load serves
   every phase. *)
type flat = {
  store : Soa.t;
  sc : K.scratch;
  slot_stores : Soa.t array;
  slot_fx : Soa.fa array;
  slot_fy : Soa.fa array;
  slot_fz : Soa.fa array;
  slot_sc : K.scratch array;
  (* Per-phase slot outputs, preallocated; every slot overwrites its entry
     before any read. *)
  slot_energy : float array;
  slot_virial : float array;
  eb : float array;
  ea : float array;
  ed : float array;
}

let make_flat ~exec natoms =
  let store = Soa.create natoms in
  let ns = Exec.n_slots exec in
  (* Sanitizing runs take the parallel (declaring) branches even at one
     slot, so they need the slot scratch sized. *)
  let nslots = if ns > 1 || Exec.sanitizing exec then ns else 0 in
  let slot_stores =
    Array.init nslots (fun _ ->
        {
          store with
          Soa.fx = Soa.make_fa natoms;
          Soa.fy = Soa.make_fa natoms;
          Soa.fz = Soa.make_fa natoms;
        })
  in
  {
    store;
    sc = K.make_scratch ();
    slot_stores;
    slot_fx = Array.map (fun s -> s.Soa.fx) slot_stores;
    slot_fy = Array.map (fun s -> s.Soa.fy) slot_stores;
    slot_fz = Array.map (fun s -> s.Soa.fz) slot_stores;
    slot_sc = Array.init nslots (fun _ -> K.make_scratch ());
    slot_energy = Array.make (max nslots 1) 0.;
    slot_virial = Array.make (max nslots 1) 0.;
    eb = Array.make (max nslots 1) 0.;
    ea = Array.make (max nslots 1) 0.;
    ed = Array.make (max nslots 1) 0.;
  }

type t = {
  topo : Mdsp_ff.Topology.t;
  mutable evaluator : Mdsp_ff.Pair_interactions.evaluator;
  (* The pair loop [evaluator] selects; swapped with it. *)
  mutable kernel : K.pair_kernel;
  (* Rebuilt by [follow_box] when the box changes. *)
  mutable longrange : longrange;
  nlist : Mdsp_space.Neighbor_list.t;
  (* Newest-first; every consumer restores registration order. *)
  mutable biases_rev : bias list;
  mutable transform : transform option;
  charges : float array;
  exec : Exec.t;
  (* Cached handle for the GSE self/excluded corrections: those depend only
     on beta (self) or on the box passed per call (excluded), so the handle
     never goes stale even under a barostat. *)
  mutable gse_ewald : Mdsp_longrange.Ewald.t option;
  flat : flat;
  tm : timings;
}

let create ?(exec = Exec.serial) topo ~evaluator ~longrange ~nlist =
  {
    topo;
    evaluator;
    kernel = K.pair_kernel topo evaluator;
    longrange;
    nlist;
    biases_rev = [];
    transform = None;
    charges = Mdsp_ff.Topology.charges topo;
    exec;
    gse_ewald = None;
    flat = make_flat ~exec (Mdsp_ff.Topology.n_atoms topo);
    tm = zero_timings ();
  }

let topology t = t.topo
let nlist t = t.nlist
let exec t = t.exec

let longrange_kind t =
  match t.longrange with
  | Lr_none -> `None
  | Lr_ewald _ -> `Ewald
  | Lr_gse gse -> `Gse (Mdsp_longrange.Gse.grid gse)

let evaluator t = t.evaluator

let set_evaluator t e =
  t.evaluator <- e;
  t.kernel <- K.pair_kernel t.topo e

let add_bias t b = t.biases_rev <- b :: t.biases_rev

let remove_bias t name =
  let before = List.length t.biases_rev in
  t.biases_rev <- List.filter (fun b -> b.bias_name <> name) t.biases_rev;
  List.length t.biases_rev < before

let biases t = List.rev_map (fun b -> b.bias_name) t.biases_rev
let set_transform t tr = t.transform <- tr

let timings t = { t.tm with calls = t.tm.calls }

let reset_timings t =
  t.tm.pair_s <- 0.;
  t.tm.bonded_s <- 0.;
  t.tm.longrange_s <- 0.;
  t.tm.lr_spread_s <- 0.;
  t.tm.lr_fft_s <- 0.;
  t.tm.lr_convolve_s <- 0.;
  t.tm.lr_gather_s <- 0.;
  t.tm.bias_s <- 0.;
  t.tm.neighbor_s <- 0.;
  t.tm.nbuild_s <- 0.;
  t.tm.integrate_s <- 0.;
  t.tm.constraints_s <- 0.;
  t.tm.thermostat_s <- 0.;
  t.tm.pair_words <- 0.;
  t.tm.calls <- 0

(* The integrator sweeps live in Engine, outside any [compute] call, so the
   engine charges their wall time here explicitly. *)
let add_integrate_s t d = t.tm.integrate_s <- t.tm.integrate_s +. d
let add_constraints_s t d = t.tm.constraints_s <- t.tm.constraints_s +. d
let add_thermostat_s t d = t.tm.thermostat_s <- t.tm.thermostat_s +. d

let compute_biases t box positions acc =
  List.fold_left
    (fun e b -> e +. b.bias_compute box positions acc)
    0.
    (List.rev t.biases_rev)

let gse_correction_handle t gse box =
  match t.gse_ewald with
  | Some ew -> ew
  | None ->
      (* Minimal k list: only the beta-dependent correction terms are used. *)
      let ew =
        Mdsp_longrange.Ewald.create ~beta:(Mdsp_longrange.Gse.beta gse)
          ~kmax:1 box
      in
      t.gse_ewald <- Some ew;
      ew

(* A reciprocal-space handle computes on the box it was built for. Under a
   barostat the box changes between calls, so the handle is rebuilt for the
   box passed in (GSE: same beta, sigma and grid; Ewald: same beta and
   k-max). With a fixed box this costs one comparison per call. *)
let follow_box t box =
  match t.longrange with
  | Lr_none -> ()
  | Lr_ewald ew ->
      if Mdsp_longrange.Ewald.box ew <> box then
        t.longrange <- Lr_ewald (Mdsp_longrange.Ewald.with_box ew box)
  | Lr_gse gse ->
      if Mdsp_longrange.Gse.box gse <> box then
        t.longrange <- Lr_gse (Mdsp_longrange.Gse.with_box gse box)

let compute_longrange t box positions acc =
  follow_box t box;
  match t.longrange with
  | Lr_none -> (0., 0.)
  | Lr_ewald ew ->
      let recip = Mdsp_longrange.Ewald.reciprocal ew t.charges positions acc in
      let corr =
        Mdsp_longrange.Ewald.self_energy ew t.charges
        +. Mdsp_longrange.Ewald.excluded_correction ew box t.charges positions
             t.topo.exclusions acc
      in
      (recip, corr)
  | Lr_gse gse ->
      let ph = Mdsp_longrange.Gse.zero_phases () in
      let recip =
        Mdsp_longrange.Gse.reciprocal ~exec:t.exec ~phases:ph gse t.charges
          positions acc
      in
      let tm = t.tm in
      tm.lr_spread_s <- tm.lr_spread_s +. ph.Mdsp_longrange.Gse.spread_s;
      tm.lr_fft_s <- tm.lr_fft_s +. ph.Mdsp_longrange.Gse.fft_s;
      tm.lr_convolve_s <- tm.lr_convolve_s +. ph.Mdsp_longrange.Gse.convolve_s;
      tm.lr_gather_s <- tm.lr_gather_s +. ph.Mdsp_longrange.Gse.gather_s;
      let ew = gse_correction_handle t gse box in
      let corr =
        Mdsp_longrange.Ewald.self_energy ew t.charges
        +. Mdsp_longrange.Ewald.excluded_correction ew box t.charges positions
             t.topo.exclusions acc
      in
      (recip, corr)

(* Timed phase helper: runs [f ()], charges the elapsed wall time to the
   field selected by [add]. *)
let timed add f =
  let t0 = now () in
  let r = f () in
  add (now () -. t0);
  r

(* Neighbor refresh, charged to [neighbor_s]; the slice actually spent
   inside the tiled list build (the [nbuild] sub-phase) is the delta of the
   list's own cumulative build clock. *)
let rebuild_timed t box positions =
  let tm = t.tm in
  let nb0 = Mdsp_space.Neighbor_list.build_seconds t.nlist in
  ignore
    (timed (fun d -> tm.neighbor_s <- tm.neighbor_s +. d) (fun () ->
         Mdsp_space.Neighbor_list.maybe_rebuild ~box t.nlist positions));
  tm.nbuild_s <-
    tm.nbuild_s +. (Mdsp_space.Neighbor_list.build_seconds t.nlist -. nb0)

(* --- the flat force phases ----------------------------------------- *)

(* One slot and no sanitizer: the phases run inline on the calling domain
   instead of as declared pool phases. *)
let inline t = Exec.n_slots t.exec = 1 && not (Exec.sanitizing t.exec)

(* A declared pool phase on the flat store: [body s store sc] runs on slot
   [s]'s private force columns and scratch (cleared first), then the
   columns and virials reduce into the store with the boxed tree shape.
   [reads] names the iteration spaces the reduction consumes. Returns the
   tree sum of the slot energies. *)
let slot_phase t ~phase ~reads body =
  let ctx = t.flat in
  Exec.parallel_run ~phase t.exec (fun s ->
      let sst = ctx.slot_stores.(s) and ssc = ctx.slot_sc.(s) in
      Soa.clear_forces sst;
      K.reset_scratch ssc;
      body s sst ssc;
      ctx.slot_energy.(s) <- ssc.K.energy;
      ctx.slot_virial.(s) <- ssc.K.virial);
  K.reduce_slots ~exec:t.exec ~reads ~into:ctx.store ~slot_fx:ctx.slot_fx
    ~slot_fy:ctx.slot_fy ~slot_fz:ctx.slot_fz ~slot_virial:ctx.slot_virial
    ctx.sc;
  Exec.sum_tree ctx.slot_energy

(* The four bonded terms over the given ranges, each energy accumulated
   from zero (dihedrals and impropers summed). *)
let bonded_terms box topo store sc (b_lo, b_hi) (a_lo, a_hi) (d_lo, d_hi)
    (i_lo, i_hi) =
  sc.K.energy <- 0.;
  K.bonds_range box topo store b_lo b_hi sc;
  let eb = sc.K.energy in
  sc.K.energy <- 0.;
  K.angles_range box topo store a_lo a_hi sc;
  let ea = sc.K.energy in
  sc.K.energy <- 0.;
  K.dihedrals_range box topo store d_lo d_hi sc;
  let e_d = sc.K.energy in
  sc.K.energy <- 0.;
  K.impropers_range box topo store i_lo i_hi sc;
  (eb, ea, e_d +. sc.K.energy)

(* Bonded terms on the flat store: the same serial/parallel split, per-term
   tilings, declares and reduction tree as Bonded.all, so both the
   sanitizer view and the accumulated bits match the boxed oracle. *)
let bonded t box =
  let topo = t.topo in
  let ctx = t.flat in
  let nb = Array.length topo.Mdsp_ff.Topology.bonds in
  let na = Array.length topo.Mdsp_ff.Topology.angles in
  let nd = Array.length topo.Mdsp_ff.Topology.dihedrals in
  let ni = Array.length topo.Mdsp_ff.Topology.impropers in
  if inline t || Mdsp_ff.Bonded.term_count topo = 0 then
    bonded_terms box topo ctx.store ctx.sc (0, nb) (0, na) (0, nd) (0, ni)
  else begin
    let ns = Exec.n_slots t.exec in
    let terms =
      [|
        ("bonded.bonds", nb);
        ("bonded.angles", na);
        ("bonded.dihedrals", nd);
        ("bonded.impropers", ni);
      |]
    in
    let tiles =
      Array.map (fun (_, n) -> Exec.tile_bounds ~total:n ~ntiles:ns) terms
    in
    let eb = ctx.eb and ea = ctx.ea and ed = ctx.ed in
    let natoms = Soa.n ctx.store in
    ignore
      (slot_phase t ~phase:"bonded" ~reads:(Array.to_list terms)
         (fun s sst ssc ->
           Array.iteri
             (fun k (resource, total) ->
               let lo, hi = tiles.(k).(s) in
               Exec.declare_write ~slot:s ~resource ~total ~lo ~hi t.exec)
             terms;
           (* Each term reads arbitrary atoms via its index tuples. *)
           Exec.declare_read ~slot:s ~resource:"soa.positions" ~lo:0
             ~hi:natoms t.exec;
           let b, a, d =
             bonded_terms box topo sst ssc tiles.(0).(s) tiles.(1).(s)
               tiles.(2).(s) tiles.(3).(s)
           in
           eb.(s) <- b;
           ea.(s) <- a;
           ed.(s) <- d));
    (Exec.sum_tree eb, Exec.sum_tree ea, Exec.sum_tree ed)
  end

(* Scaled 1-4 terms at the evaluator's cutoff, the mirror of
   Pair_interactions.compute_pairs14 (same skip condition, same tiling). *)
let pairs14 t box =
  let ctx = t.flat in
  let p14 = K.kernel_pairs14 t.kernel in
  let np = K.pairs14_count p14 in
  if not (K.pairs14_active p14) then 0.
  else if inline t then begin
    ctx.sc.K.energy <- 0.;
    K.pairs14_range p14 box ctx.store 0 np ctx.sc;
    ctx.sc.K.energy
  end
  else begin
    let tiles = Exec.tile_bounds ~total:np ~ntiles:(Exec.n_slots t.exec) in
    let natoms = Soa.n ctx.store in
    slot_phase t ~phase:"pair14" ~reads:[ ("pair.pairs14", np) ]
      (fun s sst ssc ->
        let lo, hi = tiles.(s) in
        Exec.declare_write ~slot:s ~resource:"pair.pairs14" ~total:np ~lo ~hi
          t.exec;
        Exec.declare_read ~slot:s ~resource:"soa.positions" ~lo:0 ~hi:natoms
          t.exec;
        K.pairs14_range p14 box sst lo hi ssc)
  end

(* Parallel pair phase, mirror of Pair_interactions.compute (ns > 1). *)
let pair_par t box =
  let ns = Exec.n_slots t.exec in
  let is, js = Mdsp_space.Neighbor_list.raw_pairs t.nlist in
  let tiles = Mdsp_space.Neighbor_list.tiles t.nlist ~ntiles:ns in
  let total = snd tiles.(ns - 1) in
  let natoms = Soa.n t.flat.store in
  slot_phase t ~phase:"pair" ~reads:[ ("pair.tiles", total) ]
    (fun s sst ssc ->
      let lo, hi = tiles.(s) in
      Exec.declare_write ~slot:s ~resource:"pair.tiles" ~total ~lo ~hi t.exec;
      Exec.declare_read ~slot:s ~resource:"nlist.pairs" ~total ~lo ~hi t.exec;
      Exec.declare_read ~slot:s ~resource:"soa.positions" ~lo:0 ~hi:natoms
        t.exec;
      K.kernel_range t.kernel box sst ~is ~js lo hi ssc)

(* Inline 1-4 + pair kernels with the minor-heap probe around them: the
   window contains only unit-returning kernel calls and float-record field
   traffic, so an analytic LJ pair loop measures exactly zero words (a
   generic loop measures what its evaluator allocates). Everything else
   that allocates (raw array fetch, result boxing, the timing fields) sits
   outside the [w0, w1] window. *)
let pair_inline t box ~with14 =
  let tm = t.tm in
  let store = t.flat.store in
  let sc = t.flat.sc in
  let p14 = K.kernel_pairs14 t.kernel in
  let is, js = Mdsp_space.Neighbor_list.raw_pairs t.nlist in
  let npairs = Mdsp_space.Neighbor_list.length t.nlist in
  let active14 = with14 && K.pairs14_active p14 in
  let np14 = K.pairs14_count p14 in
  let w0 = Gc.minor_words () in
  sc.K.energy <- 0.;
  if active14 then K.pairs14_range p14 box store 0 np14 sc;
  let pair14 = sc.K.energy in
  sc.K.energy <- 0.;
  K.kernel_range t.kernel box store ~is ~js 0 npairs sc;
  let w1 = Gc.minor_words () in
  let p = pair14 +. sc.K.energy in
  tm.pair_words <- tm.pair_words +. (w1 -. w0);
  p

(* Load positions into the flat store and reset its accumulators: the
   ["soa.load"] phase. *)
let load t box positions =
  let store = t.flat.store in
  store.Soa.box <- box;
  Soa.sync_load ~exec:t.exec store positions;
  K.reset_scratch t.flat.sc

(* Flush the flat force sums and the virial into the boxed accumulator.
   Plain overwrite: the kernels accumulated in the boxed order, so this
   reproduces the boxed oracle's accumulator bits at the phase boundary.
   The longrange / bias phases then keep adding into [acc] — this is the
   gather/spread synchronization point (the ["soa.store"] phase). *)
let flush t acc =
  Soa.sync_store ~exec:t.exec t.flat.store acc;
  acc.Mdsp_ff.Bonded.virial <- t.flat.sc.K.virial

let compute t box positions acc =
  Mdsp_ff.Bonded.reset acc;
  let tm = t.tm in
  rebuild_timed t box positions;
  let bond, angle, dihedral =
    timed (fun d -> tm.bonded_s <- tm.bonded_s +. d) (fun () ->
        load t box positions;
        bonded t box)
  in
  let pair =
    timed (fun d -> tm.pair_s <- tm.pair_s +. d) (fun () ->
        let p =
          if inline t then pair_inline t box ~with14:true
          else
            let pair14 = pairs14 t box in
            pair14 +. pair_par t box
        in
        flush t acc;
        p)
  in
  let recip, correction =
    timed (fun d -> tm.longrange_s <- tm.longrange_s +. d) (fun () ->
        compute_longrange t box positions acc)
  in
  let e =
    timed (fun d -> tm.bias_s <- tm.bias_s +. d) (fun () ->
        let bias = compute_biases t box positions acc in
        let e = { bond; angle; dihedral; pair; recip; correction; bias } in
        match t.transform with
        | None -> e
        | Some tr ->
            let boost = tr.tr_apply box positions acc (total e) in
            { e with bias = e.bias +. boost })
  in
  tm.calls <- tm.calls + 1;
  e

let compute_class t cls box positions acc =
  Mdsp_ff.Bonded.reset acc;
  let tm = t.tm in
  match cls with
  | `Fast ->
      let bond, angle, dihedral =
        timed (fun d -> tm.bonded_s <- tm.bonded_s +. d) (fun () ->
            load t box positions;
            bonded t box)
      in
      let pair14 =
        timed (fun d -> tm.pair_s <- tm.pair_s +. d) (fun () ->
            let p = pairs14 t box in
            flush t acc;
            p)
      in
      let bias =
        timed (fun d -> tm.bias_s <- tm.bias_s +. d) (fun () ->
            compute_biases t box positions acc)
      in
      { zero_energies with bond; angle; dihedral; pair = pair14; bias }
  | `Slow ->
      rebuild_timed t box positions;
      let pair =
        timed (fun d -> tm.pair_s <- tm.pair_s +. d) (fun () ->
            load t box positions;
            let p =
              if inline t then pair_inline t box ~with14:false
              else pair_par t box
            in
            flush t acc;
            p)
      in
      let recip, correction =
        timed (fun d -> tm.longrange_s <- tm.longrange_s +. d) (fun () ->
            compute_longrange t box positions acc)
      in
      tm.calls <- tm.calls + 1;
      { zero_energies with pair; recip; correction }
