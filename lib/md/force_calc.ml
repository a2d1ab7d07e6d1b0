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
      let recip =
        Mdsp_longrange.Gse.reciprocal ~exec:t.exec gse t.charges positions acc
      in
      let ew = gse_correction_handle t gse box in
      let corr =
        Mdsp_longrange.Ewald.self_energy ew t.charges
        +. Mdsp_longrange.Ewald.excluded_correction ew box t.charges positions
             t.topo.exclusions acc
      in
      (recip, corr)

(* --- the flat force phases ----------------------------------------- *)

(* One slot and no sanitizer: the phases run inline on the calling domain
   instead of as declared pool phases, charged to the executor's clock
   under the pool phase's name. *)
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
    Exec.timed ~phase:"bonded" t.exec (fun () ->
        bonded_terms box topo ctx.store ctx.sc (0, nb) (0, na) (0, nd)
          (0, ni))
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
  else if inline t then
    Exec.timed ~phase:"pair14" t.exec (fun () ->
        ctx.sc.K.energy <- 0.;
        K.pairs14_range p14 box ctx.store 0 np ctx.sc;
        ctx.sc.K.energy)
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

(* Neighbor-list pairs, mirror of Pair_interactions.compute: inline at one
   slot, otherwise one tile of the list per slot. *)
let pair t box =
  let is, js = Mdsp_space.Neighbor_list.raw_pairs t.nlist in
  if inline t then
    Exec.timed ~phase:"pair" t.exec (fun () ->
        let sc = t.flat.sc in
        sc.K.energy <- 0.;
        K.kernel_range t.kernel box t.flat.store ~is ~js 0
          (Mdsp_space.Neighbor_list.length t.nlist)
          sc;
        sc.K.energy)
  else begin
    let ns = Exec.n_slots t.exec in
    let tiles = Mdsp_space.Neighbor_list.tiles t.nlist ~ntiles:ns in
    let total = snd tiles.(ns - 1) in
    let natoms = Soa.n t.flat.store in
    slot_phase t ~phase:"pair" ~reads:[ ("pair.tiles", total) ]
      (fun s sst ssc ->
        let lo, hi = tiles.(s) in
        Exec.declare_write ~slot:s ~resource:"pair.tiles" ~total ~lo ~hi
          t.exec;
        Exec.declare_read ~slot:s ~resource:"nlist.pairs" ~total ~lo ~hi
          t.exec;
        Exec.declare_read ~slot:s ~resource:"soa.positions" ~lo:0 ~hi:natoms
          t.exec;
        K.kernel_range t.kernel box sst ~is ~js lo hi ssc)
  end

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
  ignore (Mdsp_space.Neighbor_list.maybe_rebuild ~box t.nlist positions);
  load t box positions;
  let bond, angle, dihedral = bonded t box in
  let pair14 = pairs14 t box in
  let pair = pair14 +. pair t box in
  flush t acc;
  let recip, correction = compute_longrange t box positions acc in
  (* The serial bias and transform pass — the programmable-core work of
     the paper's methods. *)
  Exec.timed ~phase:"bias" t.exec (fun () ->
      let bias = compute_biases t box positions acc in
      let e = { bond; angle; dihedral; pair; recip; correction; bias } in
      match t.transform with
      | None -> e
      | Some tr ->
          let boost = tr.tr_apply box positions acc (total e) in
          { e with bias = e.bias +. boost })

let compute_class t cls box positions acc =
  Mdsp_ff.Bonded.reset acc;
  match cls with
  | `Fast ->
      load t box positions;
      let bond, angle, dihedral = bonded t box in
      let pair14 = pairs14 t box in
      flush t acc;
      let bias =
        Exec.timed ~phase:"bias" t.exec (fun () ->
            compute_biases t box positions acc)
      in
      { zero_energies with bond; angle; dihedral; pair = pair14; bias }
  | `Slow ->
      ignore (Mdsp_space.Neighbor_list.maybe_rebuild ~box t.nlist positions);
      load t box positions;
      let pair = pair t box in
      flush t acc;
      let recip, correction = compute_longrange t box positions acc in
      { zero_energies with pair; recip; correction }
