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

(* The flat particle store the 1-4 and pair phases run on, and what each
   slot of a pool phase accumulates into. At one slot, slot 0's store and
   scratch are [store] and [sc] themselves, so no private partial exists.
   At two or more, slot stores share the position columns with [store]
   and own their force columns, the private partials the reduction folds
   into [store]. *)
type flat = {
  store : Soa.t;
  sc : K.scratch;
  slot_stores : Soa.t array;
  slot_sc : K.scratch array;
  (* The private force columns, one per slot; empty at one slot. *)
  slot_fx : Soa.fa array;
  slot_fy : Soa.fa array;
  slot_fz : Soa.fa array;
  (* Per-phase slot outputs, preallocated; every slot overwrites its entry
     before any read. *)
  slot_energy : float array;
  slot_virial : float array;
  (* The bonded phase's private partials, one per slot; empty at one
     slot. *)
  bonded_slots : Mdsp_ff.Bonded.accum array;
}

let make_flat ~exec natoms =
  let store = Soa.create natoms and sc = K.make_scratch () in
  let ns = Exec.n_slots exec in
  let slot_stores, slot_sc =
    if ns = 1 then ([| store |], [| sc |])
    else
      ( Array.init ns (fun _ ->
            {
              store with
              Soa.fx = Soa.make_fa natoms;
              Soa.fy = Soa.make_fa natoms;
              Soa.fz = Soa.make_fa natoms;
            }),
        Array.init ns (fun _ -> K.make_scratch ()) )
  in
  let privates = if ns = 1 then [||] else slot_stores in
  {
    store;
    sc;
    slot_stores;
    slot_sc;
    slot_fx = Array.map (fun s -> s.Soa.fx) privates;
    slot_fy = Array.map (fun s -> s.Soa.fy) privates;
    slot_fz = Array.map (fun s -> s.Soa.fz) privates;
    slot_energy = Array.make ns 0.;
    slot_virial = Array.make ns 0.;
    bonded_slots =
      (if ns = 1 then [||]
       else Array.init ns (fun _ -> Mdsp_ff.Bonded.make_accum natoms));
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

(* A declared pool phase on the flat store: [body s store sc] runs on slot
   [s]'s store and scratch with the scratch energy zeroed, then the
   private force columns and virials fold into the store with the boxed
   tree shape. Private columns and scratch are cleared first; at one slot
   the body accumulates straight into the store and the running virial,
   and the fold has nothing to add. [reads] names the iteration spaces
   the reduction consumes. Returns the tree sum of the slot energies. *)
let slot_phase t ~phase ~reads body =
  let ctx = t.flat in
  Exec.parallel_run ~phase t.exec (fun s ->
      let sst = ctx.slot_stores.(s) and ssc = ctx.slot_sc.(s) in
      if sst != ctx.store then begin
        Soa.clear_forces sst;
        K.reset_scratch ssc
      end;
      ssc.K.energy <- 0.;
      body s sst ssc;
      ctx.slot_energy.(s) <- ssc.K.energy;
      ctx.slot_virial.(s) <- ssc.K.virial);
  K.reduce_slots ~exec:t.exec ~reads ~into:ctx.store ~slot_fx:ctx.slot_fx
    ~slot_fy:ctx.slot_fy ~slot_fz:ctx.slot_fz ~slot_virial:ctx.slot_virial
    ctx.sc;
  Exec.sum_tree ctx.slot_energy

(* Scaled 1-4 terms at the evaluator's cutoff, the mirror of
   Pair_interactions.compute_pairs14 (same skip condition, same tiling). *)
let pairs14 t box =
  let p14 = K.kernel_pairs14 t.kernel in
  let np = K.pairs14_count p14 in
  if not (K.pairs14_active p14) then 0.
  else begin
    let tiles = Exec.tile_bounds ~total:np ~ntiles:(Exec.n_slots t.exec) in
    let natoms = Soa.n t.flat.store in
    slot_phase t ~phase:"pair14" ~reads:[ ("pair.pairs14", np) ]
      (fun s sst ssc ->
        let lo, hi = tiles.(s) in
        Exec.declare_write ~slot:s ~resource:"pair.pairs14" ~total:np ~lo ~hi
          t.exec;
        Exec.declare_read ~slot:s ~resource:"soa.positions" ~lo:0 ~hi:natoms
          t.exec;
        K.pairs14_range p14 box sst lo hi ssc)
  end

(* Neighbor-list pairs, mirror of Pair_interactions.compute: one tile of
   the list per slot. *)
let pair t box =
  let is, js = Mdsp_space.Neighbor_list.raw_pairs t.nlist in
  let ns = Exec.n_slots t.exec in
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

(* Load positions into the flat store and seed its accumulators with
   [acc]'s forces and virial — the bonded terms — so the 1-4 and pair
   phases accumulate on top of them: the ["soa.load"] phase. *)
let load t box positions acc =
  let store = t.flat.store in
  store.Soa.box <- box;
  Soa.sync_load ~exec:t.exec ~forces:acc.Mdsp_ff.Bonded.forces store positions;
  t.flat.sc.K.virial <- acc.Mdsp_ff.Bonded.virial

(* Flush the flat force sums and the virial into the boxed accumulator.
   Plain overwrite: the kernels accumulated in the boxed order, so this
   reproduces the boxed oracle's accumulator bits at the phase boundary.
   The longrange / bias phases then keep adding into [acc] — this is the
   gather/spread synchronization point (the ["soa.store"] phase). *)
let flush t acc =
  Soa.sync_store ~exec:t.exec t.flat.store acc;
  acc.Mdsp_ff.Bonded.virial <- t.flat.sc.K.virial

(* The one force sequence: bonded into [acc], load, 1-4, pair, flush,
   long-range, bias. The class selects the terms — [`Fast] the bonded,
   1-4 and bias terms, [`Slow] the list rebuild, the pairs and
   long-range, [`All] every term plus the transform. A topology without
   bonded terms runs no bonded phase, but still charges [bonded]. *)
let evaluate t cls box positions acc =
  let fast = cls <> `Slow and slow = cls <> `Fast in
  Mdsp_ff.Bonded.reset acc;
  if slow then
    ignore (Mdsp_space.Neighbor_list.maybe_rebuild ~box t.nlist positions);
  let bond, angle, dihedral =
    if not fast then (0., 0., 0.)
    else if Mdsp_ff.Bonded.term_count t.topo = 0 then
      Exec.timed ~phase:"bonded" t.exec (fun () -> (0., 0., 0.))
    else
      Mdsp_ff.Bonded.all ~exec:t.exec ~slots:t.flat.bonded_slots box t.topo
        positions acc
  in
  load t box positions acc;
  let pair14 = if fast then pairs14 t box else 0. in
  let pair = if slow then pair14 +. pair t box else pair14 in
  flush t acc;
  let recip, correction =
    if slow then compute_longrange t box positions acc else (0., 0.)
  in
  let e = { bond; angle; dihedral; pair; recip; correction; bias = 0. } in
  if not fast then e
  else
    (* The serial bias and transform pass — the programmable-core work of
       the paper's methods. *)
    Exec.timed ~phase:"bias" t.exec (fun () ->
        let e = { e with bias = compute_biases t box positions acc } in
        match t.transform with
        | Some tr when cls = `All ->
            let boost = tr.tr_apply box positions acc (total e) in
            { e with bias = e.bias +. boost }
        | _ -> e)

let compute t box positions acc = evaluate t `All box positions acc

let compute_class t cls box positions acc =
  evaluate t (cls :> [ `All | `Fast | `Slow ]) box positions acc
