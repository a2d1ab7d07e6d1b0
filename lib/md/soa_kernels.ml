open Mdsp_util
module Topology = Mdsp_ff.Topology
module Nonbonded = Mdsp_ff.Nonbonded
module Pair_interactions = Mdsp_ff.Pair_interactions

(* Every kernel in this file is an expression-for-expression mirror of the
   boxed path (Pair_interactions / Nonbonded): same parse trees,
   same association, same guards, same accumulation order. That is the whole
   contract — SoA results must be bitwise identical to the boxed results, so
   nothing here is "mathematically equal", it is operation-equal. Keep it
   that way when editing: check the boxed source first. *)

type scratch = { mutable energy : float; mutable virial : float }

let make_scratch () = { energy = 0.; virial = 0. }

let reset_scratch s =
  s.energy <- 0.;
  s.virial <- 0.

(* ------------------------------------------------------------------ *)
(* Pair parameters: the analytic evaluator flattened into arrays.      *)
(* ------------------------------------------------------------------ *)

type elec_kind =
  | Ek_none
  | Ek_cutoff
  | Ek_rf of { krf : float; crf : float }
  | Ek_ewald of { beta : float }

type pair_params = {
  cutoff : float;
  rc2 : float;
  ntypes : int;
  type_of : int array;
  (* Per type pair (flattened ntypes x ntypes), Lorentz-Berthelot combined:
     [eps4] = 4 eps, [eps24] = 24 eps, [sig2] = sigma^2 — exactly the
     subexpressions the boxed LJ eval computes per pair, hoisted. *)
  eps4 : float array;
  eps24 : float array;
  sig2 : float array;
  shift : float array;  (* energy shift at the cutoff; 0 for Truncate *)
  shift14 : float array;  (* 1-4 terms always use Shift truncation *)
  q : float array;
  cq : float array;  (* Units.coulomb *. q, the boxed qq prefix *)
  elec : elec_kind;
  p14i : int array;
  p14j : int array;
  scale14_lj : float;
  scale14_coul : float;
}

(* Switch truncation has no specialised loop; [pair_kernel] sends it, like
   table and custom evaluators, to the generic one. *)
let pair_params_of_topology (topo : Topology.t) ~cutoff
    ~(trunc : Nonbonded.truncation) ~(elec : Pair_interactions.electrostatics)
    =
  match trunc with
  | Switch _ -> None
  | (Truncate | Shift) as trunc ->
      let ntypes = Array.length topo.lj_types in
      let type_of =
        Array.map (fun (a : Topology.atom) -> a.type_id) topo.atoms
      in
      let nt2 = ntypes * ntypes in
      let eps4 = Array.make nt2 0. in
      let eps24 = Array.make nt2 0. in
      let sig2 = Array.make nt2 0. in
      let shift = Array.make nt2 0. in
      let shift14 = Array.make nt2 0. in
      for ti = 0 to ntypes - 1 do
        for tj = 0 to ntypes - 1 do
          let k = (ti * ntypes) + tj in
          let lj =
            Nonbonded.lorentz_berthelot topo.lj_types.(ti) topo.lj_types.(tj)
          in
          (match lj with
          | Nonbonded.Lennard_jones { epsilon; sigma } ->
              eps4.(k) <- 4. *. epsilon;
              eps24.(k) <- 24. *. epsilon;
              sig2.(k) <- sigma *. sigma
          | _ -> assert false);
          (* shift_at is pure, so hoisting it out of the pair loop keeps the
             exact bits the boxed path subtracts per pair. *)
          (match trunc with
          | Nonbonded.Shift -> shift.(k) <- Nonbonded.shift_at lj cutoff
          | _ -> ());
          shift14.(k) <- Nonbonded.shift_at lj cutoff
        done
      done;
      let q = Topology.charges topo in
      let cq = Array.map (fun qi -> Units.coulomb *. qi) q in
      let elec =
        match elec with
        | Pair_interactions.No_coulomb -> Ek_none
        | Pair_interactions.Cutoff_coulomb -> Ek_cutoff
        | Pair_interactions.Reaction_field { epsilon_rf } ->
            (* Same krf/crf arithmetic as Pair_interactions.of_topology. *)
            let k =
              (epsilon_rf -. 1.)
              /. ((2. *. epsilon_rf) +. 1.)
              /. (cutoff *. cutoff *. cutoff)
            in
            Ek_rf { krf = k; crf = (1. /. cutoff) +. (k *. cutoff *. cutoff) }
        | Pair_interactions.Ewald_real { beta } -> Ek_ewald { beta }
      in
      let np14 = Array.length topo.pairs14 in
      let p14i = Array.make np14 0 and p14j = Array.make np14 0 in
      Array.iteri
        (fun k (i, j) ->
          p14i.(k) <- i;
          p14j.(k) <- j)
        topo.pairs14;
      Some
        {
          cutoff;
          rc2 = cutoff *. cutoff;
          ntypes;
          type_of;
          eps4;
          eps24;
          sig2;
          shift;
          shift14;
          q;
          cq;
          elec;
          p14i;
          p14j;
          scale14_lj = topo.scale14_lj;
          scale14_coul = topo.scale14_coul;
        }

(* Same constant expression as Nonbonded.two_over_sqrt_pi (not exported). *)
let two_over_sqrt_pi = 2. /. sqrt Float.pi

(* Specfun.erfc, expression for expression. A call across the module
   boundary boxes its argument and result whenever cross-module inlining is
   off (dune's dev profile builds with -opaque), about four words per
   in-range pair; this same-module copy inlines, so the Ewald loop stays
   allocation-free in every profile. *)
let[@inline] erfc x =
  let z = abs_float x in
  let t = 1. /. (1. +. (0.5 *. z)) in
  let poly =
    -1.26551223
    +. t
       *. (1.00002368
          +. t
             *. (0.37409196
                +. t
                   *. (0.09678418
                      +. t
                         *. (-0.18628806
                            +. t
                               *. (0.27886807
                                  +. t
                                     *. (-1.13520398
                                        +. t
                                           *. (1.48851587
                                              +. t
                                                 *. (-0.82215223
                                                    +. (t *. 0.17087277)))))))))
  in
  let ans = t *. exp ((-.z *. z) +. poly) in
  if x >= 0. then ans else 2. -. ans

(* Pbc's minimum image, expression for expression, for the same reason:
   bit for bit [d -. l *. Float.round (d /. l)], with the rounding call
   only for |d / l| >= 1.5. *)
let[@inline] mi1 l d =
  let q = d /. l in
  if q > -0.5 && q < 0.5 then d +. 0.
  else if q >= 0.5 && q < 1.5 then d -. l
  else if q <= -0.5 && q > -1.5 then d +. l
  else d -. (l *. Float.round q)

(* ------------------------------------------------------------------ *)
(* The analytic pair loop: one body, specialised at each call site.    *)
(* ------------------------------------------------------------------ *)

(* The Coulomb form a call site selects. A type of its own, not
   [elec_kind]: [pp.elec] then cannot be passed where a literal must be. *)
type coulomb = No_c | Cutoff_c | Rf_c | Ewald_c

(* The body mirrors Pair_interactions.apply_pair + the evaluator:
   min_image via the [mi1] copy above, norm2 left-associated, the r2 < rc2
   gate, LJ with the hoisted type-pair constants, the qq = 0 gate, then
   energy / force add-sub / virial in the boxed order. [scaled] is the 1-4
   form: qq and the LJ terms times the 1-4 scales, as compute_pairs14 has
   them. The literal [+. 0.] of the LJ-only form is the boxed
   [e_lj +. e_c] with e_c = 0 — do not "simplify" it away (it normalizes
   -0. exactly like the boxed path).

   Every call passes [coulomb] and [scaled] as literals: the compiler
   inlines the body there and folds their tests, so each call site is the
   allocation-free loop of its own form and the loop never tests the form
   per pair. A per-pair [match] on [pp.elec] keeps the bits but costs
   measured speed. CI fails if any call to [analytic_range] is left. *)
let[@inline] analytic_range ~coulomb ~scaled ~krf ~crf ~beta pp
    (shift : float array) (box : Pbc.t) (s : Soa.t) ~(is : int array)
    ~(js : int array) lo hi (sc : scratch) =
  let x = s.Soa.x and y = s.Soa.y and z = s.Soa.z in
  let fx = s.Soa.fx and fy = s.Soa.fy and fz = s.Soa.fz in
  let lx = box.Pbc.lx and ly = box.Pbc.ly and lz = box.Pbc.lz in
  let rc2 = pp.rc2 and ntypes = pp.ntypes and cutoff = pp.cutoff in
  let type_of = pp.type_of in
  let eps4 = pp.eps4 and eps24 = pp.eps24 and sig2 = pp.sig2 in
  let q = pp.q and cq = pp.cq in
  let s14l = pp.scale14_lj and s14c = pp.scale14_coul in
  for k = lo to hi - 1 do
    let i = is.(k) and j = js.(k) in
    let dx = mi1 lx (x.{i} -. x.{j}) in
    let dy = mi1 ly (y.{i} -. y.{j}) in
    let dz = mi1 lz (z.{i} -. z.{j}) in
    let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
    if r2 < rc2 then begin
      let tij = (type_of.(i) * ntypes) + type_of.(j) in
      let sr2 = sig2.(tij) /. r2 in
      let sr6 = sr2 *. sr2 *. sr2 in
      let sr12 = sr6 *. sr6 in
      let e_lj = (eps4.(tij) *. (sr12 -. sr6)) -. shift.(tij) in
      let f_lj = eps24.(tij) *. ((2. *. sr12) -. sr6) /. r2 in
      let e_c, f_c =
        match coulomb with
        | No_c -> (0., 0.)
        | Cutoff_c | Rf_c | Ewald_c -> (
            let qq =
              if scaled then (cq.(i) *. q.(j)) *. s14c else cq.(i) *. q.(j)
            in
            let r = sqrt r2 in
            match coulomb with
            | Cutoff_c | No_c ->
                ( (if qq = 0. then 0. else (qq /. r) -. (qq /. cutoff)),
                  if qq = 0. then 0. else qq /. (r2 *. r) )
            | Rf_c ->
                ( (if qq = 0. then 0.
                   else (qq /. r) +. (qq *. krf *. r2) -. (qq *. crf)),
                  if qq = 0. then 0. else (qq /. (r2 *. r)) -. (2. *. qq *. krf)
                )
            | Ewald_c ->
                let erfc_br = erfc (beta *. r) in
                let gauss =
                  two_over_sqrt_pi *. beta *. exp (-.beta *. beta *. r2)
                in
                ( (if qq = 0. then 0. else qq *. erfc_br /. r),
                  if qq = 0. then 0. else qq *. ((erfc_br /. r) +. gauss) /. r2
                ))
      in
      let e = (if scaled then s14l *. e_lj else e_lj) +. e_c in
      let fr = (if scaled then s14l *. f_lj else f_lj) +. f_c in
      sc.energy <- sc.energy +. e;
      let gx = fr *. dx and gy = fr *. dy and gz = fr *. dz in
      fx.{i} <- fx.{i} +. gx;
      fy.{i} <- fy.{i} +. gy;
      fz.{i} <- fz.{i} +. gz;
      fx.{j} <- fx.{j} -. gx;
      fy.{j} <- fy.{j} -. gy;
      fz.{j} <- fz.{j} -. gz;
      sc.virial <- sc.virial +. ((gx *. dx) +. (gy *. dy) +. (gz *. dz))
    end
  done

let pair_range pp box s ~is ~js lo hi sc =
  match pp.elec with
  | Ek_none ->
      analytic_range ~coulomb:No_c ~scaled:false ~krf:0. ~crf:0. ~beta:0. pp
        pp.shift box s ~is ~js lo hi sc
  | Ek_cutoff ->
      analytic_range ~coulomb:Cutoff_c ~scaled:false ~krf:0. ~crf:0. ~beta:0.
        pp pp.shift box s ~is ~js lo hi sc
  | Ek_rf { krf; crf } ->
      analytic_range ~coulomb:Rf_c ~scaled:false ~krf ~crf ~beta:0. pp pp.shift
        box s ~is ~js lo hi sc
  | Ek_ewald { beta } ->
      analytic_range ~coulomb:Ewald_c ~scaled:false ~krf:0. ~crf:0. ~beta pp
        pp.shift box s ~is ~js lo hi sc

(* Any other evaluator (tables, FEP lambdas, Switch, custom forms): the
   mirror of Pair_interactions.apply_pair with the call to [eval] left in,
   so it allocates the evaluator's result tuple per pair in range. *)
let eval_range (ev : Pair_interactions.evaluator) (box : Pbc.t) (s : Soa.t)
    ~(is : int array) ~(js : int array) lo hi (sc : scratch) =
  let x = s.Soa.x and y = s.Soa.y and z = s.Soa.z in
  let fx = s.Soa.fx and fy = s.Soa.fy and fz = s.Soa.fz in
  let lx = box.Pbc.lx and ly = box.Pbc.ly and lz = box.Pbc.lz in
  let eval = ev.Pair_interactions.eval in
  let rc2 = ev.Pair_interactions.cutoff *. ev.Pair_interactions.cutoff in
  for k = lo to hi - 1 do
    let i = is.(k) and j = js.(k) in
    let dx = mi1 lx (x.{i} -. x.{j}) in
    let dy = mi1 ly (y.{i} -. y.{j}) in
    let dz = mi1 lz (z.{i} -. z.{j}) in
    let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
    if r2 < rc2 then begin
      let e, fr = eval i j r2 in
      sc.energy <- sc.energy +. e;
      let gx = fr *. dx and gy = fr *. dy and gz = fr *. dz in
      fx.{i} <- fx.{i} +. gx;
      fy.{i} <- fy.{i} +. gy;
      fz.{i} <- fz.{i} +. gz;
      fx.{j} <- fx.{j} -. gx;
      fy.{j} <- fy.{j} -. gy;
      fz.{j} <- fz.{j} -. gz;
      sc.virial <- sc.virial +. ((gx *. dx) +. (gy *. dy) +. (gz *. dz))
    end
  done

(* ------------------------------------------------------------------ *)
(* The pair kernel an evaluator selects.                               *)
(* ------------------------------------------------------------------ *)

type pair_loop =
  | Analytic of pair_params
  | Generic of Pair_interactions.evaluator

type pair_kernel = { loop : pair_loop; p14 : pair_params }

let pair_kernel topo (ev : Pair_interactions.evaluator) =
  let cutoff = ev.Pair_interactions.cutoff in
  let analytic =
    match ev.Pair_interactions.analytic with
    | Some a when a.Pair_interactions.topo == topo ->
        pair_params_of_topology topo ~cutoff ~trunc:a.trunc ~elec:a.elec
    | _ -> None
  in
  match analytic with
  | Some pp -> { loop = Analytic pp; p14 = pp }
  | None ->
      (* The 1-4 constants depend on the cutoff alone. *)
      let p14 =
        pair_params_of_topology topo ~cutoff ~trunc:Nonbonded.Shift
          ~elec:Pair_interactions.No_coulomb
      in
      { loop = Generic ev; p14 = Option.get p14 }

let kernel_pairs14 k = k.p14

let kernel_range k box s ~is ~js lo hi sc =
  match k.loop with
  | Analytic pp -> pair_range pp box s ~is ~js lo hi sc
  | Generic ev -> eval_range ev box s ~is ~js lo hi sc

(* ------------------------------------------------------------------ *)
(* 1-4 pairs: Shift-truncated LJ + cutoff Coulomb, both scaled.        *)
(* ------------------------------------------------------------------ *)

let pairs14_count pp = Array.length pp.p14i

let pairs14_active pp =
  pairs14_count pp > 0 && not (pp.scale14_lj <= 0. && pp.scale14_coul <= 0.)

(* 1-4 terms always use Shift truncation and cutoff Coulomb. *)
let pairs14_range pp box s lo hi sc =
  analytic_range ~coulomb:Cutoff_c ~scaled:true ~krf:0. ~crf:0. ~beta:0. pp
    pp.shift14 box s ~is:pp.p14i ~js:pp.p14j lo hi sc

(* ------------------------------------------------------------------ *)
(* Deterministic slot reduction (mirror of Bonded.reduce_slots).       *)
(* ------------------------------------------------------------------ *)

(* Fixed-shape pairwise tree over one column, per atom — the same shape as
   Bonded.tree_force applied componentwise. *)
let rec tree_col (cols : Soa.fa array) i lo hi =
  if hi - lo = 1 then cols.(lo).{i}
  else begin
    let mid = lo + ((hi - lo) / 2) in
    tree_col cols i lo mid +. tree_col cols i mid hi
  end

let reduce_slots ~exec ?(reads = []) ~(into : Soa.t)
    ~(slot_fx : Soa.fa array) ~(slot_fy : Soa.fa array)
    ~(slot_fz : Soa.fa array) ~(slot_virial : float array) (sc : scratch) =
  let nslots = Array.length slot_fx in
  let ifx = into.Soa.fx and ify = into.Soa.fy and ifz = into.Soa.fz in
  (* Writes the shared flat force columns (a read-modify-write of the
     slot's own atom tile) after reading every slot's partials. Runs at
     every slot count; without private columns it folds nothing. *)
  Exec.sweep ~phase:"soa.reduce" ~reads:[ "soa.reduce" ]
    ~writes:[ "soa.reduce" ] ~whole:reads exec ~total:into.Soa.n
    (fun _ lo hi ->
      if nslots > 0 then
        for i = lo to hi - 1 do
          ifx.{i} <- ifx.{i} +. tree_col slot_fx i 0 nslots;
          ify.{i} <- ify.{i} +. tree_col slot_fy i 0 nslots;
          ifz.{i} <- ifz.{i} +. tree_col slot_fz i 0 nslots
        done);
  (* Without private partials the phase's virial is already in [sc]. *)
  if nslots > 0 then sc.virial <- sc.virial +. Exec.sum_tree slot_virial
