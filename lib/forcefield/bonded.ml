open Mdsp_util

type accum = { forces : Vec3.t array; mutable virial : float }

let make_accum n = { forces = Array.make n Vec3.zero; virial = 0. }

let reset acc =
  Array.fill acc.forces 0 (Array.length acc.forces) Vec3.zero;
  acc.virial <- 0.

let add_force acc i f = acc.forces.(i) <- Vec3.add acc.forces.(i) f

(* --- per-slot scratch and deterministic reduction --- *)

(* Fixed-shape pairwise tree over the slot contributions for one atom; the
   order depends only on the slot count, so the reduced force is
   deterministic regardless of which domain produced which partial. *)
let rec tree_force slots i lo hi =
  if hi - lo = 1 then slots.(lo).forces.(i)
  else begin
    let mid = lo + ((hi - lo) / 2) in
    Vec3.add (tree_force slots i lo mid) (tree_force slots i mid hi)
  end

let reduce_slots ?(exec = Exec.serial) ?(reads = []) ~phase ~into slots =
  let nslots = Array.length slots in
  (* This phase writes the *shared* accumulator, so the declared resource
     is the atom index space itself: each slot read-modifies its own tile
     of it after reading every slot's partials — [reads] names the
     iteration-space resources the producing phase declared. It runs at
     every slot count; with no private partials it folds nothing. *)
  Exec.sweep ~phase ~reads:[ "bonded.reduce" ]
    ~writes:[ "bonded.reduce" ] ~whole:reads exec
    ~total:(Array.length into.forces) (fun _ lo hi ->
      if nslots > 0 then
        for i = lo to hi - 1 do
          into.forces.(i) <-
            Vec3.add into.forces.(i) (tree_force slots i 0 nslots)
        done);
  if nslots > 0 then
    into.virial <-
      into.virial +. Exec.sum_tree (Array.map (fun a -> a.virial) slots)

let slot_accums exec acc =
  let ns = Exec.n_slots exec in
  if ns = 1 then ([| acc |], [||])
  else
    let privates =
      Array.init ns (fun _ -> make_accum (Array.length acc.forces))
    in
    (privates, privates)

(* --- bonded terms, over an index range so tiles can run in parallel --- *)

(* Each range sums its virial in a local seeded from [acc] and stores it
   once at the end, the same additions in the same order: a slot's
   accumulator record sits next to the other slots', and a store per term
   into it makes the slots of the phase fight over one cache line. *)
let bonds_range box (topo : Topology.t) positions acc lo hi =
  let e = ref 0. and w = ref acc.virial in
  for t = lo to hi - 1 do
    let b = topo.bonds.(t) in
    let d = Pbc.min_image box positions.(b.i) positions.(b.j) in
    let r = Vec3.norm d in
    let dr = r -. b.r0 in
    e := !e +. (b.k *. dr *. dr);
    (* F_i = -dU/dr * d/r, with dU/dr = 2 k dr *)
    let fmag = -2. *. b.k *. dr /. r in
    let f = Vec3.scale fmag d in
    add_force acc b.i f;
    add_force acc b.j (Vec3.neg f);
    w := !w +. Vec3.dot f d
  done;
  acc.virial <- !w;
  !e

let bonds box topo positions acc =
  bonds_range box topo positions acc 0 (Array.length topo.Topology.bonds)

let angles_range box (topo : Topology.t) positions acc lo hi =
  let e = ref 0. and w = ref acc.virial in
  for t = lo to hi - 1 do
    let a = topo.angles.(t) in
    (* Vectors from the central atom j to i and k. *)
    let rij = Pbc.min_image box positions.(a.i) positions.(a.j) in
    let rkj = Pbc.min_image box positions.(a.k) positions.(a.j) in
    let nij = Vec3.norm rij and nkj = Vec3.norm rkj in
    let cos_t =
      Float.max (-1.) (Float.min 1. (Vec3.dot rij rkj /. (nij *. nkj)))
    in
    let theta = acos cos_t in
    let dtheta = theta -. a.theta0 in
    e := !e +. (a.k_theta *. dtheta *. dtheta);
    let du_dtheta = 2. *. a.k_theta *. dtheta in
    (* F_i = -dU/dr_i = (dU/dtheta / sin theta) * dcos(theta)/dr_i. Guard
       collinear geometry where sin(theta) -> 0. *)
    let sin_t = Float.max 1e-8 (sqrt (1. -. (cos_t *. cos_t))) in
    let coeff = du_dtheta /. sin_t in
    let fi =
      Vec3.scale (coeff /. nij)
        (Vec3.sub (Vec3.scale (1. /. nkj) rkj)
           (Vec3.scale (cos_t /. nij) rij))
    in
    let fk =
      Vec3.scale (coeff /. nkj)
        (Vec3.sub (Vec3.scale (1. /. nij) rij)
           (Vec3.scale (cos_t /. nkj) rkj))
    in
    let fj = Vec3.neg (Vec3.add fi fk) in
    add_force acc a.i fi;
    add_force acc a.j fj;
    add_force acc a.k fk;
    (* Virial with atom j as local origin; forces sum to zero. *)
    w := !w +. Vec3.dot fi rij +. Vec3.dot fk rkj
  done;
  acc.virial <- !w;
  !e

let angles box topo positions acc =
  angles_range box topo positions acc 0 (Array.length topo.Topology.angles)

(* Shared torsion machinery: computes the dihedral angle phi of the atom
   quadruple (i, j, k, l) and applies the Blondel-Karplus gradients for a
   caller-supplied dU/dphi, adding the virial into the caller's running
   sum [w]. Returns the angle, or None for degenerate (collinear)
   geometry. *)
let torsion box positions acc w ~i ~j ~k ~l ~du_dphi_of =
  let b1 = Pbc.min_image box positions.(j) positions.(i) in
  let b2 = Pbc.min_image box positions.(k) positions.(j) in
  let b3 = Pbc.min_image box positions.(l) positions.(k) in
  let n1 = Vec3.cross b1 b2 in
  let n2 = Vec3.cross b2 b3 in
  let n1n = Vec3.norm n1 and n2n = Vec3.norm n2 in
  if n1n <= 1e-10 || n2n <= 1e-10 then None
  else begin
    let b2n = Vec3.norm b2 in
    let m1 = Vec3.cross n1 (Vec3.scale (1. /. b2n) b2) in
    let x = Vec3.dot n1 n2 /. (n1n *. n2n) in
    let y = Vec3.dot m1 n2 /. (n1n *. n2n) in
    let phi = atan2 y x in
    let du_dphi = du_dphi_of phi in
    (* Blondel-Karplus gradients: with F = ri - rj = -b1, G = rj - rk =
       -b2, H = rl - rk = b3, A = n1, B = n2:
         F_i = -|G| U' A/|A|^2, F_l = +|G| U' B/|B|^2,
         sv = p F_i - q F_l, F_j = sv - F_i, F_k = -sv - F_l
       with p = r_ij.r_kj/|r_kj|^2 and q = r_kl.r_kj/|r_kj|^2. *)
    let fi = Vec3.scale (-.du_dphi *. b2n /. (n1n *. n1n)) n1 in
    let fl = Vec3.scale (du_dphi *. b2n /. (n2n *. n2n)) n2 in
    let p = -.(Vec3.dot b1 b2) /. (b2n *. b2n) in
    let q = -.(Vec3.dot b3 b2) /. (b2n *. b2n) in
    let sv = Vec3.sub (Vec3.scale p fi) (Vec3.scale q fl) in
    let fj = Vec3.sub sv fi in
    let fk = Vec3.neg (Vec3.add sv fl) in
    add_force acc i fi;
    add_force acc j fj;
    add_force acc k fk;
    add_force acc l fl;
    (* Virial relative to atom j. *)
    let rij = Vec3.neg b1 in
    let rkj = b2 in
    let rlj = Vec3.add b2 b3 in
    w := !w +. Vec3.dot fi rij +. Vec3.dot fk rkj +. Vec3.dot fl rlj;
    Some phi
  end

let dihedrals_range box (topo : Topology.t) positions acc lo hi =
  let e = ref 0. and w = ref acc.virial in
  for t = lo to hi - 1 do
    let d = topo.dihedrals.(t) in
    match
      torsion box positions acc w ~i:d.i ~j:d.j ~k:d.k ~l:d.l
        ~du_dphi_of:(fun phi ->
          let arg = (float_of_int d.mult *. phi) -. d.phase in
          e := !e +. (d.k_phi *. (1. +. cos arg));
          -.d.k_phi *. float_of_int d.mult *. sin arg)
    with
    | Some _ | None -> ()
  done;
  acc.virial <- !w;
  !e

let dihedrals box topo positions acc =
  dihedrals_range box topo positions acc 0
    (Array.length topo.Topology.dihedrals)

(* Wrap an angle difference into (-pi, pi]. *)
let wrap_angle x =
  let two_pi = 2. *. Float.pi in
  let x = Float.rem x two_pi in
  if x > Float.pi then x -. two_pi
  else if x <= -.Float.pi then x +. two_pi
  else x

let impropers_range box (topo : Topology.t) positions acc lo hi =
  let e = ref 0. and w = ref acc.virial in
  for t = lo to hi - 1 do
    let im = topo.impropers.(t) in
    match
      torsion box positions acc w ~i:im.ii ~j:im.ij ~k:im.ik ~l:im.il
        ~du_dphi_of:(fun phi ->
          let dxi = wrap_angle (phi -. im.xi0) in
          e := !e +. (im.k_xi *. dxi *. dxi);
          2. *. im.k_xi *. dxi)
    with
    | Some _ | None -> ()
  done;
  acc.virial <- !w;
  !e

let impropers box topo positions acc =
  impropers_range box topo positions acc 0
    (Array.length topo.Topology.impropers)

let term_count (topo : Topology.t) =
  Array.length topo.bonds + Array.length topo.angles
  + Array.length topo.dihedrals + Array.length topo.impropers

let all ?(exec = Exec.serial) ?slots box (topo : Topology.t) positions acc =
  if term_count topo = 0 then (0., 0., 0.)
  else begin
    let ns = Exec.n_slots exec in
    (* Caller-kept private partials are zeroed by their own slot. *)
    let slots, privates, kept =
      match slots with
      | Some p when ns > 1 ->
          if Array.length p <> ns then invalid_arg "Bonded.all: slots";
          (p, p, true)
      | _ ->
          let s, p = slot_accums exec acc in
          (s, p, false)
    in
    let b_tiles = Exec.tile_bounds ~total:(Array.length topo.bonds) ~ntiles:ns in
    let a_tiles = Exec.tile_bounds ~total:(Array.length topo.angles) ~ntiles:ns in
    let d_tiles =
      Exec.tile_bounds ~total:(Array.length topo.dihedrals) ~ntiles:ns
    in
    let i_tiles =
      Exec.tile_bounds ~total:(Array.length topo.impropers) ~ntiles:ns
    in
    let eb = Array.make ns 0. and ea = Array.make ns 0. in
    let ed = Array.make ns 0. in
    let natoms = Array.length positions in
    Exec.parallel_run ~phase:"bonded" exec (fun s ->
        let a = slots.(s) in
        if kept then reset a;
        let declare resource tiles total =
          let lo, hi = tiles in
          Exec.declare_write ~slot:s ~resource ~total ~lo ~hi exec
        in
        (* Bond endpoints are arbitrary atom indices, so every slot reads
           the whole position array. *)
        Exec.declare_read ~slot:s ~resource:"state.positions" ~lo:0
          ~hi:natoms exec;
        declare "bonded.bonds" b_tiles.(s) (Array.length topo.bonds);
        declare "bonded.angles" a_tiles.(s) (Array.length topo.angles);
        declare "bonded.dihedrals" d_tiles.(s) (Array.length topo.dihedrals);
        declare "bonded.impropers" i_tiles.(s) (Array.length topo.impropers);
        let lo, hi = b_tiles.(s) in
        eb.(s) <- bonds_range box topo positions a lo hi;
        let lo, hi = a_tiles.(s) in
        ea.(s) <- angles_range box topo positions a lo hi;
        let lo, hi = d_tiles.(s) in
        let e_d = dihedrals_range box topo positions a lo hi in
        let lo, hi = i_tiles.(s) in
        ed.(s) <- e_d +. impropers_range box topo positions a lo hi);
    reduce_slots ~exec ~phase:"bonded.reduce"
      ~reads:
        [
          ("bonded.bonds", Array.length topo.bonds);
          ("bonded.angles", Array.length topo.angles);
          ("bonded.dihedrals", Array.length topo.dihedrals);
          ("bonded.impropers", Array.length topo.impropers);
        ]
      ~into:acc privates;
    (Exec.sum_tree eb, Exec.sum_tree ea, Exec.sum_tree ed)
  end
