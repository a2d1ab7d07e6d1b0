open Mdsp_util

(* The spreading stencil is truncated at this radius, in units of sigma. *)
let support = 4.

(* One axis of a charge's stencil. Slot k stands for the grid point at
   offset k - s from the charge's home point: its index wrapped onto the
   periodic grid, the displacement of the charge from the (unwrapped) grid
   point, that displacement squared, and the 1-D Gaussian factor
   exp (-d^2 / 2 sigma^2). The 3-D Gaussian is the product of the three
   factors, so a charge costs 3 (2s + 1) [exp] calls rather than one per
   stencil point. *)
type axis = {
  idx : int array;
  d : float array;
  d2 : float array;
  e : float array;
}

type stencil = { ax : axis; ay : axis; az : axis }

type t = {
  beta_ : float;
  sigma : float;
  nx : int;
  ny : int;
  nz : int;
  box : Pbc.t;
  hx : float;  (** grid spacing along x, [box.lx / nx] *)
  hy : float;
  hz : float;
  sx : int;  (** stencil half-width along x, in grid points *)
  sy : int;
  sz : int;
  norm : float;  (** Gaussian normalisation (2 pi sigma^2)^(-3/2) *)
  inv_2s2 : float;  (** 1 / (2 sigma^2) *)
  r_max2 : float;  (** squared truncation radius: the spherical cut *)
  ghat : float array;  (** influence function, indexed like the grid *)
  k2s : float array;  (** squared wavevector per grid point *)
  (* The grid itself, reused across calls. *)
  re : float array;
  im : float array;
  (* Per-slot scratch grids for domain-parallel charge spreading (two or
     more slots only) and per-slot stencils, sized lazily to the executor
     actually used and reused across steps. *)
  mutable scratch : float array array;
  mutable stencils : stencil array;
}

type phases = {
  mutable spread_s : float;
  mutable fft_s : float;
  mutable convolve_s : float;
  mutable gather_s : float;
}

let zero_phases () =
  { spread_s = 0.; fft_s = 0.; convolve_s = 0.; gather_s = 0. }

let phases_total p = p.spread_s +. p.fft_s +. p.convolve_s +. p.gather_s

let create ~beta ~grid:(nx, ny, nz) ?sigma_s box =
  if beta <= 0. then invalid_arg "Gse.create: beta must be positive";
  if not (Fft.is_pow2 nx && Fft.is_pow2 ny && Fft.is_pow2 nz) then
    invalid_arg "Gse.create: grid dims must be powers of two";
  let sigma =
    match sigma_s with
    | Some s -> s
    | None -> 1. /. (2. *. sqrt 2. *. beta)
  in
  if sigma > 1. /. (2. *. beta) +. 1e-12 then
    invalid_arg "Gse.create: sigma_s must be <= 1/(2 beta)";
  let open Pbc in
  let two_pi = 2. *. Float.pi in
  let freq n l m =
    let m' = if m <= n / 2 then m else m - n in
    two_pi *. float_of_int m' /. l
  in
  (* Remaining k-space Gaussian after two real-space spreads of width
     sigma: exp(-k^2 (1/(4 beta^2) - sigma^2)). The guard above keeps
     [rem >= -1e-12]: for the default sigma = 1/(2 sqrt 2 beta) it is
     exactly 1/(8 beta^2) > 0, and it reaches 0 only at the admissible
     extreme sigma = 1/(2 beta). Floating-point rounding near that extreme
     (the 1e-12 slack in the guard) can leave [rem] a hair negative, which
     merely makes exp(-k^2 rem) marginally exceed 1 for large k — a bounded,
     harmless perturbation of the influence function, not a blow-up, since
     |rem| k^2 stays tiny for every representable grid wavevector. *)
  let rem = (1. /. (4. *. beta *. beta)) -. (sigma *. sigma) in
  let total = nx * ny * nz in
  let ghat = Array.make total 0. in
  let k2s = Array.make total 0. in
  for mz = 0 to nz - 1 do
    for my = 0 to ny - 1 do
      for mx = 0 to nx - 1 do
        let kx = freq nx box.lx mx in
        let ky = freq ny box.ly my in
        let kz = freq nz box.lz mz in
        let k2 = (kx *. kx) +. (ky *. ky) +. (kz *. kz) in
        let idx = mx + (nx * (my + (ny * mz))) in
        k2s.(idx) <- k2;
        if k2 > 0. then
          ghat.(idx) <- 4. *. Float.pi *. exp (-.k2 *. rem) /. k2
      done
    done
  done;
  let hx = box.lx /. float_of_int nx in
  let hy = box.ly /. float_of_int ny in
  let hz = box.lz /. float_of_int nz in
  let r = support *. sigma in
  let half h = int_of_float (ceil (r /. h)) in
  {
    beta_ = beta;
    sigma;
    nx;
    ny;
    nz;
    box;
    hx;
    hy;
    hz;
    sx = half hx;
    sy = half hy;
    sz = half hz;
    norm = (2. *. Float.pi *. sigma *. sigma) ** (-1.5);
    inv_2s2 = 1. /. (2. *. sigma *. sigma);
    r_max2 = r ** 2.;
    ghat;
    k2s;
    re = Array.make total 0.;
    im = Array.make total 0.;
    scratch = [||];
    stencils = [||];
  }

let with_box t box =
  create ~beta:t.beta_ ~grid:(t.nx, t.ny, t.nz) ~sigma_s:t.sigma box

let beta t = t.beta_
let grid t = (t.nx, t.ny, t.nz)
let box t = t.box

(* [Pbc.wrap] on one coordinate, the same expression. *)
let[@inline] wrap1 l x =
  let x = Float.rem x l in
  if x < 0. then x +. l else x

(* Fill one axis of the stencil for the wrapped coordinate [w]. The home
   point is c = floor (w / h); slot k walks the unwrapped grid point
   c + k - s, whose *index* is reduced mod n onto the periodic grid while
   the *displacement* is taken against the unwrapped coordinate
   (c + k - s) h. As long as the support radius is below half the box
   (enforced in practice by any sensible grid), that unwrapped point is the
   nearest periodic image of the grid point, so no minimum-image step is
   needed — and a particle and its wrapped copy get the same weights, which
   is what makes spreading translation-consistent under PBC. Inlined so the
   float arguments stay unboxed. *)
let[@inline] fill_axis (a : axis) ~n ~s ~h ~inv_2s2 w =
  let c = int_of_float (w /. h) in
  for k = 0 to 2 * s do
    let g = c + k - s in
    a.idx.(k) <- ((g mod n) + n) mod n;
    let dd = w -. (float_of_int g *. h) in
    let dd2 = dd *. dd in
    a.d.(k) <- dd;
    a.d2.(k) <- dd2;
    a.e.(k) <- exp (-.dd2 *. inv_2s2)
  done

(* The stencil of a charge at [p], wrapped into the box first. *)
let fill t st (p : Vec3.t) =
  let b = t.box and inv_2s2 = t.inv_2s2 in
  fill_axis st.ax ~n:t.nx ~s:t.sx ~h:t.hx ~inv_2s2 (wrap1 b.Pbc.lx p.Vec3.x);
  fill_axis st.ay ~n:t.ny ~s:t.sy ~h:t.hy ~inv_2s2 (wrap1 b.Pbc.ly p.Vec3.y);
  fill_axis st.az ~n:t.nz ~s:t.sz ~h:t.hz ~inv_2s2 (wrap1 b.Pbc.lz p.Vec3.z)

(* Spread charges [lo, hi) into [grid], in particle order. Both kernels
   visit a stencil point only if its squared distance, summed from the
   per-axis squares as (x + y) + z, is at most [r_max2]: a spherical cut of
   the (2s + 1)^3 cube. Per point that is one compare and, here, one
   multiply-add; no closure, no boxed float, no [Vec3]. *)
let spread_range t st grid charges (positions : Vec3.t array) lo hi =
  let nx = t.nx and nxy = t.nx * t.ny in
  let ax = st.ax and ay = st.ay and az = st.az in
  let r_max2 = t.r_max2 in
  for i = lo to hi - 1 do
    let q = charges.(i) in
    if q <> 0. then begin
      fill t st positions.(i);
      let qn = q *. t.norm in
      for kz = 0 to 2 * t.sz do
        let dz2 = az.d2.(kz) and wz = qn *. az.e.(kz) in
        let bz = nxy * az.idx.(kz) in
        for ky = 0 to 2 * t.sy do
          let dy2 = ay.d2.(ky) and wyz = wz *. ay.e.(ky) in
          let byz = bz + (nx * ay.idx.(ky)) in
          for kx = 0 to 2 * t.sx do
            if ax.d2.(kx) +. dy2 +. dz2 <= r_max2 then begin
              let g = byz + ax.idx.(kx) in
              grid.(g) <- grid.(g) +. (wyz *. ax.e.(kx))
            end
          done
        done
      done
    end
  done

(* Gather forces on charges [lo, hi) from the potential grid [phi]:
   F_i = q_i [scale] sum_g phi_g (r_i - r_g) gauss_g / norm. Each stencil
   row along x is summed first (phi e_x and phi e_x dx), then weighted by
   its y and z factors. *)
let gather_range t st phi charges (positions : Vec3.t array)
    (forces : Vec3.t array) ~scale lo hi =
  let nx = t.nx and nxy = t.nx * t.ny in
  let ax = st.ax and ay = st.ay and az = st.az in
  let r_max2 = t.r_max2 in
  for i = lo to hi - 1 do
    let q = charges.(i) in
    if q <> 0. then begin
      fill t st positions.(i);
      let fx = ref 0. and fy = ref 0. and fz = ref 0. in
      for kz = 0 to 2 * t.sz do
        let dz2 = az.d2.(kz) and ez = az.e.(kz) and dz = az.d.(kz) in
        let bz = nxy * az.idx.(kz) in
        for ky = 0 to 2 * t.sy do
          let dy2 = ay.d2.(ky) and dy = ay.d.(ky) in
          let eyz = ay.e.(ky) *. ez in
          let byz = bz + (nx * ay.idx.(ky)) in
          let s0 = ref 0. and s1 = ref 0. in
          for kx = 0 to 2 * t.sx do
            if ax.d2.(kx) +. dy2 +. dz2 <= r_max2 then begin
              let v = phi.(byz + ax.idx.(kx)) *. ax.e.(kx) in
              s0 := !s0 +. v;
              s1 := !s1 +. (v *. ax.d.(kx))
            end
          done;
          let w = eyz *. !s0 in
          fx := !fx +. (eyz *. !s1);
          fy := !fy +. (w *. dy);
          fz := !fz +. (w *. dz)
        done
      done;
      let c = q *. scale in
      let f = forces.(i) in
      forces.(i) <-
        {
          Vec3.x = f.Vec3.x +. (c *. !fx);
          y = f.Vec3.y +. (c *. !fy);
          z = f.Vec3.z +. (c *. !fz);
        }
    end
  done

let now () = Unix.gettimeofday ()

(* Charge [sel]'s phase bucket with the wall time of [f ()]. *)
let timed phases sel f =
  match phases with
  | None -> f ()
  | Some ph ->
      let t0 = now () in
      let r = f () in
      sel ph (now () -. t0);
      r

(* Fixed-shape pairwise tree over the per-slot spread grids at one grid
   point — same recursion shape as Bonded's per-atom force reduction, so
   the combined charge density is deterministic regardless of which domain
   produced which partial grid. The sum of slots [lo, hi) is left in
   [stack.(d)]; partial sums travel through [stack] rather than as return
   values, so no float is boxed. [stack] needs one entry per tree level
   plus one. *)
let rec tree_cell stack d grids g lo hi =
  if hi - lo = 1 then stack.(d) <- grids.(lo).(g)
  else begin
    let mid = lo + ((hi - lo) / 2) in
    tree_cell stack d grids g lo mid;
    tree_cell stack (d + 1) grids g mid hi;
    stack.(d) <- stack.(d) +. stack.(d + 1)
  end

(* The private spread grids, one per slot at two or more slots, reused
   across steps; none at one slot. *)
let scratch_grids t ns =
  let total = t.nx * t.ny * t.nz in
  let ns = if ns = 1 then 0 else ns in
  if Array.length t.scratch <> ns
     || (ns > 0 && Array.length t.scratch.(0) <> total)
  then t.scratch <- Array.init ns (fun _ -> Array.make total 0.);
  t.scratch

let stencils t ns =
  if Array.length t.stencils <> ns then begin
    let axis s =
      let w = (2 * s) + 1 in
      {
        idx = Array.make w 0;
        d = Array.make w 0.;
        d2 = Array.make w 0.;
        e = Array.make w 0.;
      }
    in
    t.stencils <-
      Array.init ns (fun _ -> { ax = axis t.sx; ay = axis t.sy; az = axis t.sz })
  end;
  t.stencils

(* 1. Spread charges: each slot spreads its contiguous particle tile, in
   particle order, into its grid — [re] itself at one slot, a private
   scratch grid at two or more — then the private grids are combined
   point-wise into [re] with the fixed-shape tree, itself tiled over the
   pool. At one slot the combine has nothing to fold. *)
let spread ~exec t sts charges positions re =
  let n = Array.length positions in
  let partials = scratch_grids t (Exec.n_slots exec) in
  let np = Array.length partials in
  let grids = if np = 0 then [| re |] else partials in
  (* The racing surface is the particle partition. *)
  Exec.sweep ~phase:"gse.spread" ~reads:[ "state.positions" ]
    ~writes:[ "gse.spread" ] exec ~total:n (fun s lo hi ->
      let grid = grids.(s) in
      Array.fill grid 0 (Array.length grid) 0.;
      spread_range t sts.(s) grid charges positions lo hi);
  (* The tree combine reads every slot's partial grid, i.e. the whole
     particle footprint the spread phase declared. *)
  Exec.sweep ~phase:"gse.combine" ~writes:[ "gse.grid_combine" ]
    ~whole:[ ("gse.spread", n) ] exec ~total:(t.nx * t.ny * t.nz)
    (fun _ lo hi ->
      if np > 0 then begin
        let stack = Array.make (np + 1) 0. in
        for g = lo to hi - 1 do
          tree_cell stack 0 partials g 0 np;
          re.(g) <- stack.(0)
        done
      end)

let reciprocal ?(exec = Exec.serial) ?phases t charges positions
    (acc : Mdsp_ff.Bonded.accum) =
  let n = Array.length positions in
  let ns = Exec.n_slots exec in
  let total = t.nx * t.ny * t.nz in
  let re = t.re and im = t.im in
  let sts = stencils t ns in
  Array.fill im 0 total 0.;
  (* 1. Spread charges onto the grid. *)
  timed phases
    (fun p d -> p.spread_s <- p.spread_s +. d)
    (fun () -> spread ~exec t sts charges positions re);
  (* 2. Forward transform to k-space. *)
  timed phases
    (fun p d -> p.fft_s <- p.fft_s +. d)
    (fun () -> Fft.fft_3d ~exec ~sign:(-1) ~nx:t.nx ~ny:t.ny ~nz:t.nz re im);
  let vol = Pbc.volume t.box in
  let cell_vol = vol /. float_of_int total in
  (* Energy = 1/(2V) sum_k Ghat |rho_hat|^2 with rho_hat = cell_vol * DFT. *)
  let e_scale = cell_vol *. cell_vol /. (2. *. vol) *. Units.coulomb in
  let inv_2b2 = 1. /. (2. *. t.beta_ *. t.beta_) in
  (* 3. Convolve: scale each mode by Ghat and accumulate per-slot energy
     and virial partials over contiguous k tiles, combined with the
     fixed-shape tree so the parallel sum is deterministic. *)
  let energy, virial =
    timed phases
      (fun p d -> p.convolve_s <- p.convolve_s +. d)
      (fun () ->
        let e_slot = Array.make ns 0. and w_slot = Array.make ns 0. in
        Exec.sweep ~phase:"gse.convolve" ~reads:[ "gse.convolve" ]
          ~writes:[ "gse.convolve" ] exec ~total (fun s lo hi ->
            let energy = ref 0. and virial = ref 0. in
            for k = lo to hi - 1 do
              let s2 = (re.(k) *. re.(k)) +. (im.(k) *. im.(k)) in
              let e_k = t.ghat.(k) *. s2 in
              energy := !energy +. e_k;
              (* The total k-space kernel equals Ewald's, so the reciprocal
                 virial takes the same per-mode form:
                 W_k = E_k (1 - k^2 / (2 beta^2)). *)
              virial := !virial +. (e_k *. (1. -. (t.k2s.(k) *. inv_2b2)));
              re.(k) <- re.(k) *. t.ghat.(k);
              im.(k) <- im.(k) *. t.ghat.(k)
            done;
            e_slot.(s) <- !energy;
            w_slot.(s) <- !virial);
        (Exec.sum_tree e_slot, Exec.sum_tree w_slot))
  in
  acc.Mdsp_ff.Bonded.virial <-
    acc.Mdsp_ff.Bonded.virial +. (virial *. e_scale);
  let energy = energy *. e_scale in
  (* 4. Back-transform to the potential grid: phi = (1/N) * IDFT scaled. *)
  timed phases
    (fun p d -> p.fft_s <- p.fft_s +. d)
    (fun () -> Fft.fft_3d ~exec ~sign:1 ~nx:t.nx ~ny:t.ny ~nz:t.nz re im);
  let phi_scale = cell_vol /. vol in
  (* phi(r_g) = (cell_vol / V) * Finv[Ghat * F[rho]]_g  (= (1/N) * ... ). *)
  timed phases
    (fun p d -> p.convolve_s <- p.convolve_s +. d)
    (fun () ->
      Exec.sweep ~phase:"gse.phi_scale" ~reads:[ "gse.phi_scale" ]
        ~writes:[ "gse.phi_scale" ] exec ~total (fun _ lo hi ->
          for k = lo to hi - 1 do
            re.(k) <- re.(k) *. phi_scale
          done));
  (* 5. Gather forces: F_i = q_i cell_vol / sigma^2 *
        sum_g phi_g (r_i - r_g) gauss. Particles are tiled over the pool;
     each slot writes only its own particles' force entries, so no scratch
     accumulators or reduction are needed and the per-particle arithmetic
     is identical to serial. *)
  let scale =
    cell_vol /. (t.sigma *. t.sigma) *. Units.coulomb *. t.norm
  in
  timed phases
    (fun p d -> p.gather_s <- p.gather_s +. d)
    (fun () ->
      (* Each slot accumulates into its own particles' force entries
         (same-slot read-modify-write) and reads their positions; the
         support stencil strides the whole potential grid. *)
      Exec.sweep ~phase:"gse.gather" ~reads:[ "gse.gather"; "state.positions" ]
        ~writes:[ "gse.gather" ] ~whole:[ ("gse.grid", total) ] exec ~total:n
        (fun s lo hi ->
          gather_range t sts.(s) re charges positions acc.forces ~scale lo hi));
  energy
