open Mdsp_util

type kvec = { kx : float; ky : float; kz : float; a : float; k2 : float }

type t = {
  beta_ : float;
  kmax : int;
  kvecs : kvec array;
  volume : float;
  box : Pbc.t;
}

let create ~beta ~kmax box =
  if beta <= 0. then invalid_arg "Ewald.create: beta must be positive";
  if kmax < 1 then invalid_arg "Ewald.create: kmax must be >= 1";
  let open Pbc in
  let volume = Pbc.volume box in
  let two_pi = 2. *. Float.pi in
  let acc = ref [] in
  let kmax2 = kmax * kmax in
  for nx = -kmax to kmax do
    for ny = -kmax to kmax do
      for nz = -kmax to kmax do
        let n2 = (nx * nx) + (ny * ny) + (nz * nz) in
        if n2 > 0 && n2 <= kmax2 then begin
          let kx = two_pi *. float_of_int nx /. box.lx in
          let ky = two_pi *. float_of_int ny /. box.ly in
          let kz = two_pi *. float_of_int nz /. box.lz in
          let k2 = (kx *. kx) +. (ky *. ky) +. (kz *. kz) in
          let a = exp (-.k2 /. (4. *. beta *. beta)) /. k2 in
          acc := { kx; ky; kz; a; k2 } :: !acc
        end
      done
    done
  done;
  { beta_ = beta; kmax; kvecs = Array.of_list !acc; volume; box }

let with_box t box = create ~beta:t.beta_ ~kmax:t.kmax box
let beta t = t.beta_
let box t = t.box
let k_count t = Array.length t.kvecs

let reciprocal t charges positions (acc : Mdsp_ff.Bonded.accum) =
  let n = Array.length positions in
  let pref = 2. *. Float.pi /. t.volume *. Units.coulomb in
  let energy = ref 0. in
  let cos_k = Array.make n 0. and sin_k = Array.make n 0. in
  Array.iter
    (fun kv ->
      let re = ref 0. and im = ref 0. in
      for i = 0 to n - 1 do
        let p = positions.(i) in
        let phase =
          (kv.kx *. p.Vec3.x) +. (kv.ky *. p.Vec3.y) +. (kv.kz *. p.Vec3.z)
        in
        let c = cos phase and s = sin phase in
        cos_k.(i) <- c;
        sin_k.(i) <- s;
        re := !re +. (charges.(i) *. c);
        im := !im +. (charges.(i) *. s)
      done;
      let s2 = (!re *. !re) +. (!im *. !im) in
      let e_k = pref *. kv.a *. s2 in
      energy := !energy +. e_k;
      (* Scalar virial of this k term. *)
      acc.virial <-
        acc.virial
        +. (e_k *. (1. -. (kv.k2 /. (2. *. t.beta_ *. t.beta_))));
      let fpref = 2. *. pref *. kv.a in
      for i = 0 to n - 1 do
        let coeff =
          fpref *. charges.(i) *. ((sin_k.(i) *. !re) -. (cos_k.(i) *. !im))
        in
        acc.forces.(i) <-
          Vec3.add acc.forces.(i)
            (Vec3.make (coeff *. kv.kx) (coeff *. kv.ky) (coeff *. kv.kz))
      done)
    t.kvecs;
  !energy

let self_energy t charges =
  let sum_q2 = Array.fold_left (fun a q -> a +. (q *. q)) 0. charges in
  -.t.beta_ /. sqrt Float.pi *. sum_q2 *. Units.coulomb

let excluded_correction t box charges positions exclusions
    (acc : Mdsp_ff.Bonded.accum) =
  let two_over_sqrt_pi = 2. /. sqrt Float.pi in
  let energy = ref 0. in
  List.iter
    (fun (i, j) ->
      let d = Pbc.min_image box positions.(i) positions.(j) in
      let r2 = Vec3.norm2 d in
      let r = sqrt r2 in
      let qq = Units.coulomb *. charges.(i) *. charges.(j) in
      let erf_br = Specfun.erf (t.beta_ *. r) in
      let e = qq *. erf_br /. r in
      energy := !energy -. e;
      (* Remove the reciprocal-space force between the excluded pair. *)
      let f_over_r =
        qq
        *. ((erf_br /. r)
           -. (two_over_sqrt_pi *. t.beta_ *. exp (-.t.beta_ *. t.beta_ *. r2))
           )
        /. r2
      in
      let f = Vec3.scale (-.f_over_r) d in
      acc.forces.(i) <- Vec3.add acc.forces.(i) f;
      acc.forces.(j) <- Vec3.sub acc.forces.(j) f;
      acc.virial <- acc.virial +. Vec3.dot f d)
    (Mdsp_space.Exclusions.pairs exclusions);
  !energy

let total_reference t box charges positions =
  let n = Array.length positions in
  let acc = Mdsp_ff.Bonded.make_accum n in
  let e_rec = reciprocal t charges positions acc in
  let e_self = self_energy t charges in
  (* Real-space sum over periodic images (shells of +-2 boxes), including
     interactions of each charge with its own images. The shell range is
     adequate down to beta * L >= ~2.5; smaller beta values converge too
     slowly in real space to be useful anyway. *)
  let open Pbc in
  let e_real = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let qq = Units.coulomb *. charges.(i) *. charges.(j) in
      for nx = -2 to 2 do
        for ny = -2 to 2 do
          for nz = -2 to 2 do
            let skip = i = j && nx = 0 && ny = 0 && nz = 0 in
            if not skip then begin
              let d = Vec3.sub positions.(i) positions.(j) in
              let dx = d.Vec3.x +. (float_of_int nx *. box.lx) in
              let dy = d.Vec3.y +. (float_of_int ny *. box.ly) in
              let dz = d.Vec3.z +. (float_of_int nz *. box.lz) in
              let r = sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz)) in
              (* Half weight: the double loop counts each pair twice. *)
              e_real :=
                !e_real +. (0.5 *. qq *. Specfun.erfc (t.beta_ *. r) /. r)
            end
          done
        done
      done
    done
  done;
  e_rec +. e_self +. !e_real
