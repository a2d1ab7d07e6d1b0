open Mdsp_util

type hill = { center : float array; height : float }

type t = {
  cvs : Cv.t array;
  sigmas : float array;
  w0 : float;  (** initial hill height *)
  stride : int;
  well_tempered : float option;  (** delta T for well-tempered scaling *)
  temp : float;
  mutable hills : hill list;  (** newest first *)
  mutable n_hills : int;
  (* Scratch of one hill sum: the CV point, one hill's scaled offsets d_k,
     and the running dV/ds_k. *)
  s : float array;
  d : float array;
  g : float array;
}

let create ?well_tempered ~cvs ~sigmas ~height ~stride ~temp () =
  let k = Array.length cvs in
  if k = 0 then invalid_arg "Metadynamics.create: no CV";
  if Array.length sigmas <> k then
    invalid_arg "Metadynamics.create: one sigma per CV";
  if Array.exists (fun s -> s <= 0.) sigmas then
    invalid_arg "Metadynamics.create: sigma must be positive";
  if height <= 0. then
    invalid_arg "Metadynamics.create: height must be positive";
  if stride <= 0 then
    invalid_arg "Metadynamics.create: stride must be positive";
  {
    cvs;
    sigmas = Array.copy sigmas;
    w0 = height;
    stride;
    well_tempered;
    temp;
    hills = [];
    n_hills = 0;
    s = Array.make k 0.;
    d = Array.make k 0.;
    g = Array.make k 0.;
  }

(* The bias at CV point [s], one pass over the hills in list order; with
   [grad], dV/ds_k is left in [t.g]. The loop keeps its sums in locals and
   scratch, so it allocates nothing per hill. *)
let hill_sum t s ~grad =
  let k = Array.length t.sigmas in
  if grad then Array.fill t.g 0 k 0.;
  let e = ref 0. and rest = ref t.hills in
  while !rest != [] do
    match !rest with
    | [] -> ()
    | h :: tl ->
        rest := tl;
        let q = ref 0. in
        for c = 0 to k - 1 do
          let d = (s.(c) -. h.center.(c)) /. t.sigmas.(c) in
          t.d.(c) <- d;
          q := !q +. (d *. d)
        done;
        let w = h.height *. exp (-0.5 *. !q) in
        e := !e +. w;
        if grad then
          for c = 0 to k - 1 do
            t.g.(c) <- t.g.(c) +. (w *. (-.t.d.(c) /. t.sigmas.(c)))
          done
  done;
  !e

let bias_energy t s =
  if Array.length s <> Array.length t.cvs then
    invalid_arg "Metadynamics.bias_energy: one value per CV";
  hill_sum t s ~grad:false

let bias t =
  {
    Mdsp_md.Force_calc.bias_name = "metadynamics";
    bias_compute =
      (fun box positions acc ->
        Array.iteri (fun c cv -> t.s.(c) <- cv.Cv.value box positions) t.cvs;
        let e = hill_sum t t.s ~grad:true in
        (* Force on the atoms: -dV/ds_k * ds_k/dr, CV by CV. *)
        Array.iteri
          (fun c cv ->
            let de_ds = t.g.(c) in
            List.iter
              (fun (i, g) ->
                acc.Mdsp_ff.Bonded.forces.(i) <-
                  Vec3.add acc.Mdsp_ff.Bonded.forces.(i)
                    (Vec3.scale (-.de_ds) g))
              (cv.Cv.gradient box positions))
          t.cvs;
        e);
  }

let deposit t center =
  let height =
    match t.well_tempered with
    | None -> t.w0
    | Some delta_t ->
        (* Well-tempered: heights decay where bias has accumulated. *)
        t.w0 *. exp (-.bias_energy t center /. (Units.k_b *. delta_t))
  in
  t.hills <- { center; height } :: t.hills;
  t.n_hills <- t.n_hills + 1

let attach t eng =
  Mdsp_md.Force_calc.add_bias (Mdsp_md.Engine.force_calc eng) (bias t);
  Mdsp_md.Engine.add_post_step eng ~name:"metadynamics" (fun eng ->
      if Mdsp_md.Engine.steps_done eng mod t.stride = 0 then begin
        let st = Mdsp_md.Engine.state eng in
        deposit t
          (Array.map
             (fun cv ->
               cv.Cv.value st.Mdsp_md.State.box st.Mdsp_md.State.positions)
             t.cvs)
      end)

let n_hills t = t.n_hills

let require t k fn =
  if Array.length t.cvs <> k then
    invalid_arg (Printf.sprintf "Metadynamics.%s: needs %d CV(s)" fn k)

let scale t =
  match t.well_tempered with
  | None -> 1.
  | Some delta_t -> (t.temp +. delta_t) /. delta_t

let free_energy_estimate t ~lo ~hi ~bins =
  require t 1 "free_energy_estimate";
  let width = (hi -. lo) /. float_of_int bins in
  let sc = scale t in
  Array.init bins (fun b ->
      let s = lo +. ((float_of_int b +. 0.5) *. width) in
      (s, -.sc *. bias_energy t [| s |]))

let free_energy_surface t ~lo1 ~hi1 ~bins1 ~lo2 ~hi2 ~bins2 =
  require t 2 "free_energy_surface";
  let w1 = (hi1 -. lo1) /. float_of_int bins1 in
  let w2 = (hi2 -. lo2) /. float_of_int bins2 in
  let sc = scale t in
  Array.init bins1 (fun a ->
      let s1 = lo1 +. ((float_of_int a +. 0.5) *. w1) in
      Array.init bins2 (fun b ->
          let s2 = lo2 +. ((float_of_int b +. 0.5) *. w2) in
          (s1, s2, -.sc *. bias_energy t [| s1; s2 |])))

let ridge_path t ~lo1 ~hi1 ~bins1 ~lo2 ~hi2 ~bins2 =
  require t 2 "ridge_path";
  let surface = free_energy_surface t ~lo1 ~hi1 ~bins1 ~lo2 ~hi2 ~bins2 in
  Array.map
    (fun column ->
      let s1, _, _ = column.(0) in
      let best =
        Array.fold_left
          (fun (bs2, bf) (_, s2, f) -> if f < bf then (s2, f) else (bs2, bf))
          (0., infinity) column
      in
      (s1, fst best))
    surface

(* Machine mapping: hill evaluation runs on the programmable cores. Cost
   grows with the hill count unless hills are binned onto a grid; we model
   the (standard) gridded implementation with constant cost per CV. *)
let flex_ops_per_step t =
  Array.fold_left (fun a cv -> a +. cv.Cv.flex_ops) 0. t.cvs
  +. (100. *. float_of_int (Array.length t.cvs + 1))
