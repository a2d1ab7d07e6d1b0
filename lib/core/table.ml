open Mdsp_util

type radial = float -> float * float

let of_form ?(shift = true) form ~cutoff =
  let offset = if shift then Mdsp_ff.Nonbonded.shift_at form cutoff else 0. in
  fun r2 ->
    let e, f = Mdsp_ff.Nonbonded.eval form r2 in
    (e -. offset, f)

let compile ~r_min ~r_cut ~n ?(quantize = true) f =
  if n <= 0 then invalid_arg "Table.compile: n must be positive";
  let s0 = r_min *. r_min and s1 = r_cut *. r_cut in
  let width = (s1 -. s0) /. float_of_int n in
  (* Knot values: energy, f_over_r, and their derivatives with respect to
     squared distance. dU/d(r^2) = -f_over_r / 2 exactly; the f_over_r
     derivative is taken by central differences. *)
  let knots = n + 1 in
  let e_v = Array.make knots 0. in
  let g_v = Array.make knots 0. in
  let g_d = Array.make knots 0. in
  for k = 0 to knots - 1 do
    let s = s0 +. (float_of_int k *. width) in
    let e, g = f s in
    e_v.(k) <- e;
    g_v.(k) <- g;
    let h = Float.max (width *. 1e-4) (s *. 1e-7) in
    let sm = Float.max (s0 *. 0.5 +. 1e-12) (s -. h) in
    let sp = s +. h in
    let _, gm = f sm in
    let _, gp = f sp in
    g_d.(k) <- (gp -. gm) /. (sp -. sm)
  done;
  let energy_coeffs =
    Array.init n (fun i ->
        Poly.hermite_cubic ~x0:0. ~x1:width ~f0:e_v.(i) ~f1:e_v.(i + 1)
          ~d0:(-.g_v.(i) /. 2.) ~d1:(-.g_v.(i + 1) /. 2.))
  in
  let force_coeffs =
    Array.init n (fun i ->
        Poly.hermite_cubic ~x0:0. ~x1:width ~f0:g_v.(i) ~f1:g_v.(i + 1)
          ~d0:g_d.(i) ~d1:g_d.(i + 1))
  in
  Mdsp_machine.Interp_table.make ~r_min ~r_cut ~n ~quantize ~energy_coeffs
    ~force_coeffs ()

type error_report = {
  max_abs_energy : float;
  max_abs_force : float;
  max_rel_force : float;
  rms_force : float;
  samples : int;
}

let accuracy table f ?(samples = 20_000) () =
  let r_min = Mdsp_machine.Interp_table.r_min table in
  let r_cut = Mdsp_machine.Interp_table.r_cut table in
  let s0 = r_min *. r_min and s1 = r_cut *. r_cut in
  (* Typical force scale over the domain, used as the relative-error
     floor so that the error at zero crossings stays meaningful. *)
  let floor_scale =
    let acc = ref 0. in
    for k = 0 to 99 do
      let s = s0 +. ((s1 -. s0) *. (float_of_int k +. 0.5) /. 100.) in
      let _, g = f s in
      acc := !acc +. abs_float g
    done;
    Float.max (!acc /. 100. *. 1e-3) 1e-12
  in
  let max_e = ref 0. and max_f = ref 0. and max_rel = ref 0. in
  let sum_f2 = ref 0. in
  for k = 0 to samples - 1 do
    (* Stay strictly inside the domain; the last interval's right edge is
       the cutoff where the table returns zero by construction. *)
    let s = s0 +. ((s1 -. s0) *. (float_of_int k +. 0.5) /. float_of_int samples) in
    let e_ref, g_ref = f s in
    let e_tab, g_tab = Mdsp_machine.Interp_table.eval table s in
    let de = abs_float (e_tab -. e_ref) in
    let dg = abs_float (g_tab -. g_ref) in
    if de > !max_e then max_e := de;
    if dg > !max_f then max_f := dg;
    let rel = dg /. Float.max (abs_float g_ref) floor_scale in
    if rel > !max_rel then max_rel := rel;
    sum_f2 := !sum_f2 +. (dg *. dg)
  done;
  {
    max_abs_energy = !max_e;
    max_abs_force = !max_f;
    max_rel_force = !max_rel;
    rms_force = sqrt (!sum_f2 /. float_of_int samples);
    samples;
  }

let width_for_accuracy ~r_min ~r_cut ~target f =
  let rec go n =
    if n > 65536 then None
    else begin
      let t = compile ~r_min ~r_cut ~n f in
      let rep = accuracy t f ~samples:4096 () in
      if rep.max_rel_force <= target then Some n else go (n * 2)
    end
  in
  go 64

let table_set_of_topology (topo : Mdsp_ff.Topology.t) ~cutoff ~elec ~n
    ?(quantize = true) () =
  let ntypes = Array.length topo.lj_types in
  let r_min = 0.8 in
  let lj =
    Array.init ntypes (fun i ->
        Array.init ntypes (fun j ->
            let form =
              Mdsp_ff.Nonbonded.lorentz_berthelot topo.lj_types.(i)
                topo.lj_types.(j)
            in
            compile ~r_min ~r_cut:cutoff ~n ~quantize
              (of_form form ~cutoff)))
  in
  let electrostatic =
    let shape =
      match elec with
      | Mdsp_ff.Pair_interactions.No_coulomb -> None
      | Cutoff_coulomb ->
          Some
            (fun r2 ->
              let r = sqrt r2 in
              ((1. /. r) -. (1. /. cutoff), 1. /. (r2 *. r)))
      | Reaction_field { epsilon_rf } ->
          let krf =
            (epsilon_rf -. 1.)
            /. ((2. *. epsilon_rf) +. 1.)
            /. (cutoff ** 3.)
          in
          let crf = (1. /. cutoff) +. (krf *. cutoff *. cutoff) in
          Some
            (fun r2 ->
              let r = sqrt r2 in
              ( (1. /. r) +. (krf *. r2) -. crf,
                (1. /. (r2 *. r)) -. (2. *. krf) ))
      | Ewald_real { beta } ->
          Some
            (fun r2 ->
              let e, f =
                Mdsp_ff.Nonbonded.eval
                  (Mdsp_ff.Nonbonded.Coulomb_erfc { qq = 1.; beta })
                  r2
              in
              (e, f))
    in
    Option.map (fun s -> compile ~r_min ~r_cut:cutoff ~n ~quantize s) shape
  in
  { Mdsp_machine.Htis.lj; electrostatic }

let machine_evaluator (ev : Mdsp_ff.Pair_interactions.evaluator) =
  match ev.analytic with
  | None ->
      failwith
        "Table.machine_evaluator: the evaluator records no analytic form \
         (tables, FEP and custom evaluators cannot be recompiled)"
  | Some { topo; elec; _ } ->
      let cutoff = ev.cutoff in
      let ts = table_set_of_topology topo ~cutoff ~elec ~n:2048 () in
      let types =
        Array.map (fun (a : Mdsp_ff.Topology.atom) -> a.type_id) topo.atoms
      in
      Mdsp_machine.Htis.evaluator ts ~types
        ~charges:(Mdsp_ff.Topology.charges topo) ~cutoff
