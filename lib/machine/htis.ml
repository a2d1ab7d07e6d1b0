open Mdsp_util

type table_set = {
  lj : Interp_table.t array array;
  electrostatic : Interp_table.t option;
}

let eval_pair ts types charges i j r2 =
  let e_lj, f_lj = Interp_table.eval ts.lj.(types.(i)).(types.(j)) r2 in
  match ts.electrostatic with
  | None -> (e_lj, f_lj)
  | Some es ->
      let qq = Units.coulomb *. charges.(i) *. charges.(j) in
      if qq = 0. then (e_lj, f_lj)
      else begin
        let e_es, f_es = Interp_table.eval es r2 in
        (e_lj +. (qq *. e_es), f_lj +. (qq *. f_es))
      end

let evaluator ts ~types ~charges ~cutoff =
  Mdsp_ff.Pair_interactions.of_eval ~cutoff (fun i j r2 ->
      eval_pair ts types charges i j r2)

type result = {
  forces : Vec3.t array;
  energy : float;
  saturations : int;
}

let formats_used ?(format = Fixed.force_format) () = (format, Fixed.widen format)

let compute_forces ?perm ?(format = Fixed.force_format) ts ~types ~charges
    ~cutoff box nlist positions =
  let n = Array.length positions in
  let fmt, efmt = formats_used ~format () in
  (* Per-atom, per-component fixed-point accumulators. *)
  let fx = Array.make n 0L in
  let fy = Array.make n 0L in
  let fz = Array.make n 0L in
  let e_acc = ref 0L in
  let sats = ref 0 in
  let conv f x =
    let v, s = Fixed.of_float_checked f x in
    if s then incr sats;
    v
  in
  let acc f a b =
    let v, s = Fixed.add_checked f a b in
    if s then incr sats;
    v
  in
  let pairs = Mdsp_space.Neighbor_list.pairs nlist in
  let order =
    match perm with
    | Some p ->
        if Array.length p <> Array.length pairs then
          invalid_arg "Htis.compute_forces: permutation length mismatch";
        p
    | None -> Array.init (Array.length pairs) Fun.id
  in
  let rc2 = cutoff *. cutoff in
  Array.iter
    (fun k ->
      let i, j = pairs.(k) in
      let d = Pbc.min_image box positions.(i) positions.(j) in
      let r2 = Vec3.norm2 d in
      if r2 < rc2 then begin
        let e, f_over_r = eval_pair ts types charges i j r2 in
        (* The pipeline emits the pair force; accumulation is exact fixed
           point, hence order-independent. *)
        let gx = conv fmt (f_over_r *. d.Vec3.x) in
        let gy = conv fmt (f_over_r *. d.Vec3.y) in
        let gz = conv fmt (f_over_r *. d.Vec3.z) in
        fx.(i) <- acc fmt fx.(i) gx;
        fy.(i) <- acc fmt fy.(i) gy;
        fz.(i) <- acc fmt fz.(i) gz;
        fx.(j) <- acc fmt fx.(j) (Int64.neg gx);
        fy.(j) <- acc fmt fy.(j) (Int64.neg gy);
        fz.(j) <- acc fmt fz.(j) (Int64.neg gz);
        e_acc := acc efmt !e_acc (conv efmt e)
      end)
    order;
  let forces =
    Array.init n (fun i ->
        Vec3.make
          (Fixed.to_float fmt fx.(i))
          (Fixed.to_float fmt fy.(i))
          (Fixed.to_float fmt fz.(i)))
  in
  { forces; energy = Fixed.to_float efmt !e_acc; saturations = !sats }

let cycles cfg ~pairs =
  float_of_int pairs
  /. (float_of_int cfg.Config.ppips_per_node *. cfg.Config.ppip_pairs_per_cycle)

let table_set_bytes ts =
  let lj =
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc t -> acc + Interp_table.sram_bytes t)
          acc row)
      0 ts.lj
  in
  let es =
    match ts.electrostatic with
    | None -> 0
    | Some t -> Interp_table.sram_bytes t
  in
  lj + es

let tables_fit cfg ts = table_set_bytes ts <= cfg.Config.table_sram_bytes
