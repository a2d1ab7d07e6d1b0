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

(* One node's fixed-point accumulators: per-atom force components in
   [fmt], the energy in [efmt], and the clamps they hit. *)
type accum = {
  fmt : Fixed.format;
  efmt : Fixed.format;
  ax : int64 array;
  ay : int64 array;
  az : int64 array;
  mutable e : int64;
  mutable sats : int;
}

let make_accum ?format n =
  let fmt, efmt = formats_used ?format () in
  let z () = Array.make n 0L in
  { fmt; efmt; ax = z (); ay = z (); az = z (); e = 0L; sats = 0 }

let conv a f x =
  let v, s = Fixed.of_float_checked f x in
  if s then a.sats <- a.sats + 1;
  v

let add a f x y =
  let v, s = Fixed.add_checked f x y in
  if s then a.sats <- a.sats + 1;
  v

let add_pair ts ~types ~charges ~cutoff box positions a i j =
  let d = Pbc.min_image box positions.(i) positions.(j) in
  let r2 = Vec3.norm2 d in
  if r2 < cutoff *. cutoff then begin
    let e, f_over_r = eval_pair ts types charges i j r2 in
    (* The pipeline emits the pair force; accumulation is exact fixed
       point, hence order-independent. *)
    let fmt = a.fmt in
    let gx = conv a fmt (f_over_r *. d.Vec3.x) in
    let gy = conv a fmt (f_over_r *. d.Vec3.y) in
    let gz = conv a fmt (f_over_r *. d.Vec3.z) in
    a.ax.(i) <- add a fmt a.ax.(i) gx;
    a.ay.(i) <- add a fmt a.ay.(i) gy;
    a.az.(i) <- add a fmt a.az.(i) gz;
    a.ax.(j) <- add a fmt a.ax.(j) (Int64.neg gx);
    a.ay.(j) <- add a fmt a.ay.(j) (Int64.neg gy);
    a.az.(j) <- add a fmt a.az.(j) (Int64.neg gz);
    a.e <- add a a.efmt a.e (conv a a.efmt e)
  end

let merge ~into b =
  let fmt = into.fmt in
  for k = 0 to Array.length into.ax - 1 do
    into.ax.(k) <- add into fmt into.ax.(k) b.ax.(k);
    into.ay.(k) <- add into fmt into.ay.(k) b.ay.(k);
    into.az.(k) <- add into fmt into.az.(k) b.az.(k)
  done;
  into.e <- add into into.efmt into.e b.e;
  into.sats <- into.sats + b.sats

let totals a =
  let fmt = a.fmt in
  {
    forces =
      Array.init (Array.length a.ax) (fun i ->
          Vec3.make
            (Fixed.to_float fmt a.ax.(i))
            (Fixed.to_float fmt a.ay.(i))
            (Fixed.to_float fmt a.az.(i)));
    energy = Fixed.to_float a.efmt a.e;
    saturations = a.sats;
  }

let compute_forces ?perm ?format ts ~types ~charges ~cutoff box nlist
    positions =
  let a = make_accum ?format (Array.length positions) in
  let pairs = Mdsp_space.Neighbor_list.pairs nlist in
  let order =
    match perm with
    | Some p ->
        if Array.length p <> Array.length pairs then
          invalid_arg "Htis.compute_forces: permutation length mismatch";
        p
    | None -> Array.init (Array.length pairs) Fun.id
  in
  Array.iter
    (fun k ->
      let i, j = pairs.(k) in
      add_pair ts ~types ~charges ~cutoff box positions a i j)
    order;
  totals a

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
