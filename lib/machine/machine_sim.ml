open Mdsp_util

type result = {
  forces : Vec3.t array;
  energy : float;
  pairs_per_node : int array;
  saturations : int;
}

let reduction_depth ~nodes:(px, py, pz) =
  let rec go d m = if m <= 1 then d else go (d + 1) ((m + 1) / 2) in
  go 0 (px * py * pz)

let compute ?(format = Fixed.force_format) ~nodes ts ~types ~charges ~cutoff
    box nlist positions =
  let n = Array.length positions in
  let decomp = Decomp.create box ~nodes ~cutoff in
  let n_nodes = Decomp.node_count decomp in
  (* Assign each pair to the node owning its first atom (the simplified
     ownership rule; any deterministic rule preserves the property). *)
  let pairs = Mdsp_space.Neighbor_list.pairs nlist in
  let node_pairs = Array.make n_nodes [] in
  Array.iter
    (fun (i, j) ->
      let node = Decomp.owner decomp positions.(i) in
      node_pairs.(node) <- (i, j) :: node_pairs.(node))
    pairs;
  (* Per-node fixed-point accumulation; the energy in the widened
     whole-system format. *)
  let fmt, efmt = Htis.formats_used ~format () in
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
  let pairs_per_node = Array.make n_nodes 0 in
  let rc2 = cutoff *. cutoff in
  let partials =
    Array.mapi
      (fun node plist ->
        pairs_per_node.(node) <- List.length plist;
        (* Node-local accumulators. *)
        let fx = Array.make n 0L in
        let fy = Array.make n 0L in
        let fz = Array.make n 0L in
        let e_acc = ref 0L in
        List.iter
          (fun (i, j) ->
            let d = Pbc.min_image box positions.(i) positions.(j) in
            let r2 = Vec3.norm2 d in
            if r2 < rc2 then begin
              let e, f_over_r =
                let e_lj, f_lj =
                  Interp_table.eval ts.Htis.lj.(types.(i)).(types.(j)) r2
                in
                match ts.Htis.electrostatic with
                | None -> (e_lj, f_lj)
                | Some es ->
                    let qq = Units.coulomb *. charges.(i) *. charges.(j) in
                    if qq = 0. then (e_lj, f_lj)
                    else begin
                      let e_es, f_es = Interp_table.eval es r2 in
                      (e_lj +. (qq *. e_es), f_lj +. (qq *. f_es))
                    end
              in
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
          plist;
        (fx, fy, fz, e_acc))
      node_pairs
  in
  (* "Network reduction": combine node partials pairwise in a fixed-shape
     binary tree, still in fixed point — the torus reduction the certifier
     bounds level by level. Exact adds make the shape irrelevant to the
     result; the tree matches how the hardware actually combines them. *)
  let stride = ref 1 in
  while !stride < n_nodes do
    let i = ref 0 in
    while !i + !stride < n_nodes do
      let fx, fy, fz, e = partials.(!i) in
      let gx, gy, gz, e' = partials.(!i + !stride) in
      for a = 0 to n - 1 do
        fx.(a) <- acc fmt fx.(a) gx.(a);
        fy.(a) <- acc fmt fy.(a) gy.(a);
        fz.(a) <- acc fmt fz.(a) gz.(a)
      done;
      e := acc efmt !e !e';
      i := !i + (2 * !stride)
    done;
    stride := 2 * !stride
  done;
  let totals_x, totals_y, totals_z, total_e = partials.(0) in
  let forces =
    Array.init n (fun i ->
        Vec3.make
          (Fixed.to_float fmt totals_x.(i))
          (Fixed.to_float fmt totals_y.(i))
          (Fixed.to_float fmt totals_z.(i)))
  in
  {
    forces;
    energy = Fixed.to_float efmt !total_e;
    pairs_per_node;
    saturations = !sats;
  }

let imbalance r =
  let n = Array.length r.pairs_per_node in
  if n = 0 then 1.
  else begin
    let total = Array.fold_left ( + ) 0 r.pairs_per_node in
    let mean = float_of_int total /. float_of_int n in
    if mean = 0. then 1.
    else
      float_of_int (Array.fold_left max 0 r.pairs_per_node) /. mean
  end
