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

let compute ?format ~nodes ts ~types ~charges ~cutoff
    box nlist positions =
  let n = Array.length positions in
  let decomp = Decomp.create box ~nodes ~cutoff in
  let n_nodes = Decomp.node_count decomp in
  (* Assign each pair to the node owning its first atom (the simplified
     ownership rule; any deterministic rule preserves the property). *)
  let is, js = Mdsp_space.Neighbor_list.raw_pairs nlist in
  let node_pairs = Array.make n_nodes [] in
  for k = 0 to Mdsp_space.Neighbor_list.length nlist - 1 do
    let node = Decomp.owner decomp positions.(is.(k)) in
    node_pairs.(node) <- k :: node_pairs.(node)
  done;
  (* Per-node fixed-point accumulation, the energy in the widened
     whole-system format. *)
  let pairs_per_node = Array.make n_nodes 0 in
  let partials =
    Array.mapi
      (fun node plist ->
        pairs_per_node.(node) <- List.length plist;
        let a = Htis.make_accum ?format n in
        List.iter
          (fun k ->
            Htis.add_pair ts ~types ~charges ~cutoff box positions a is.(k)
              js.(k))
          plist;
        a)
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
      Htis.merge ~into:partials.(!i) partials.(!i + !stride);
      i := !i + (2 * !stride)
    done;
    stride := 2 * !stride
  done;
  let r = Htis.totals partials.(0) in
  {
    forces = r.Htis.forces;
    energy = r.Htis.energy;
    pairs_per_node;
    saturations = r.Htis.saturations;
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
