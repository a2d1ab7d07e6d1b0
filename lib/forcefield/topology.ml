type atom = { mass : float; charge : float; type_id : int; name : string }
type bond = { i : int; j : int; k : float; r0 : float }
type angle = { i : int; j : int; k : int; k_theta : float; theta0 : float }

type dihedral = {
  i : int;
  j : int;
  k : int;
  l : int;
  k_phi : float;
  mult : int;
  phase : float;
}

type improper = {
  ii : int;
  ij : int;
  ik : int;
  il : int;
  k_xi : float;
  xi0 : float;
}

type constraint_ = { ci : int; cj : int; dist : float }

type virtual_site = { vs : int; vparents : (int * float) array }

type t = {
  atoms : atom array;
  bonds : bond array;
  angles : angle array;
  dihedrals : dihedral array;
  impropers : improper array;
  constraints : constraint_ array;
  virtual_sites : virtual_site array;
  exclusions : Mdsp_space.Exclusions.t;
  pairs14 : (int * int) array;
  scale14_lj : float;
  scale14_coul : float;
  lj_types : (float * float) array;
}

let n_atoms t = Array.length t.atoms
let masses t = Array.map (fun a -> a.mass) t.atoms
let charges t = Array.map (fun a -> a.charge) t.atoms
let n_constraints t = Array.length t.constraints
let n_virtual_sites t = Array.length t.virtual_sites

let is_virtual t i =
  Array.exists (fun v -> v.vs = i) t.virtual_sites

let dof t =
  max 1 ((3 * (n_atoms t - n_virtual_sites t)) - n_constraints t - 3)

type cluster = { cl_constraints : int array; cl_atoms : int array }

let constraint_clusters t =
  let nc = Array.length t.constraints in
  (* Union-find over constraint indices, keyed by shared atoms. Union by
     minimum root, so every component's root is its smallest constraint
     index and the cluster order below is the topology order. *)
  let parent = Array.init nc Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(max ri rj) <- min ri rj
  in
  let first_on = Hashtbl.create 64 in
  Array.iteri
    (fun k (c : constraint_) ->
      List.iter
        (fun a ->
          match Hashtbl.find_opt first_on a with
          | Some k0 -> union k0 k
          | None -> Hashtbl.add first_on a k)
        [ c.ci; c.cj ])
    t.constraints;
  let members = Hashtbl.create 64 in
  for k = nc - 1 downto 0 do
    let r = find k in
    let tl = try Hashtbl.find members r with Not_found -> [] in
    Hashtbl.replace members r (k :: tl)
  done;
  let roots = ref [] in
  for k = nc - 1 downto 0 do
    if find k = k then roots := k :: !roots
  done;
  Array.of_list
    (List.map
       (fun r ->
         let ks = Array.of_list (Hashtbl.find members r) in
         let atoms = Hashtbl.create 8 in
         Array.iter
           (fun k ->
             let c = t.constraints.(k) in
             Hashtbl.replace atoms c.ci ();
             Hashtbl.replace atoms c.cj ())
           ks;
         let al = Hashtbl.fold (fun a () acc -> a :: acc) atoms [] in
         let aa = Array.of_list al in
         Array.sort compare aa;
         { cl_constraints = ks; cl_atoms = aa })
       !roots)

module Builder = struct
  type topo = t

  type t = {
    mutable atoms : atom list;
    mutable n : int;
    mutable bonds : bond list;
    mutable angles : angle list;
    mutable dihedrals : dihedral list;
    mutable impropers : improper list;
    mutable constraints : constraint_ list;
    mutable virtual_sites : virtual_site list;
    mutable lj_types : (float * float) array;
    mutable scale14_lj : float;
    mutable scale14_coul : float;
  }

  let create () =
    {
      atoms = [];
      n = 0;
      bonds = [];
      angles = [];
      dihedrals = [];
      impropers = [];
      constraints = [];
      virtual_sites = [];
      lj_types = [||];
      scale14_lj = 0.;
      scale14_coul = 0.;
    }

  let add_atom t ~mass ~charge ~type_id ~name =
    if mass <= 0. then invalid_arg "Topology.add_atom: mass must be positive";
    t.atoms <- { mass; charge; type_id; name } :: t.atoms;
    let idx = t.n in
    t.n <- t.n + 1;
    idx

  let check t idx label =
    if idx < 0 || idx >= t.n then
      invalid_arg (Printf.sprintf "Topology.%s: atom index out of range" label)

  let add_bond t ~i ~j ~k ~r0 =
    check t i "add_bond";
    check t j "add_bond";
    if i = j then invalid_arg "Topology.add_bond: self bond";
    t.bonds <- { i; j; k; r0 } :: t.bonds

  let add_angle t ~i ~j ~k ~k_theta ~theta0 =
    check t i "add_angle";
    check t j "add_angle";
    check t k "add_angle";
    t.angles <- { i; j; k; k_theta; theta0 } :: t.angles

  let add_dihedral t ~i ~j ~k ~l ~k_phi ~mult ~phase =
    check t i "add_dihedral";
    check t l "add_dihedral";
    t.dihedrals <- { i; j; k; l; k_phi; mult; phase } :: t.dihedrals

  let add_improper t ~i ~j ~k ~l ~k_xi ~xi0 =
    check t i "add_improper";
    check t j "add_improper";
    check t k "add_improper";
    check t l "add_improper";
    t.impropers <- { ii = i; ij = j; ik = k; il = l; k_xi; xi0 } :: t.impropers

  let add_constraint t ~i ~j ~dist =
    check t i "add_constraint";
    check t j "add_constraint";
    if i = j then invalid_arg "Topology.add_constraint: self constraint";
    if dist <= 0. then invalid_arg "Topology.add_constraint: distance";
    t.constraints <- { ci = i; cj = j; dist } :: t.constraints

  let add_virtual_site t ~site ~parents =
    check t site "add_virtual_site";
    if Array.length parents = 0 then
      invalid_arg "Topology.add_virtual_site: needs at least one parent";
    Array.iter
      (fun (p, _) ->
        check t p "add_virtual_site";
        if p = site then
          invalid_arg "Topology.add_virtual_site: site cannot parent itself")
      parents;
    let wsum = Array.fold_left (fun a (_, w) -> a +. w) 0. parents in
    if abs_float (wsum -. 1.) > 1e-9 then
      invalid_arg "Topology.add_virtual_site: weights must sum to 1";
    t.virtual_sites <- { vs = site; vparents = parents } :: t.virtual_sites

  let set_lj_types t types = t.lj_types <- types

  let set_scale14 t ~lj ~coul =
    if lj < 0. || coul < 0. then
      invalid_arg "Topology.set_scale14: scales must be nonnegative";
    t.scale14_lj <- lj;
    t.scale14_coul <- coul

  let finish ?(exclude_through = 3) t =
    let atoms = Array.of_list (List.rev t.atoms) in
    (* Validate type ids against the LJ table. *)
    Array.iter
      (fun a ->
        if a.type_id < 0 || a.type_id >= Array.length t.lj_types then
          invalid_arg "Topology.finish: atom type_id outside lj_types table")
      atoms;
    let bond_edges =
      List.map (fun (b : bond) -> (b.i, b.j)) t.bonds
      @ List.map (fun c -> (c.ci, c.cj)) t.constraints
      (* A virtual site shares its parents' exclusions: treat the
         site-parent relation as a bond for exclusion purposes. *)
      @ List.concat_map
          (fun v -> Array.to_list (Array.map (fun (p, _) -> (v.vs, p)) v.vparents))
          t.virtual_sites
    in
    let exclusions =
      Mdsp_space.Exclusions.from_bonds ~n:t.n ~bonds:bond_edges
        ~through:exclude_through
    in
    (* 1-4 pairs: exactly three bonds apart in the covalent graph
       (constraints and virtual-site parent links do not define 1-4s). *)
    let pairs14 =
      if exclude_through < 3 then [||]
      else begin
        let graph = Array.make t.n [] in
        List.iter
          (fun (b : bond) ->
            graph.(b.i) <- b.j :: graph.(b.i);
            graph.(b.j) <- b.i :: graph.(b.j))
          t.bonds;
        let acc = ref [] in
        for i = 0 to t.n - 1 do
          let dist = Hashtbl.create 16 in
          Hashtbl.add dist i 0;
          let frontier = ref [ i ] in
          for d = 1 to 3 do
            let next = ref [] in
            List.iter
              (fun u ->
                List.iter
                  (fun v ->
                    if not (Hashtbl.mem dist v) then begin
                      Hashtbl.add dist v d;
                      next := v :: !next;
                      if d = 3 && v > i then acc := (i, v) :: !acc
                    end)
                  graph.(u))
              !frontier;
            frontier := !next
          done
        done;
        Array.of_list (List.rev !acc)
      end
    in
    {
      atoms;
      bonds = Array.of_list (List.rev t.bonds);
      angles = Array.of_list (List.rev t.angles);
      dihedrals = Array.of_list (List.rev t.dihedrals);
      impropers = Array.of_list (List.rev t.impropers);
      constraints = Array.of_list (List.rev t.constraints);
      virtual_sites = Array.of_list (List.rev t.virtual_sites);
      exclusions;
      pairs14;
      scale14_lj = t.scale14_lj;
      scale14_coul = t.scale14_coul;
      lj_types = t.lj_types;
    }
end
