open Mdsp_core
module K = Kernel

(* Kernel inputs are bounded by a box comfortably larger than any
   registered workload's: a proof over this env covers the shipped runs. *)
let kernel_box = Mdsp_util.Pbc.cubic 24.

(* The double-well workload biases, re-expressed in the kernel DSL with the
   parameter values the workloads use — so the interval pass covers the
   biases even though Workloads implements them as plain closures. *)
let dsl_double_well_x () =
  let open! K in
  create ~name:"double_well_x"
    ~energy:
      ((Param "barrier" * sq (sq (X / Param "half_width") - c 1.))
      + (Param "k_yz" * (sq Y + sq Z)))
    ~particles:[| 0 |]
    ~params:[ ("barrier", 1.0); ("half_width", 4.0); ("k_yz", 1.0) ]

let dsl_double_well_2d () =
  let open! K in
  let xa = X / Param "half_width" in
  let dy = Y - (Param "bow" * (c 1. - sq xa)) in
  create ~name:"double_well_2d"
    ~energy:
      ((Param "barrier" * sq (sq xa - c 1.))
      + (Param "ky" * sq dy)
      + (Param "kz" * sq Z))
    ~particles:[| 0 |]
    ~params:
      [
        ("barrier", 1.0);
        ("half_width", 4.0);
        ("bow", 2.0);
        ("ky", 1.0);
        ("kz", 2.0);
      ]

let builtin_kernels () =
  [
    Restraints.position ~name:"position_restraint" ~particles:[| 0 |] ~k:10.
      ~reference:(Mdsp_util.Vec3.make 1. 2. 3.);
    Restraints.flat_bottom ~name:"flat_bottom" ~particles:[| 0 |] ~k:5.
      ~radius:8.;
    dsl_double_well_x ();
    dsl_double_well_2d ();
  ]

let hazardous_kernel () =
  let open! K in
  create ~name:"seeded_hazard"
    ~energy:((Param "a" / X) + Log X)
    ~particles:[| 0 |]
    ~params:[ ("a", 1.0) ]

(* --- table registry --- *)

type table_entry = {
  t_name : string;
  min_separation : float option;
  max_rel_force : float option;
  table : Mdsp_machine.Interp_table.t;
  radial : Table.radial;
}

(* The four analytic forms the CLI compiles ([mdsp table]), at the CLI's
   default domain. *)
let cli_tables () =
  let mk t_name form =
    let radial = Table.of_form form ~cutoff:9. in
    {
      t_name;
      min_separation = Some 2.5;
      max_rel_force = None;
      table = Table.compile ~r_min:2. ~r_cut:9. ~n:1024 radial;
      radial;
    }
  in
  [
    mk "lj" (Mdsp_ff.Nonbonded.Lennard_jones { epsilon = 0.238; sigma = 3.405 });
    mk "buckingham"
      (Mdsp_ff.Nonbonded.Buckingham { a = 40000.; b = 3.5; c = 300. });
    mk "gaussian"
      (Mdsp_ff.Nonbonded.Gaussian_repulsion { height = 10.; width = 3. });
    mk "erfc" (Mdsp_ff.Nonbonded.Coulomb_erfc { qq = 332.; beta = 0.35 });
  ]

(* The reaction-field shape Table.table_set_of_topology compiles for the
   electrostatic table (unit charge product; the pipeline multiplies by
   q_i q_j). *)
let rf_radial ~epsilon_rf ~cutoff r2 =
  let krf =
    (epsilon_rf -. 1.) /. ((2. *. epsilon_rf) +. 1.) /. (cutoff ** 3.)
  in
  let crf = (1. /. cutoff) +. (krf *. cutoff *. cutoff) in
  let r = sqrt r2 in
  ((1. /. r) +. (krf *. r2) -. crf, (1. /. (r2 *. r)) -. (2. *. krf))

(* The water pipeline's full table set ([mdsp run --tables]): one LJ table
   per type pair plus the shared reaction-field shape, compiled through the
   real table_set_of_topology path. Closest nonbonded approach in rigid
   water is the intermolecular hydrogen bond at ~1.6 A; 1.5 A is the
   margin the r_min check enforces. *)
let water_tables () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:2 () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let cutoff = 9. and n = 2048 in
  let epsilon_rf = 78.5 in
  let elec = Mdsp_ff.Pair_interactions.Reaction_field { epsilon_rf } in
  let set = Table.table_set_of_topology topo ~cutoff ~elec ~n () in
  let lj_types = topo.Mdsp_ff.Topology.lj_types in
  let ntypes = Array.length lj_types in
  let ljs = ref [] in
  for i = ntypes - 1 downto 0 do
    for j = ntypes - 1 downto i do
      let form =
        Mdsp_ff.Nonbonded.lorentz_berthelot lj_types.(i) lj_types.(j)
      in
      ljs :=
        {
          t_name = Printf.sprintf "water.lj_%d%d" i j;
          min_separation = Some 1.5;
          max_rel_force = None;
          table = set.Mdsp_machine.Htis.lj.(i).(j);
          radial = Table.of_form form ~cutoff;
        }
        :: !ljs
    done
  done;
  let elec_entry =
    match set.Mdsp_machine.Htis.electrostatic with
    | None -> []
    | Some table ->
        [
          {
            t_name = "water.elec_rf";
            min_separation = Some 1.5;
            max_rel_force = None;
            table;
            radial = rf_radial ~epsilon_rf ~cutoff;
          };
        ]
  in
  !ljs @ elec_entry

let builtin_tables () = cli_tables () @ water_tables ()

(* --- datapath envelopes --- *)

(* Static envelope of the water pipeline, matching water_tables above: the
   same topology, cutoff and table resolution, so the certificate covers
   exactly what [mdsp run --tables] executes. max_pairs_per_atom is the
   trivial static budget (every other atom); the shell capacities inside
   Fixed_check tighten it per radius. *)
let water_envelope () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:2 () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let cutoff = 9. and n = 2048 in
  let elec = Mdsp_ff.Pair_interactions.Reaction_field { epsilon_rf = 78.5 } in
  let tables = Table.table_set_of_topology topo ~cutoff ~elec ~n () in
  let n_atoms = Mdsp_ff.Topology.n_atoms topo in
  let max_abs_charge =
    Array.fold_left
      (fun a q -> Float.max a (abs_float q))
      0.
      (Mdsp_ff.Topology.charges topo)
  in
  {
    Fixed_check.env_name = "water";
    n_atoms;
    max_pairs_per_atom = n_atoms - 1;
    (* The box is too small against the cutoff to decompose (the midpoint
       rule needs cutoff <= min_edge / 2), so the per-node budget stays
       the trivial whole-system pair count. *)
    max_pairs_per_node = n_atoms * (n_atoms - 1) / 2;
    min_separation = 1.5;
    max_abs_charge;
    cutoff;
    nodes = (2, 2, 2);
    tables;
    position_extent = 1.0;
  }

(* Macromolecule-scale envelopes: the neighbor budget is not the trivial
   [n_atoms - 1] (useless at 10^4 atoms) but is pinned by the runtime's own
   tiled cell-list build — construct the Verlet list on the generated
   coordinates at the engine's cutoff/skin and take the maximum per-atom
   degree, with headroom (x1.25 + 8) for density fluctuations during
   dynamics. *)
let measured_pair_budget ?(cutoff = 9.) ?(skin = 1.) sys =
  let open Mdsp_workload.Workloads in
  let n = Mdsp_ff.Topology.n_atoms sys.topo in
  let nl =
    Mdsp_space.Neighbor_list.create ~cutoff ~skin sys.box sys.positions
  in
  let deg = Array.make n 0 in
  Mdsp_space.Neighbor_list.iter nl (fun i j ->
      deg.(i) <- deg.(i) + 1;
      deg.(j) <- deg.(j) + 1);
  let max_deg = Array.fold_left max 0 deg in
  max_deg + (max_deg / 4) + 8

(* Per-node pair budget, pinned the same way: run the real midpoint
   decomposition (Mdsp_machine.Decomp) on the generated coordinates at the
   envelope's torus dims and take the busiest node's assigned pair count,
   with headroom (x1.25 + 64) for density fluctuations during dynamics. *)
let measured_node_pair_budget ?(cutoff = 9.) ~nodes sys =
  let open Mdsp_workload.Workloads in
  let d = Mdsp_machine.Decomp.create sys.box ~nodes ~cutoff in
  let stats = Mdsp_machine.Decomp.analyze d sys.positions in
  let m = Mdsp_machine.Decomp.max_pairs_per_node stats in
  m + (m / 4) + 64

let max_abs_charge_of topo =
  Array.fold_left
    (fun a q -> Float.max a (abs_float q))
    0.
    (Mdsp_ff.Topology.charges topo)

(* A large solvated water box (13^3 molecules, 6591 atoms) — the same
   pipeline as [water_envelope] at macromolecule scale, where the measured
   neighbor budget (not the atom count) is what keeps the per-atom
   accumulator provable. *)
let water6k_envelope () =
  let sys = Mdsp_workload.Workloads.water_box ~n_side:13 () in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let cutoff = 9. and n = 2048 in
  let elec = Mdsp_ff.Pair_interactions.Reaction_field { epsilon_rf = 78.5 } in
  let tables = Table.table_set_of_topology topo ~cutoff ~elec ~n () in
  {
    Fixed_check.env_name = "water6k";
    n_atoms = Mdsp_ff.Topology.n_atoms topo;
    max_pairs_per_atom = measured_pair_budget ~cutoff sys;
    max_pairs_per_node = measured_node_pair_budget ~cutoff ~nodes:(4, 4, 4) sys;
    min_separation = 1.5;
    max_abs_charge = max_abs_charge_of topo;
    cutoff;
    nodes = (4, 4, 4);
    tables;
    position_extent = 1.0;
  }

(* A 10^4-atom bead-chain polymer in LJ solvent with reaction-field
   electrostatics. Closest approaches are LJ-core limited (solvent is
   placed >= 3 A from the chain; bead/solvent sigmas are 4.0/3.4 A), so
   2.5 A is the certified floor. *)
let chain10k_envelope () =
  let sys =
    Mdsp_workload.Workloads.bead_chain ~n_beads:256 ~n_total:10_000 ()
  in
  let topo = sys.Mdsp_workload.Workloads.topo in
  let cutoff = 9. and n = 2048 in
  let elec = Mdsp_ff.Pair_interactions.Reaction_field { epsilon_rf = 78.5 } in
  let tables = Table.table_set_of_topology topo ~cutoff ~elec ~n () in
  {
    Fixed_check.env_name = "chain10k";
    n_atoms = Mdsp_ff.Topology.n_atoms topo;
    max_pairs_per_atom = measured_pair_budget ~cutoff sys;
    max_pairs_per_node = measured_node_pair_budget ~cutoff ~nodes:(4, 4, 4) sys;
    min_separation = 2.5;
    max_abs_charge = max_abs_charge_of topo;
    cutoff;
    nodes = (4, 4, 4);
    tables;
    position_extent = 1.0;
  }

let builtin_envelopes () =
  [ water_envelope (); water6k_envelope (); chain10k_envelope () ]

(* A deliberately narrowed force format that the certifier must reject:
   same resolution, not enough integer bits for the per-atom accumulator.
   [mdsp check --seed-narrow] and CI use it to prove the certifier cannot
   be green by accident. *)
let narrow_format =
  { Mdsp_util.Fixed.force_format with Mdsp_util.Fixed.total_bits = 32 }

(* --- the registry run --- *)

type sanitize_result = {
  slots : int;
  phases : string list;
  failure : string option;
}

type summary = {
  kernels : Kernel_check.report list;
  tables : Table_check.report list;
  sanitize : sanitize_result list;
  datapath : Fixed_check.report list;
  phases : Dataflow.report option;
  constraints : Schedule.report list option;
}

let check_one_kernel k =
  let env = Kernel_check.env ~box:kernel_box (K.params k) in
  Kernel_check.check_kernel ~env k

let check_one_table e =
  Table_check.check ~name:e.t_name ?min_separation:e.min_separation
    ?max_rel_force:e.max_rel_force ~table:e.table ~radial:e.radial ()

let sanitize_at slots =
  match Phase_check.run_phases ~slots with
  | phases -> { slots; phases; failure = None }
  | exception Mdsp_util.Exec.Race msg ->
      { slots; phases = []; failure = Some msg }

let run ?(seed_hazard = false) ?(seed_narrow = false) ?(seed_race = false)
    ?(seed_cycle = false) ?(seed_conflict = false) ?(phases = false)
    ?(constraints = false) ?(slots = [ 1; 2; 4 ]) () =
  let ks = builtin_kernels () in
  let ks = if seed_hazard then ks @ [ hazardous_kernel () ] else ks in
  let envs = builtin_envelopes () in
  let datapath = List.map (fun e -> Fixed_check.certify e) envs in
  let datapath =
    if seed_narrow then
      datapath
      @ List.map
          (fun e ->
            let r = Fixed_check.certify ~format:narrow_format e in
            {
              r with
              Fixed_check.workload =
                Printf.sprintf "%s[narrow%d]" r.Fixed_check.workload
                  narrow_format.Mdsp_util.Fixed.total_bits;
            })
          envs
    else datapath
  in
  {
    kernels = List.map check_one_kernel ks;
    tables = List.map check_one_table (builtin_tables ());
    sanitize = List.map sanitize_at slots;
    datapath;
    phases =
      (if phases || seed_race || seed_cycle then
         Some (Dataflow.run ~slots ~seed_race ~seed_cycle ())
       else None);
    constraints =
      (if constraints || seed_conflict then
         Some (Schedule.run ~slots ~seed_conflict ())
       else None);
  }

let ok s =
  List.for_all Kernel_check.report_ok s.kernels
  && List.for_all Table_check.report_ok s.tables
  && List.for_all (fun r -> r.failure = None) s.sanitize
  && List.for_all Fixed_check.proved s.datapath
  && (match s.phases with None -> true | Some r -> Dataflow.ok r)
  && match s.constraints with None -> true | Some rs -> Schedule.ok rs

let pp_summary fmt s =
  Format.fprintf fmt "@[<v>";
  List.iter (Kernel_check.pp_report fmt) s.kernels;
  List.iter (Table_check.pp_report fmt) s.tables;
  List.iter
    (fun r ->
      let slots =
        Printf.sprintf "%d slot%s" r.slots (if r.slots = 1 then "" else "s")
      in
      match r.failure with
      | None ->
          Format.fprintf fmt "sanitize (%s): %d parallel phases race-free@,"
            slots (List.length r.phases)
      | Some msg -> Format.fprintf fmt "sanitize (%s): RACE@,  %s@," slots msg)
    s.sanitize;
  List.iter (Fixed_check.pp_verdict fmt) s.datapath;
  Option.iter (fun r -> Dataflow.pp_report fmt r) s.phases;
  Option.iter (List.iter (Schedule.pp_report fmt)) s.constraints;
  Format.fprintf fmt "verify: %s@]@."
    (if ok s then "all checks passed" else "FAILED")

let to_json s =
  let rows =
    (("verify.ok", ok s)
     ::
     List.map
       (fun (r : Kernel_check.report) ->
         ("kernel." ^ r.Kernel_check.kernel, Kernel_check.report_ok r))
       s.kernels)
    @ List.map
        (fun (r : Table_check.report) ->
          ("table." ^ r.Table_check.table, Table_check.report_ok r))
        s.tables
    @ List.map
        (fun r ->
          (Printf.sprintf "sanitize.slots%d" r.slots, r.failure = None))
        s.sanitize
    @ List.concat_map
        (fun (r : Fixed_check.report) ->
          let w = r.Fixed_check.workload in
          ("datapath." ^ w ^ ".ok", Fixed_check.proved r)
          :: List.map
               (fun name ->
                 ( Printf.sprintf "datapath.%s.%s" w name,
                   Fixed_check.format_ok r name ))
               (Fixed_check.format_names r))
        s.datapath
    @ (match s.phases with None -> [] | Some r -> Dataflow.json_rows r)
    @ (match s.constraints with
      | None -> []
      | Some rs -> Schedule.json_rows rs)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "  %S: %d" k (if v then 1 else 0)))
    rows;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
