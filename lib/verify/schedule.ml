open Mdsp_util
module T = Mdsp_ff.Topology

type plan = {
  pl_name : string;
  pl_n_constraints : int;
  pl_units : T.cluster array;
}

(* The list the SHAKE/RATTLE sweeps run, read off the solver itself. *)
let plan ~name (topo : T.t) =
  {
    pl_name = name;
    pl_n_constraints = Array.length topo.constraints;
    pl_units = Mdsp_md.Constraints.(clusters (create topo));
  }

type certificate = {
  crt_proper : bool;
  crt_once : bool;
  crt_disjoint : bool;
  crt_slots : int list;
  crt_violations : string list;
}

let cert_ok c = c.crt_proper && c.crt_once && c.crt_disjoint

(* [claims p ~key ~clash] hands each atom to the first unit whose
   footprint holds it, under that unit's [key] (its own id, or its slot);
   a later unit under another key that holds the atom too is reported as
   [clash atom k0 k]. One atom -> key map, linear in the footprints. *)
let claims p ~key ~clash =
  let owner = Hashtbl.create 1024 in
  Array.iteri
    (fun u unit_ ->
      let k = key u in
      Array.iter
        (fun a ->
          match Hashtbl.find_opt owner a with
          | Some k0 when k0 <> k -> clash a k0 k
          | Some _ -> ()
          | None -> Hashtbl.add owner a k)
        unit_.T.cl_atoms)
    p.pl_units

(* The certificate re-derives everything from the units' atom footprints —
   it never trusts the fusion step that produced them. *)
let certify ?(slots = [ 1; 2; 4 ]) p =
  let violations = ref [] in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* Proper: no atom belongs to two units — one atom -> unit map. *)
  let proper = ref true in
  claims p ~key:Fun.id ~clash:(fun atom u0 u ->
      proper := false;
      note "units %d and %d share atom %d" u0 u atom);
  (* Exactly-once cover: the units partition the constraint set. *)
  let seen = Array.make p.pl_n_constraints 0 in
  let in_range = ref true in
  Array.iteri
    (fun u unit_ ->
      Array.iter
        (fun k ->
          if k < 0 || k >= p.pl_n_constraints then begin
            in_range := false;
            note "unit %d names constraint %d outside the topology" u k
          end
          else seen.(k) <- seen.(k) + 1)
        unit_.T.cl_constraints)
    p.pl_units;
  let once = ref !in_range in
  Array.iteri
    (fun k c ->
      if c <> 1 then begin
        once := false;
        note "constraint %d scheduled %d times" k c
      end)
    seen;
  (* Slot disjointness: tile the unit list the way the solver will at
     every slot count and demand the tiles' atom footprints (read and
     written alike — SHAKE/RATTLE read-modify-write their cluster atoms)
     never intersect across slots. *)
  let disjoint = ref true in
  List.iter
    (fun nslots ->
      let tiles =
        Exec.tile_bounds ~total:(Array.length p.pl_units) ~ntiles:nslots
      in
      let slot_of = Array.make (Array.length p.pl_units) 0 in
      Array.iteri
        (fun s (lo, hi) -> Array.fill slot_of lo (hi - lo) s)
        tiles;
      claims p
        ~key:(fun u -> slot_of.(u))
        ~clash:(fun atom s0 s ->
          disjoint := false;
          note "at %d slots: atom %d touched by slots %d and %d" nslots atom
            s0 s))
    slots;
  {
    crt_proper = !proper;
    crt_once = !once;
    crt_disjoint = !disjoint;
    crt_slots = slots;
    crt_violations = List.rev !violations;
  }

(* A plan the certifier must reject: two single-constraint units sharing
   atom 1. Exercises both the proper and (from 2 slots up) the
   slot-disjointness branches. *)
let seed_conflict_plan () =
  {
    pl_name = "seeded-conflict";
    pl_n_constraints = 2;
    pl_units =
      [|
        { T.cl_constraints = [| 0 |]; cl_atoms = [| 0; 1 |] };
        { T.cl_constraints = [| 1 |]; cl_atoms = [| 1; 2 |] };
      |];
  }

type report = {
  rp_name : string;
  rp_n_constraints : int;
  rp_n_clusters : int;
  rp_max_cluster : int;  (* constraints in the largest cluster *)
  rp_max_cluster_atoms : int;
  rp_cert : certificate;
  rp_env_ok : bool;
  rp_env_notes : string list;
}

let report_ok r = cert_ok r.rp_cert && r.rp_env_ok

(* Registered constraint envelopes (ROADMAP maintenance rule): the largest
   cluster a workload is allowed to have. A bigger cluster after a
   topology change is a schedule regression the gate should catch,
   exactly like the pair-budget pins in [Check]. *)
type envelope = {
  env_name : string;
  env_topo : unit -> T.t;
  env_max_cluster_size : int;
}

let builtin_envelopes () =
  [
    {
      env_name = "water6k";
      env_topo =
        (fun () ->
          (Mdsp_workload.Workloads.water_box ~n_side:13 ())
            .Mdsp_workload.Workloads.topo);
      (* Rigid SPC/E water: 3 constraints per molecule, fused into one
         3-atom cluster. *)
      env_max_cluster_size = 3;
    };
    {
      env_name = "chain10k";
      env_topo =
        (fun () ->
          (Mdsp_workload.Workloads.bead_chain ~n_beads:256 ~n_total:10_000 ())
            .Mdsp_workload.Workloads.topo);
      (* Flexible chain + solvent: no constraints at all — the certificate
         is the (exactly-once, vacuously proper) empty schedule. *)
      env_max_cluster_size = 0;
    };
  ]

let report_of_plan ?slots ?(env : envelope option) p =
  let cert = certify ?slots p in
  let max_cluster =
    Array.fold_left
      (fun acc u -> max acc (Array.length u.T.cl_constraints))
      0 p.pl_units
  in
  let max_cluster_atoms =
    Array.fold_left
      (fun acc u -> max acc (Array.length u.T.cl_atoms))
      0 p.pl_units
  in
  let env_notes =
    match env with
    | Some e when max_cluster > e.env_max_cluster_size ->
        [
          Printf.sprintf
            "largest cluster has %d constraints, envelope allows %d"
            max_cluster e.env_max_cluster_size;
        ]
    | _ -> []
  in
  {
    rp_name = p.pl_name;
    rp_n_constraints = p.pl_n_constraints;
    rp_n_clusters = Array.length p.pl_units;
    rp_max_cluster = max_cluster;
    rp_max_cluster_atoms = max_cluster_atoms;
    rp_cert = cert;
    rp_env_ok = env_notes = [];
    rp_env_notes = env_notes;
  }

let run ?slots ?(seed_conflict = false) () =
  let reports =
    List.map
      (fun e ->
        let p = plan ~name:e.env_name (e.env_topo ()) in
        report_of_plan ?slots ~env:e p)
      (builtin_envelopes ())
  in
  if seed_conflict then
    reports @ [ report_of_plan ?slots (seed_conflict_plan ()) ]
  else reports

let ok reports = List.for_all report_ok reports

let pp_report fmt r =
  Format.fprintf fmt
    "constraints %s: %d constraints, %d clusters (max %d cons / %d atoms): \
     %s@,"
    r.rp_name r.rp_n_constraints r.rp_n_clusters r.rp_max_cluster
    r.rp_max_cluster_atoms
    (if report_ok r then "certified"
     else "FAILED " ^ String.concat "; " (r.rp_cert.crt_violations @ r.rp_env_notes));
  if not (cert_ok r.rp_cert) then
    List.iter
      (fun v -> Format.fprintf fmt "  %s@," v)
      r.rp_cert.crt_violations

let json_rows reports =
  ("constraints.ok", ok reports)
  :: List.concat_map
       (fun r ->
         [
           (Printf.sprintf "constraints.%s.ok" r.rp_name, report_ok r);
           (Printf.sprintf "constraints.%s.proper" r.rp_name,
            r.rp_cert.crt_proper);
           (Printf.sprintf "constraints.%s.once" r.rp_name, r.rp_cert.crt_once);
           (Printf.sprintf "constraints.%s.disjoint" r.rp_name,
            r.rp_cert.crt_disjoint);
           (Printf.sprintf "constraints.%s.envelope" r.rp_name, r.rp_env_ok);
         ])
       reports
