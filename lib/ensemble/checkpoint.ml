open Mdsp_util
module E = Mdsp_md.Engine
module State = Mdsp_md.State
module FC = Mdsp_md.Force_calc
module Remd = Mdsp_core.Remd

(* Version 2 adds a provenance line ("preset <name>", "-" when unrecorded)
   and makes the exchange section optional ("remd none"), so the same
   format checkpoints REMD ladders, single-engine service jobs and
   `mdsp run`. Version 1 files (no preset line, exchange section
   mandatory) still load. *)
let header_v2 = "mdsp-ensemble-checkpoint 2"
let header_v1 = "mdsp-ensemble-checkpoint 1"

let write_rng oc (r : Rng.snapshot) =
  Printf.fprintf oc "%Ld %Ld %Ld %Ld %.17g %d" r.Rng.sn_s0 r.Rng.sn_s1
    r.Rng.sn_s2 r.Rng.sn_s3 r.Rng.sn_cached_gauss
    (if r.Rng.sn_has_gauss then 1 else 0)

(* The codec: snapshots to text and back. Only [save] and [resume] below
   reach it, so the engines are the one way in and out. *)
let write ?preset path ?remd (engines : E.snapshot array) =
  Atomic_file.write path (fun oc ->
      Printf.fprintf oc "%s\n" header_v2;
      Printf.fprintf oc "preset %s\n"
        (match preset with Some p when p <> "" -> p | _ -> "-");
      Printf.fprintf oc "replicas %d\n" (Array.length engines);
      (match remd with
      | None -> output_string oc "remd none\n"
      | Some (remd : Remd.snapshot) ->
          let npairs = Array.length remd.Remd.snap_attempts in
          Printf.fprintf oc "remd sweep %d pairs %d\n" remd.Remd.snap_sweep
            npairs;
          for i = 0 to npairs - 1 do
            Printf.fprintf oc "pair %d %d " remd.Remd.snap_attempts.(i)
              remd.Remd.snap_accepts.(i);
            write_rng oc remd.Remd.snap_rngs.(i);
            output_char oc '\n'
          done;
          output_string oc "config";
          Array.iter (fun c -> Printf.fprintf oc " %d" c) remd.Remd.snap_config;
          output_char oc '\n');
      Array.iteri
        (fun i (s : E.snapshot) ->
          let st = s.E.snap_state in
          let n = State.n st in
          Printf.fprintf oc "replica %d\n" i;
          Printf.fprintf oc "steps %d\n" s.E.snap_steps;
          Printf.fprintf oc "temperature %.17g\n" s.E.snap_temperature;
          output_string oc "rng ";
          write_rng oc s.E.snap_rng;
          output_char oc '\n';
          (match s.E.snap_nhc with
          | None -> output_string oc "nhc none\n"
          | Some (v1, v2) -> Printf.fprintf oc "nhc %.17g %.17g\n" v1 v2);
          let acc, tries = s.E.snap_mc_baro in
          Printf.fprintf oc "mc_baro %d %d\n" acc tries;
          let e = s.E.snap_energies in
          Printf.fprintf oc
            "energies %.17g %.17g %.17g %.17g %.17g %.17g %.17g\n" e.FC.bond
            e.FC.angle e.FC.dihedral e.FC.pair e.FC.recip e.FC.correction
            e.FC.bias;
          Printf.fprintf oc "virial %.17g\n" s.E.snap_virial;
          Printf.fprintf oc "atoms %d\n" n;
          Printf.fprintf oc "box %.17g %.17g %.17g\n" st.State.box.Pbc.lx
            st.State.box.Pbc.ly st.State.box.Pbc.lz;
          Printf.fprintf oc "time %.17g\n" st.State.time;
          Printf.fprintf oc "nlist_box %.17g %.17g %.17g\n"
            s.E.snap_nlist_box.Pbc.lx s.E.snap_nlist_box.Pbc.ly
            s.E.snap_nlist_box.Pbc.lz;
          for a = 0 to n - 1 do
            let p = st.State.positions.(a)
            and v = st.State.velocities.(a)
            and f = s.E.snap_forces.(a)
            and r = s.E.snap_nlist_ref.(a) in
            Printf.fprintf oc
              "%.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g \
               %.17g %.17g %.17g\n"
              st.State.masses.(a) p.Vec3.x p.Vec3.y p.Vec3.z v.Vec3.x
              v.Vec3.y v.Vec3.z f.Vec3.x f.Vec3.y f.Vec3.z r.Vec3.x r.Vec3.y
              r.Vec3.z
          done)
        engines)

(* Parses the whole file, checking it against the engines it will resume,
   before anything is restored: a torn or mismatched file leaves every
   engine as it was. *)
let read ?expect_preset path ~ladder (engines : E.t array) =
  let ic =
    try open_in path
    with Sys_error m ->
      failwith (Printf.sprintf "checkpoint %s: cannot open (%s)" path m)
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let lineno = ref 0 in
  let fail msg =
    failwith (Printf.sprintf "checkpoint %s, line %d: %s" path !lineno msg)
  in
  let truncated () = fail "truncated (unexpected end of file)" in
  let line () =
    incr lineno;
    try input_line ic with
    | End_of_file -> truncated ()
    | Sys_error m -> fail m
  in
  (* A line that ends early is a torn write, the same as a missing line. *)
  let parse l fmt f =
    try Scanf.sscanf l fmt f with
    | End_of_file -> truncated ()
    | Scanf.Scan_failure m | Failure m | Invalid_argument m -> fail m
  in
  let scan fmt f = parse (line ()) fmt f in
  let read_rng s0 s1 s2 s3 g h =
    {
      Rng.sn_s0 = s0;
      sn_s1 = s1;
      sn_s2 = s2;
      sn_s3 = s3;
      sn_cached_gauss = g;
      sn_has_gauss = h <> 0;
    }
  in
  let version =
    match line () with
    | h when h = header_v2 -> 2
    | h when h = header_v1 -> 1
    | _ -> fail "bad header (not an mdsp checkpoint)"
  in
  let preset =
    if version < 2 then None
    else
      match scan "preset %s" Fun.id with "-" -> None | p -> Some p
  in
  (match (expect_preset, preset) with
  | Some want, Some got when want <> got ->
      fail
        (Printf.sprintf "checkpoint was written for preset %S, not %S" got
           want)
  | _ -> ());
  let m = scan "replicas %d" Fun.id in
  if m <> Array.length engines then
    fail
      (Printf.sprintf "checkpoint holds %d replicas, not %d" m
         (Array.length engines));
  let remd =
    let l = line () in
    if version >= 2 && l = "remd none" then None
    else
      let sweep, npairs =
        parse l "remd sweep %d pairs %d" (fun a b -> (a, b))
      in
      if npairs < 0 || npairs <> m - 1 then
        fail (Printf.sprintf "%d exchange pairs for %d replicas" npairs m);
      let attempts = Array.make npairs 0 in
      let accepts = Array.make npairs 0 in
      let rngs = Array.make npairs (Rng.snapshot (Rng.create 0)) in
      for i = 0 to npairs - 1 do
        scan "pair %d %d %Ld %Ld %Ld %Ld %f %d"
          (fun at ac s0 s1 s2 s3 g h ->
            attempts.(i) <- at;
            accepts.(i) <- ac;
            rngs.(i) <- read_rng s0 s1 s2 s3 g h)
      done;
      let config =
        match String.split_on_char ' ' (String.trim (line ())) with
        | "config" :: rest -> (
            try Array.of_list (List.map int_of_string rest)
            with Failure m -> fail m)
        | _ -> fail "expected config line"
      in
      if Array.length config <> m then
        fail
          (Printf.sprintf "config lists %d rungs for %d replicas"
             (Array.length config) m);
      Some
        {
          Remd.snap_sweep = sweep;
          snap_attempts = attempts;
          snap_accepts = accepts;
          snap_config = config;
          snap_rngs = rngs;
        }
  in
  if ladder && remd = None then
    fail
      "no exchange section (a single-engine checkpoint cannot resume a \
       replica-exchange ladder)";
  let snaps =
    Array.mapi
      (fun i eng ->
        let j = scan "replica %d" Fun.id in
        if j <> i then fail (Printf.sprintf "expected replica %d" i);
        let steps = scan "steps %d" Fun.id in
        let temperature = scan "temperature %f" Fun.id in
        let rng = scan "rng %Ld %Ld %Ld %Ld %f %d" read_rng in
        let nhc =
          let l = line () in
          if l = "nhc none" then None
          else parse l "nhc %f %f" (fun a b -> Some (a, b))
        in
        let mc_baro = scan "mc_baro %d %d" (fun a b -> (a, b)) in
        let energies =
          scan "energies %f %f %f %f %f %f %f"
            (fun bond angle dihedral pair recip correction bias ->
              {
                FC.bond;
                angle;
                dihedral;
                pair;
                recip;
                correction;
                bias;
              })
        in
        let virial = scan "virial %f" Fun.id in
        let n = scan "atoms %d" Fun.id in
        let want = State.n (E.state eng) in
        if n <> want then
          fail
            (Printf.sprintf "replica %d has %d atoms but its engine has %d" i
               n want);
        let box =
          scan "box %f %f %f" (fun lx ly lz -> Pbc.make ~lx ~ly ~lz)
        in
        let time = scan "time %f" Fun.id in
        let nlist_box =
          scan "nlist_box %f %f %f" (fun lx ly lz -> Pbc.make ~lx ~ly ~lz)
        in
        let masses = Array.make n 0. in
        let positions = Array.make n Vec3.zero in
        let velocities = Array.make n Vec3.zero in
        let forces = Array.make n Vec3.zero in
        let nlist_ref = Array.make n Vec3.zero in
        for a = 0 to n - 1 do
          scan " %f %f %f %f %f %f %f %f %f %f %f %f %f"
            (fun ms px py pz vx vy vz fx fy fz rx ry rz ->
              masses.(a) <- ms;
              positions.(a) <- Vec3.make px py pz;
              velocities.(a) <- Vec3.make vx vy vz;
              forces.(a) <- Vec3.make fx fy fz;
              nlist_ref.(a) <- Vec3.make rx ry rz)
        done;
        let st = State.create ~positions ~masses ~box in
        Array.blit velocities 0 st.State.velocities 0 n;
        st.State.time <- time;
        {
          E.snap_state = st;
          snap_steps = steps;
          snap_temperature = temperature;
          snap_rng = rng;
          snap_nhc = nhc;
          snap_mc_baro = mc_baro;
          snap_energies = energies;
          snap_forces = forces;
          snap_virial = virial;
          snap_nlist_box = nlist_box;
          snap_nlist_ref = nlist_ref;
        })
      engines
  in
  (remd, snaps)

let save ?preset path ?remd engines =
  write ?preset path
    ?remd:(Option.map Remd.snapshot remd)
    (Array.map E.snapshot engines)

let resume ?expect_preset path ?remd engines =
  let remd_snap, snaps =
    read ?expect_preset path ~ladder:(Option.is_some remd) engines
  in
  Array.iteri (fun i s -> E.restore engines.(i) s) snaps;
  match (remd, remd_snap) with
  | Some ladder, Some s -> Remd.restore ladder s
  | _ -> ()
