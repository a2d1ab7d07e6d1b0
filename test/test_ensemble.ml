(* The ensemble orchestration subsystem: sharded REMD must be bitwise
   identical to the sequential Remd.run path for any slot count, a
   checkpoint -> resume -> continue must equal the uninterrupted run
   exactly (for a ladder and for a single engine), a torn or corrupt
   checkpoint must fail cleanly, tempering walkers must be
   interleaving-independent, and Remd.create must reject malformed
   ladders up front. *)

open Mdsp_util
open Testsupport
module E = Mdsp_md.Engine
module State = Mdsp_md.State
module Remd = Mdsp_core.Remd
module Tempering = Mdsp_core.Tempering
module Shard = Mdsp_ensemble.Shard
module Ensemble = Mdsp_ensemble.Ensemble
module Checkpoint = Mdsp_ensemble.Checkpoint

(* --- fixtures --- *)

let temps = [| 120.; 132.; 145.; 160. |]

(* A fresh, deterministically-seeded REMD ladder of small LJ replicas.
   Reconstructing with the same seeds gives bit-identical engines, which is
   what lets us compare the sequential and sharded runners. *)
let make_ladder ?(stride = 10) () =
  let engines =
    Array.mapi
      (fun i temp ->
        let sys = Mdsp_workload.Workloads.lj_fluid ~n:64 () in
        let cfg =
          {
            E.default_config with
            dt_fs = 2.0;
            temperature = temp;
            thermostat = E.Langevin { gamma_fs = 0.02 };
          }
        in
        Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:(300 + i) sys)
      temps
  in
  Remd.create ~engines ~temps ~stride ~seed:11

let assert_ladders_identical msg a b =
  let ea = Remd.engines a and eb = Remd.engines b in
  check_true (msg ^ ": replica count") (Array.length ea = Array.length eb);
  Array.iteri
    (fun i e ->
      check_true
        (Printf.sprintf "%s: replica %d state bitwise" msg i)
        (State.equal (E.state e) (E.state eb.(i)));
      check_true
        (Printf.sprintf "%s: replica %d potential energy bitwise" msg i)
        (E.potential_energy e = E.potential_energy eb.(i));
      check_true
        (Printf.sprintf "%s: replica %d step counter" msg i)
        (E.steps_done e = E.steps_done eb.(i)))
    ea;
  check_true (msg ^ ": replica_of_config")
    (Remd.replica_of_config a = Remd.replica_of_config b);
  check_true (msg ^ ": attempts") (Remd.attempts a = Remd.attempts b);
  check_true (msg ^ ": accepts") (Remd.accepts a = Remd.accepts b);
  check_true (msg ^ ": sweep counter")
    (Remd.sweeps_done a = Remd.sweeps_done b)

(* --- Remd.create validation --- *)

let expect_invalid msg f =
  let raised = try ignore (f ()); false with Invalid_argument _ -> true in
  check_true msg raised

let two_engines ?(thermostat = E.Langevin { gamma_fs = 0.02 }) () =
  Array.init 2 (fun i ->
      let sys = Mdsp_workload.Workloads.lj_fluid ~n:32 () in
      let cfg = { E.default_config with thermostat } in
      Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:(50 + i) sys)

let test_create_validation () =
  expect_invalid "length mismatch" (fun () ->
      Remd.create ~engines:(two_engines ()) ~temps:[| 300. |] ~stride:10
        ~seed:1);
  expect_invalid "single rung" (fun () ->
      Remd.create
        ~engines:(Array.sub (two_engines ()) 0 1)
        ~temps:[| 300. |] ~stride:10 ~seed:1);
  expect_invalid "non-positive temperature" (fun () ->
      Remd.create ~engines:(two_engines ()) ~temps:[| -10.; 300. |]
        ~stride:10 ~seed:1);
  expect_invalid "non-increasing ladder" (fun () ->
      Remd.create ~engines:(two_engines ()) ~temps:[| 300.; 300. |]
        ~stride:10 ~seed:1);
  expect_invalid "stride < 1" (fun () ->
      Remd.create ~engines:(two_engines ()) ~temps:[| 300.; 330. |] ~stride:0
        ~seed:1);
  expect_invalid "engine without thermostat" (fun () ->
      Remd.create
        ~engines:(two_engines ~thermostat:E.No_thermostat ())
        ~temps:[| 300.; 330. |] ~stride:10 ~seed:1);
  (* A well-formed ladder still assembles. *)
  ignore
    (Remd.create ~engines:(two_engines ()) ~temps:[| 300.; 330. |] ~stride:10
       ~seed:1)

(* --- shard placement and accounting --- *)

let test_shard_placement () =
  let pool = Exec.create (Exec.Domains { n = 2 }) in
  let sh = Shard.create ~exec:pool ~n_replicas:5 in
  check_true "n_replicas" (Shard.n_replicas sh = 5);
  check_true "n_slots" (Shard.n_slots sh = 2);
  check_true "round-robin placement"
    (Array.init 5 (Shard.slot_of_replica sh) = [| 0; 1; 0; 1; 0 |]);
  check_true "slot 0 replicas" (Shard.replicas_of_slot sh 0 = [| 0; 2; 4 |]);
  check_true "slot 1 replicas" (Shard.replicas_of_slot sh 1 = [| 1; 3 |]);
  let hits = Array.make 5 0 in
  for _ = 1 to 3 do
    Shard.run_stride sh (fun r ->
        hits.(r) <- hits.(r) + 1;
        7)
  done;
  Exec.shutdown pool;
  check_true "every replica ran every stride"
    (Array.for_all (fun h -> h = 3) hits);
  check_true "strides counted" (Shard.strides_done sh = 3);
  check_true "steps accumulated"
    (Array.for_all (fun s -> s = 21) (Shard.steps_done sh));
  check_true "wall clock non-negative"
    (Array.for_all (fun w -> w >= 0.) (Shard.wall_seconds sh));
  (* Out of replicas: spare slots stay idle. *)
  let pool4 = Exec.create (Exec.Domains { n = 4 }) in
  let sh2 = Shard.create ~exec:pool4 ~n_replicas:2 in
  check_true "idle slot has no replicas"
    (Shard.replicas_of_slot sh2 2 = [||]);
  Shard.run_stride sh2 (fun _ -> 1);
  Exec.shutdown pool4;
  check_true "two replicas stepped" (Shard.steps_done sh2 = [| 1; 1 |])

(* --- sharded vs sequential bitwise identity --- *)

let test_sharded_matches_sequential () =
  let sweeps = 8 in
  let seq = make_ladder () in
  Remd.run seq ~sweeps;
  List.iter
    (fun slots ->
      let pool = Exec.create (Exec.Domains { n = slots }) in
      let ladder = make_ladder () in
      let ens = Ensemble.create ~exec:pool ladder in
      Ensemble.run ens ~sweeps;
      Exec.shutdown pool;
      assert_ladders_identical
        (Printf.sprintf "%d slot(s) vs sequential" slots)
        seq ladder;
      (* Every replica advanced sweeps * stride steps under the runner. *)
      check_true "shard accounting"
        (Array.for_all
           (fun s -> s = sweeps * Remd.stride ladder)
           (Shard.steps_done (Ensemble.shard ens))))
    [ 1; 2; 4 ]

let test_metrics_populated () =
  let pool = Exec.create (Exec.Domains { n = 2 }) in
  let ens = Ensemble.create ~exec:pool (make_ladder ()) in
  Ensemble.run ens ~sweeps:4;
  let ms = Ensemble.metrics ens in
  Exec.shutdown pool;
  check_true "one row per replica" (List.length ms = Array.length temps);
  List.iteri
    (fun i (m : Ensemble.replica_metrics) ->
      check_true "replica index" (m.Ensemble.replica = i);
      check_true "slot matches placement" (m.Ensemble.slot = i mod 2);
      check_float ~eps:1e-12 "rung temperature" temps.(i) m.Ensemble.temp;
      check_true "steps counted" (m.Ensemble.steps = 4 * 10);
      check_true "wall time recorded" (m.Ensemble.wall_s > 0.);
      check_true "config tracked"
        (m.Ensemble.config_at >= 0
        && m.Ensemble.config_at < Array.length temps))
    ms;
  let rendered = Ensemble.metrics_table ens in
  check_true "table mentions every replica"
    (String.length rendered > 0)

(* --- checkpoint / restore --- *)

(* Every field of every engine snapshot, and the exchange bookkeeping,
   bitwise. *)
let assert_snapshots_identical msg (a : E.t array) (b : E.t array) =
  check_true (msg ^ ": engine count") (Array.length a = Array.length b);
  Array.iteri
    (fun i ea ->
      let s = E.snapshot ea and r = E.snapshot b.(i) in
      let chk field ok =
        check_true (Printf.sprintf "%s: %d %s" msg i field) ok
      in
      chk "state" (State.equal s.E.snap_state r.E.snap_state);
      chk "masses" (s.E.snap_state.State.masses = r.E.snap_state.State.masses);
      chk "steps" (s.E.snap_steps = r.E.snap_steps);
      chk "temperature" (s.E.snap_temperature = r.E.snap_temperature);
      chk "rng" (s.E.snap_rng = r.E.snap_rng);
      chk "nhc" (s.E.snap_nhc = r.E.snap_nhc);
      chk "mc_baro" (s.E.snap_mc_baro = r.E.snap_mc_baro);
      chk "energies" (s.E.snap_energies = r.E.snap_energies);
      chk "forces" (s.E.snap_forces = r.E.snap_forces);
      chk "virial" (s.E.snap_virial = r.E.snap_virial);
      chk "nlist box" (s.E.snap_nlist_box = r.E.snap_nlist_box);
      chk "nlist reference" (s.E.snap_nlist_ref = r.E.snap_nlist_ref))
    a

let assert_remd_snapshots_identical msg a b =
  let sa = Remd.snapshot a and sb = Remd.snapshot b in
  check_true (msg ^ ": remd sweep") (sa.Remd.snap_sweep = sb.Remd.snap_sweep);
  check_true (msg ^ ": remd attempts")
    (sa.Remd.snap_attempts = sb.Remd.snap_attempts);
  check_true (msg ^ ": remd accepts")
    (sa.Remd.snap_accepts = sb.Remd.snap_accepts);
  check_true (msg ^ ": remd rng streams")
    (sa.Remd.snap_rngs = sb.Remd.snap_rngs);
  check_true (msg ^ ": remd config walk")
    (sa.Remd.snap_config = sb.Remd.snap_config);
  assert_snapshots_identical msg (Remd.engines a) (Remd.engines b)

let save_ladder path ladder =
  Checkpoint.save path ~remd:ladder (Remd.engines ladder)

let resume_ladder ?expect_preset path ladder =
  Checkpoint.resume ?expect_preset path ~remd:ladder (Remd.engines ladder)

let test_checkpoint_roundtrip_exact () =
  (* Uninterrupted reference. *)
  let whole = make_ladder () in
  Remd.run whole ~sweeps:10;
  (* Interrupted run: 4 sweeps, checkpoint to disk, resume into a FRESH
     ladder (same constructor), 6 more sweeps — must land exactly where the
     uninterrupted run did. *)
  let first = make_ladder () in
  let pool = Exec.create (Exec.Domains { n = 2 }) in
  let ens1 = Ensemble.create ~exec:pool first in
  Ensemble.run ens1 ~sweeps:4;
  let path = Filename.temp_file "mdsp_ensemble" ".ckpt" in
  save_ladder path first;
  let resumed = make_ladder () in
  let ens2 = Ensemble.create ~exec:pool resumed in
  (* Desynchronize the fresh ladder first to prove restore really rewinds. *)
  Ensemble.run ens2 ~sweeps:1;
  resume_ladder path resumed;
  check_true "sweep counter restored" (Remd.sweeps_done resumed = 4);
  assert_remd_snapshots_identical "resumed vs saved" first resumed;
  Ensemble.run ens2 ~sweeps:6;
  Exec.shutdown pool;
  Sys.remove path;
  assert_ladders_identical "checkpointed continuation vs uninterrupted"
    whole resumed

let test_checkpoint_file_exact () =
  (* The text format itself round-trips every snapshot field bit-for-bit. *)
  let ladder = make_ladder () in
  Remd.run ladder ~sweeps:3;
  let path = Filename.temp_file "mdsp_ensemble" ".ckpt" in
  save_ladder path ladder;
  let back = make_ladder () in
  resume_ladder path back;
  Sys.remove path;
  assert_remd_snapshots_identical "file round trip" ladder back

let test_single_engine_resume () =
  (* One engine through the file: a Langevin + SHAKE water engine and a
     Nosé–Hoover LJ engine, saved after 10 steps and resumed into a fresh
     engine, must continue bitwise — RNG stream, thermostat chain, step
     counter, in-flight forces and neighbor list all come from the file. *)
  let water () =
    let sys = Mdsp_workload.Workloads.water_box ~n_side:2 () in
    let cfg =
      {
        E.default_config with
        dt_fs = 1.0;
        temperature = 300.;
        thermostat = E.Langevin { gamma_fs = 0.02 };
      }
    in
    Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:7 sys
  in
  let lj_nh () =
    let sys = Mdsp_workload.Workloads.lj_fluid ~n:64 () in
    let cfg =
      {
        E.default_config with
        dt_fs = 2.0;
        temperature = 120.;
        thermostat = E.Nose_hoover { tau_fs = 100. };
      }
    in
    Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:5 sys
  in
  List.iter
    (fun (name, make) ->
      let eng = make () in
      E.run eng 10;
      let path = Filename.temp_file "mdsp_single" ".ckpt" in
      Checkpoint.save ~preset:name path [| eng |];
      let fresh = make () in
      Checkpoint.resume ~expect_preset:name path [| fresh |];
      Sys.remove path;
      check_true (name ^ ": step counter restored") (E.steps_done fresh = 10);
      E.run eng 15;
      E.run fresh 15;
      check_true (name ^ ": state bitwise")
        (State.equal (E.state eng) (E.state fresh));
      check_true (name ^ ": potential energy bitwise")
        (E.potential_energy eng = E.potential_energy fresh);
      check_true (name ^ ": total energy bitwise")
        (E.total_energy eng = E.total_energy fresh);
      check_true (name ^ ": step counter") (E.steps_done fresh = 25);
      assert_snapshots_identical name [| eng |] [| fresh |])
    [ ("water", water); ("lj-nose-hoover", lj_nh) ]

(* --- torn and corrupt checkpoint files --- *)

let small_ladder ?(n = 32) ?(replicas = 2) () =
  let temps = Array.init replicas (fun i -> 120. +. (15. *. float_of_int i)) in
  let engines =
    Array.mapi
      (fun i temp ->
        let sys = Mdsp_workload.Workloads.lj_fluid ~n () in
        let cfg =
          {
            E.default_config with
            dt_fs = 2.0;
            temperature = temp;
            thermostat = E.Langevin { gamma_fs = 0.02 };
          }
        in
        Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:(40 + i) sys)
      temps
  in
  Remd.create ~engines ~temps ~stride:5 ~seed:3

let contains ~needle hay =
  let nn = String.length needle and nh = String.length hay in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* [f] must raise [Failure] naming [path] and a line, and [needle] when
   given. *)
let fails_at_line ?needle what path f =
  match f () with
  | () -> Alcotest.failf "%s: resumed without error" what
  | exception Failure msg ->
      let at = Printf.sprintf "checkpoint %s, line " path in
      if not (contains ~needle:at msg) then
        Alcotest.failf "%s: %S names no file and line" what msg;
      Option.iter
        (fun needle ->
          if not (contains ~needle msg) then
            Alcotest.failf "%s: %S does not mention %S" what msg needle)
        needle

let test_torn_and_corrupt_files () =
  (* A real 2-replica ladder file, then every way a crash or a stray edit
     can damage it. Each damaged file must be a Failure naming the file and
     the line, and must leave the target ladder untouched. *)
  let src = small_ladder () in
  Remd.run src ~sweeps:2;
  let good = Filename.temp_file "mdsp_torn" ".ckpt" in
  Checkpoint.save ~preset:"lj32" good ~remd:src (Remd.engines src);
  let text = read_file good in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  (* The file ends in a newline, so the split leaves one empty tail. *)
  let lines = Array.sub lines 0 (Array.length lines - 1) in
  let nl = Array.length lines in
  let prefix k = String.concat "" (List.init k (fun i -> lines.(i) ^ "\n")) in
  let bad = Filename.temp_file "mdsp_torn" ".ckpt" in
  let target = small_ladder () in
  let untouched what =
    check_true (what ^ ": ladder untouched")
      (Remd.sweeps_done target = 0
      && Array.for_all (fun e -> E.steps_done e = 0) (Remd.engines target))
  in
  let resume_bad ?expect_preset what =
    fails_at_line what bad (fun () -> resume_ladder ?expect_preset bad target);
    untouched what
  in
  for k = 0 to nl - 1 do
    write_file bad (prefix k);
    resume_bad (Printf.sprintf "prefix of %d lines" k)
  done;
  Array.iteri
    (fun i l ->
      write_file bad (prefix i ^ String.sub l 0 (String.length l / 2));
      resume_bad (Printf.sprintf "line %d cut in half" (i + 1)))
    lines;
  (* A garbage token in an atom row of the second replica. *)
  let row = nl - 3 in
  let garbled = Array.copy lines in
  garbled.(row) <-
    (match String.split_on_char ' ' lines.(row) with
    | first :: rest -> String.concat " " (first :: "garbage" :: List.tl rest)
    | [] -> assert false);
  write_file bad (String.concat "\n" (Array.to_list garbled) ^ "\n");
  resume_bad "garbage token";
  (* Mismatches against a well-formed file. *)
  fails_at_line ~needle:"preset" "wrong preset" good (fun () ->
      resume_ladder ~expect_preset:"lj64" good target);
  untouched "wrong preset";
  fails_at_line ~needle:"replicas" "wrong replica count" good (fun () ->
      resume_ladder good (small_ladder ~replicas:3 ()));
  fails_at_line ~needle:"atoms" "wrong atom count" good (fun () ->
      resume_ladder good (small_ladder ~n:64 ()));
  (* A stranded staging file from a crashed save does not shadow the good
     file, and the next save replaces it. *)
  let stranded = good ^ Atomic_file.tmp_suffix in
  write_file stranded (prefix (nl / 2));
  resume_ladder ~expect_preset:"lj32" good target;
  assert_remd_snapshots_identical "resumed past a stranded .tmp" src target;
  Checkpoint.save ~preset:"lj32" good ~remd:target (Remd.engines target);
  check_true "save leaves no .tmp behind" (not (Sys.file_exists stranded));
  check_true "save rewrites the same bytes" (read_file good = text);
  Sys.remove good;
  Sys.remove bad

let test_engine_snapshot_restore () =
  (* Engine-level restart exactness on a constrained, thermostatted system
     (water: SHAKE + Langevin RNG draws + neighbor rebuilds). *)
  let make () =
    let sys = Mdsp_workload.Workloads.water_box ~n_side:2 () in
    let cfg =
      {
        E.default_config with
        dt_fs = 1.0;
        temperature = 300.;
        thermostat = E.Langevin { gamma_fs = 0.02 };
      }
    in
    Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:7 sys
  in
  let eng = make () in
  E.run eng 10;
  let snap = E.snapshot eng in
  E.run eng 15;
  let ref_state = State.copy (E.state eng) in
  let ref_pe = E.potential_energy eng in
  E.restore eng snap;
  check_true "rewound step counter" (E.steps_done eng = 10);
  E.run eng 15;
  check_true "restart reproduces the state bitwise"
    (State.equal (E.state eng) ref_state);
  check_true "restart reproduces the energy bitwise"
    (E.potential_energy eng = ref_pe);
  (* Restoring into a fresh engine for the same system works too. *)
  let eng2 = make () in
  E.restore eng2 snap;
  E.run eng2 15;
  check_true "fresh engine + snapshot reproduces the state bitwise"
    (State.equal (E.state eng2) ref_state)

(* --- tempering walkers --- *)

let make_walker_fleet () =
  let n_walkers = 3 in
  let wtemps = [| 120.; 135.; 150. |] in
  let engines =
    Array.init n_walkers (fun i ->
        let sys = Mdsp_workload.Workloads.lj_fluid ~n:32 () in
        let cfg =
          {
            E.default_config with
            dt_fs = 2.0;
            temperature = wtemps.(0);
            thermostat = E.Langevin { gamma_fs = 0.02 };
          }
        in
        Mdsp_workload.Workloads.make_engine ~config:cfg ~seed:(80 + i) sys)
  in
  let ladders =
    Array.init n_walkers (fun _ ->
        Tempering.create ~temps:wtemps ~stride:5 ())
  in
  (engines, ladders)

let test_tempering_walkers () =
  let strides = 40 in
  (* Sequential reference: walkers stepped one after another. *)
  let seq_engines, seq_ladders = make_walker_fleet () in
  Array.iteri (fun i l -> Tempering.attach l seq_engines.(i)) seq_ladders;
  for _ = 1 to strides do
    Array.iteri
      (fun i e -> E.run e (Tempering.stride seq_ladders.(i)))
      seq_engines
  done;
  (* Concurrent walkers on a pool. *)
  let engines, ladders = make_walker_fleet () in
  let pool = Exec.create (Exec.Domains { n = 2 }) in
  let w = Ensemble.create_tempering ~exec:pool ~engines ~ladders in
  Ensemble.run_tempering w ~strides;
  Exec.shutdown pool;
  Array.iteri
    (fun i e ->
      check_true
        (Printf.sprintf "walker %d state bitwise" i)
        (State.equal (E.state e) (E.state seq_engines.(i)));
      check_true
        (Printf.sprintf "walker %d rung" i)
        (Tempering.rung ladders.(i) = Tempering.rung seq_ladders.(i));
      check_true
        (Printf.sprintf "walker %d visits" i)
        (Tempering.visits ladders.(i) = Tempering.visits seq_ladders.(i)))
    engines;
  (* The ladder actually walks: every walker logged visits, and the fleet
     together reached more than one rung. *)
  let occ = Ensemble.occupancy w in
  Array.iter
    (fun visits ->
      check_true "walker visited rungs"
        (Array.fold_left ( + ) 0 visits > 0))
    occ;
  let rungs_reached =
    Array.fold_left
      (fun acc visits ->
        acc + (if Array.exists (fun v -> v > 0) visits then 1 else 0))
      0 occ
  in
  check_true "all walkers sampled" (rungs_reached = Array.length occ);
  check_true "walker accounting"
    (Array.for_all
       (fun s -> s = strides * 5)
       (Shard.steps_done (Ensemble.walker_shard w)))

let () =
  Alcotest.run "ensemble"
    [
      ( "remd",
        [
          Alcotest.test_case "create validation" `Quick
            test_create_validation;
        ] );
      ( "shard",
        [
          Alcotest.test_case "placement and accounting" `Quick
            test_shard_placement;
        ] );
      ( "identity",
        [
          Alcotest.test_case "sharded = sequential (1/2/4 slots)" `Quick
            test_sharded_matches_sequential;
          Alcotest.test_case "per-replica metrics" `Quick
            test_metrics_populated;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume continues exactly" `Quick
            test_checkpoint_roundtrip_exact;
          Alcotest.test_case "text format round-trips bitwise" `Quick
            test_checkpoint_file_exact;
          Alcotest.test_case "single engine resumes bitwise" `Quick
            test_single_engine_resume;
          Alcotest.test_case "torn and corrupt files fail cleanly" `Quick
            test_torn_and_corrupt_files;
          Alcotest.test_case "engine snapshot/restore" `Quick
            test_engine_snapshot_restore;
        ] );
      ( "tempering",
        [
          Alcotest.test_case "concurrent walkers = sequential" `Quick
            test_tempering_walkers;
        ] );
    ]
