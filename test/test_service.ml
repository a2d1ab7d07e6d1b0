(* The simulation job service: job/protocol codecs must round-trip
   exactly (qcheck fuzz), the spool queue must survive restarts, a job
   preempted repeatedly — including across a simulated server restart —
   must end bitwise identical to an uninterrupted run at 1/2/4 slots, the
   serve loop must answer malformed requests with errors instead of dying,
   and the checkpoint reader must fail with clear messages on missing /
   truncated / mismatched files — failing only the job whose file it is. *)

open Mdsp_util
open Testsupport
module Job = Mdsp_service.Job
module Q = Mdsp_service.Queue
module Sch = Mdsp_service.Scheduler
module P = Mdsp_service.Protocol
module Server = Mdsp_service.Server

(* --- helpers --- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let lj_spec ?(label = "t") ?(steps = 120) ?(seed = 7) () =
  {
    Job.label;
    preset = "lj64";
    steps;
    dt_fs = 2.0;
    temperature = 120.;
    seed;
    kind = Job.Single;
  }

let contains ~needle hay =
  let nn = String.length needle and nh = String.length hay in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let fails_with needle f =
  match f () with
  | _ -> Alcotest.failf "expected Failure mentioning %S" needle
  | exception Failure msg ->
      if not (contains ~needle msg) then
        Alcotest.failf "Failure %S does not mention %S" msg needle

(* --- job codec --- *)

let test_job_codec_basic () =
  let single = lj_spec ~label:"a label with spaces" () in
  let remd =
    {
      single with
      Job.kind =
        Job.Remd { replicas = 4; temp_min = 120.; temp_max = 160.; stride = 25 };
    }
  in
  List.iter
    (fun spec ->
      match Job.decode (Job.encode spec) with
      | Ok back -> check_true "round trip" (back = spec)
      | Error m -> Alcotest.failf "decode failed: %s" m)
    [ single; remd ];
  check_true "deterministic id" (Job.id single = Job.id single);
  check_true "kind changes id" (Job.id single <> Job.id remd);
  check_true "id shape"
    (String.length (Job.id single) = 17 && (Job.id single).[0] = 'j')

let test_job_decode_errors () =
  let bad l =
    match Job.decode l with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "decoded %S" l
  in
  bad "";
  bad "not a job\n";
  bad "mdsp-job 1\nlabel x\n";
  (* a validation failure, not just a parse failure *)
  bad
    (String.concat "\n"
       [
         "mdsp-job 1"; "label x"; "preset lj64"; "steps 0"; "dt 2";
         "temperature 120"; "seed 1"; "kind single"; "";
       ])

let spec_arb =
  let label_gen =
    QCheck.Gen.(
      string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 16))
  in
  QCheck.map
    (fun ((label, preset, steps, seed), (dt, temp, is_remd, (replicas, stride)))
       ->
      let kind =
        if is_remd then
          Job.Remd
            { replicas; temp_min = temp; temp_max = temp +. 25.; stride }
        else Job.Single
      in
      { Job.label; preset; steps; dt_fs = dt; temperature = temp; seed; kind })
    QCheck.(
      pair
        (quad
           (make ~print:(Printf.sprintf "%S") label_gen)
           (oneofl [ "lj64"; "lj1k"; "water6k"; "chain2k" ])
           (int_range 1 100_000) (int_range 0 9999))
        (quad (float_range 0.5 4.0) (float_range 50. 400.) bool
           (pair (int_range 2 8) (int_range 1 50))))

let job_codec_fuzz =
  qtest "job codec round-trips" ~count:300 spec_arb (fun spec ->
      Job.decode (Job.encode spec) = Ok spec
      && Job.id spec = Job.id spec)

(* --- json --- *)

let json_float_fuzz =
  qtest "json numbers round-trip bitwise" ~count:300
    QCheck.(float_range (-1e12) 1e12)
    (fun f -> Json.of_string (Json.to_string (Json.Num f)) = Ok (Json.Num f))

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parsed %S" s)
    [ "{"; "[1,]"; "1 2"; "\"unterminated"; "{\"a\" 1}"; "nul" ]

(* --- protocol codec --- *)

let request_arb =
  QCheck.map
    (fun (sel, spec, id) ->
      match sel with
      | 0 -> P.Submit spec
      | 1 -> P.Status id
      | 2 -> P.Result id
      | 3 -> P.Cancel id
      | 4 -> P.Jobs
      | _ -> P.Shutdown)
    QCheck.(
      triple (int_range 0 5) spec_arb
        (oneofl [ "j0000000000000000"; "jdeadbeef12345678"; "x" ]))

let view_arb =
  QCheck.map
    (fun ((id, label), (status, d, t)) ->
      {
        P.v_id = id;
        v_label = label;
        v_status = status;
        v_steps_done = d;
        v_steps_total = t;
      })
    QCheck.(
      pair
        (pair (oneofl [ "j1"; "j2" ]) (oneofl [ ""; "a label"; "x\"y" ]))
        (triple
           (oneofl [ "pending"; "running"; "paused"; "done"; "failed" ])
           (int_range 0 1000) (int_range 0 1000)))

let response_arb =
  QCheck.map
    (fun (sel, v, vs, (id, msg, obs)) ->
      match sel with
      | 0 -> P.Submitted v
      | 1 -> P.Job_status v
      | 2 -> P.Job_result { r_id = id; observables = obs }
      | 3 -> P.Cancelled id
      | 4 -> P.Job_list vs
      | 5 -> P.Bye
      | _ -> P.Error msg
    )
    QCheck.(
      quad (int_range 0 6) view_arb (list_of_size (Gen.int_range 0 4) view_arb)
        (triple (oneofl [ "j1"; "j2" ])
           (oneofl [ "boom"; "no such job"; "quote \" backslash \\" ])
           (list_of_size (Gen.int_range 0 4)
              (pair
                 (oneofl [ "steps"; "e_total"; "temperature" ])
                 (float_range (-1e6) 1e6)))))

let request_codec_fuzz =
  qtest "request codec round-trips" ~count:300 request_arb (fun r ->
      P.decode_request (P.encode_request r) = Ok r)

let response_codec_fuzz =
  qtest "response codec round-trips" ~count:300 response_arb (fun r ->
      P.decode_response (P.encode_response r) = Ok r)

let test_malformed_requests () =
  List.iter
    (fun line ->
      match P.decode_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [
      "not json";
      "{}";
      "{\"op\":\"frobnicate\"}";
      "{\"op\":\"status\"}";
      "{\"op\":\"submit\",\"spec\":{\"label\":\"x\"}}";
      "{\"op\":\"submit\",\"spec\":{\"label\":\"x\",\"preset\":\"lj64\",\
       \"steps\":0,\"dt\":2,\"temperature\":120,\"seed\":1,\
       \"kind\":\"single\"}}";
    ]

(* --- queue persistence across restart --- *)

let test_queue_restart () =
  let dir = Atomic_file.fresh_dir ~prefix:"mdsp_test_q" () in
  let a = lj_spec ~label:"a" ~seed:11 () in
  let b = lj_spec ~label:"b" ~seed:12 () in
  let q1 = Q.create ~dir in
  let ea = Result.get_ok (Q.submit q1 a) in
  let _ = Result.get_ok (Q.submit q1 b) in
  check_true "idempotent resubmit"
    (Q.submit q1 a = Ok ea && List.length (Q.entries q1) = 2);
  let sched = Sch.create ~quantum:40 ~exec:Exec.serial q1 in
  check_true "one job advanced" (Sch.run_slice sched = 1);
  check_true "a paused at quantum"
    (ea.Q.status = Q.Paused && ea.Q.steps_done = 40);
  (* Simulated restart: reload everything from the spool. *)
  let q2 = Q.create ~dir in
  let ea2 = Option.get (Q.find q2 (Job.id a)) in
  let eb2 = Option.get (Q.find q2 (Job.id b)) in
  check_true "a recovered paused"
    (ea2.Q.status = Q.Paused && ea2.Q.steps_done = 40);
  check_true "b recovered pending" (eb2.Q.status = Q.Pending);
  check_true "round robin: b before a" (eb2.Q.seq < ea2.Q.seq);
  (* A job caught mid-run by a crash: Running demotes to Paused when its
     checkpoint landed, Pending when it never got one. *)
  Q.set_status q2 ea2 Q.Running;
  Q.set_status q2 eb2 Q.Running;
  let q3 = Q.create ~dir in
  check_true "running+ckpt -> paused"
    ((Option.get (Q.find q3 (Job.id a))).Q.status = Q.Paused);
  check_true "running without ckpt -> pending"
    ((Option.get (Q.find q3 (Job.id b))).Q.status = Q.Pending);
  let sched3 = Sch.create ~quantum:40 ~exec:Exec.serial q3 in
  Sch.drain sched3;
  List.iter
    (fun (e : Q.entry) -> check_true "drained to done" (e.Q.status = Q.Done))
    (Q.entries q3);
  check_true "no orphans" (Q.orphans ~dir = []);
  rm_rf dir

(* --- preempted = uninterrupted, bitwise, at 1/2/4 slots --- *)

let identity_specs =
  [ lj_spec ~label:"i1" ~seed:21 (); lj_spec ~label:"i2" ~seed:22 ();
    lj_spec ~label:"i3" ~seed:23 () ]

let test_preemption_identity () =
  (* steps 120, quantum 40: every job is preempted twice before its final
     slice. Mid-drain the queue and scheduler are rebuilt from the spool —
     a simulated server restart — so at least one resume goes through the
     checkpoint file. *)
  let refs =
    List.map
      (fun spec ->
        let ckpt = Filename.temp_file "mdsp_test_ref" ".ckpt" in
        let obs = Sch.uninterrupted spec ~ckpt in
        let bytes = read_file ckpt in
        Sys.remove ckpt;
        (spec, bytes, obs))
      identity_specs
  in
  let baseline = ref None in
  List.iter
    (fun slots ->
      let dir = Atomic_file.fresh_dir ~prefix:"mdsp_test_id" () in
      let exec =
        if slots = 1 then Exec.serial
        else Exec.create (Exec.Domains { n = slots })
      in
      let q1 = Q.create ~dir in
      List.iter
        (fun s -> ignore (Result.get_ok (Q.submit q1 s)))
        identity_specs;
      let s1 = Sch.create ~quantum:40 ~exec q1 in
      ignore (Sch.run_slice s1);
      ignore (Sch.run_slice s1);
      (* server restart: fresh queue + scheduler, instances rebuilt from
         the preemption checkpoints *)
      let q2 = Q.create ~dir in
      let s2 = Sch.create ~quantum:40 ~exec q2 in
      Sch.drain s2;
      let outputs =
        List.map
          (fun (spec, ref_bytes, _) ->
            let e = Option.get (Q.find q2 (Job.id spec)) in
            check_true
              (Printf.sprintf "%s done at %d slots" e.Q.id slots)
              (e.Q.status = Q.Done);
            let ckpt = read_file (Q.ckpt_path q2 e) in
            check_true
              (Printf.sprintf "ckpt bitwise at %d slots" slots)
              (ckpt = ref_bytes);
            Option.get (Q.read_result q2 e.Q.id))
          refs
      in
      (match !baseline with
      | None -> baseline := Some outputs
      | Some base ->
          check_true
            (Printf.sprintf "results identical across slot counts (%d)" slots)
            (base = outputs));
      Exec.shutdown exec;
      rm_rf dir)
    [ 1; 2; 4 ]

let test_unknown_preset_fails_job () =
  let dir = Atomic_file.fresh_dir ~prefix:"mdsp_test_bad" () in
  let q = Q.create ~dir in
  let e =
    Result.get_ok (Q.submit q { (lj_spec ()) with Job.preset = "nosuch" })
  in
  let sched = Sch.create ~quantum:40 ~exec:Exec.serial q in
  Sch.drain sched;
  (match e.Q.status with
  | Q.Failed msg -> check_true "mentions preset" (String.length msg > 0)
  | _ -> Alcotest.fail "unknown preset should fail the job");
  rm_rf dir

(* --- serve loop end to end --- *)

let test_serve_end_to_end () =
  let dir = Atomic_file.fresh_dir ~prefix:"mdsp_test_serve" () in
  let spec = lj_spec ~label:"served" ~steps:90 ~seed:31 () in
  let id = Job.id spec in
  let script =
    String.concat "\n"
      [
        P.encode_request (P.Submit spec);
        "this is not json";
        P.encode_request (P.Status id);
        P.encode_request (P.Result id);
      ]
    ^ "\n"
  in
  let in_path = Filename.temp_file "mdsp_serve" ".in" in
  let oc = open_out in_path in
  output_string oc script;
  close_out oc;
  let out_path = Filename.temp_file "mdsp_serve" ".out" in
  let input = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let output = open_out out_path in
  Server.serve ~quantum:30 ~dir ~input ~output ();
  Unix.close input;
  close_out output;
  let responses =
    String.split_on_char '\n' (String.trim (read_file out_path))
    |> List.map (fun l -> Result.get_ok (P.decode_response l))
  in
  (match responses with
  | [ P.Submitted v; P.Error err; P.Job_status _; P.Job_result r ] ->
      check_true "submitted id" (v.P.v_id = id);
      check_true "malformed line rejected"
        (String.length err > 0);
      check_true "result id" (r.r_id = id);
      check_true "observed steps" (List.assoc "steps" r.observables = 90.)
  | rs -> Alcotest.failf "unexpected response sequence (%d)" (List.length rs));
  check_true "spool clean after serve" (Q.orphans ~dir = []);
  Sys.remove in_path;
  Sys.remove out_path;
  rm_rf dir

(* --- checkpoint error paths --- *)

let test_checkpoint_errors () =
  let module EC = Mdsp_ensemble.Checkpoint in
  let eng = lj_engine ~n:32 ~equil:10 () in
  fails_with "cannot open" (fun () -> EC.resume "/nonexistent/ckpt" [| eng |]);
  let tmp = Filename.temp_file "mdsp_test_ck" ".ckpt" in
  let write s =
    let oc = open_out tmp in
    output_string oc s;
    close_out oc
  in
  write "garbage\n";
  fails_with "bad header" (fun () -> EC.resume tmp [| eng |]);
  (* The state-only format older `mdsp run --checkpoint` wrote. *)
  write "mdsp-checkpoint 2\npreset lj64\natoms 32\n";
  fails_with "line 1: bad header" (fun () -> EC.resume tmp [| eng |]);
  write "mdsp-ensemble-checkpoint 2\npreset lj64\n";
  fails_with "truncated" (fun () -> EC.resume tmp [| eng |]);
  (* preset, replica-count and atom-count guards, through a real save *)
  EC.save ~preset:"lj32" tmp [| eng |];
  check_true "save atomic"
    (not (Sys.file_exists (tmp ^ Atomic_file.tmp_suffix)));
  let fresh = lj_engine ~n:32 ~equil:0 () in
  fails_with "preset" (fun () ->
      EC.resume ~expect_preset:"water6k" tmp [| fresh |]);
  fails_with "replicas" (fun () -> EC.resume tmp [| fresh; fresh |]);
  fails_with "atoms" (fun () ->
      EC.resume tmp [| lj_engine ~n:64 ~equil:0 () |]);
  check_true "failed resumes leave the engine alone"
    (Mdsp_md.Engine.steps_done fresh = 0);
  EC.resume ~expect_preset:"lj32" tmp [| fresh |];
  check_true "matching preset resumes"
    (Mdsp_md.Engine.steps_done fresh = 10);
  (* a single-engine file has no exchange section for a ladder *)
  let ladder =
    Sch.remd_ladder ~preset:"lj32" ~dt_fs:2.0 ~seed:1 ~replicas:2
      ~temp_min:120. ~temp_max:140. ~stride:5
  in
  EC.save ~preset:"lj32" tmp (Mdsp_core.Remd.engines ladder);
  fails_with "exchange section" (fun () ->
      EC.resume tmp ~remd:ladder (Mdsp_core.Remd.engines ladder));
  Sys.remove tmp

(* A torn .ckpt fails that job only: the server keeps draining the rest. *)
let test_torn_ckpt_fails_job () =
  let dir = Atomic_file.fresh_dir ~prefix:"mdsp_test_torn" () in
  let a = lj_spec ~label:"torn" ~seed:41 () in
  let b = lj_spec ~label:"intact" ~seed:42 () in
  let q1 = Q.create ~dir in
  let ea = Result.get_ok (Q.submit q1 a) in
  let _ = Result.get_ok (Q.submit q1 b) in
  let s1 = Sch.create ~quantum:40 ~exec:Exec.serial q1 in
  ignore (Sch.run_slice s1);
  ignore (Sch.run_slice s1);
  (* Cut job a's checkpoint mid-row, the way a non-atomic writer dying
     halfway through would leave it. *)
  let ckpt = Q.ckpt_path q1 ea in
  let lines = String.split_on_char '\n' (read_file ckpt) in
  let keep = 30 in
  let torn =
    String.concat "\n" (List.filteri (fun i _ -> i < keep) lines)
    ^ "\n"
    ^ (let row = List.nth lines keep in
       String.sub row 0 (String.length row / 2))
  in
  let oc = open_out_bin ckpt in
  output_string oc torn;
  close_out oc;
  let q2 = Q.create ~dir in
  Sch.drain (Sch.create ~quantum:40 ~exec:Exec.serial q2);
  (match (Option.get (Q.find q2 (Job.id a))).Q.status with
  | Q.Failed msg ->
      check_true "failure names the checkpoint" (contains ~needle:ckpt msg);
      check_true "failure says truncated" (contains ~needle:"truncated" msg)
  | st -> Alcotest.failf "torn job ended %s" (Q.status_to_string st));
  check_true "the other job completes"
    ((Option.get (Q.find q2 (Job.id b))).Q.status = Q.Done);
  rm_rf dir

(* --- torn spool records ---

   Every spool record is replaced atomically, but a file can still be
   damaged outside the service (a copy cut short, a disk error, a hand
   edit). A damaged record must never be read as a default: a cancelled
   job whose .state is cut must not come back as pending and run. *)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* [cuts text] are the proper prefixes of a record: cut at every line
   boundary (the empty file included) and in the middle of every line. *)
let cuts text =
  let lines = String.split_on_char '\n' text in
  (* [text] ends with a newline: drop the empty piece after it. *)
  let lines = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  let _, out =
    List.fold_left
      (fun (before, acc) line ->
        let half = before ^ String.sub line 0 (String.length line / 2) in
        (before ^ line ^ "\n", half :: before :: acc))
      ("", []) lines
  in
  List.rev out

let replace_line ~prefix ~by text =
  String.split_on_char '\n' text
  |> List.map (fun l -> if String.starts_with ~prefix l then by else l)
  |> String.concat "\n"

let names_file f = List.exists (fun o -> contains ~needle:f o)

let test_torn_spool_records () =
  let dir = Atomic_file.fresh_dir ~prefix:"mdsp_test_spool" () in
  let q = Q.create ~dir in
  let spec = lj_spec ~label:"cancelled" ~steps:20 ~seed:51 () in
  let id = (Result.get_ok (Q.submit q spec)).Q.id in
  ignore (Result.get_ok (Q.cancel q id));
  let state = Filename.concat dir (id ^ ".state") in
  let intact = read_file state in
  let damaged =
    cuts intact
    @ [ replace_line ~prefix:"status " ~by:"status resurrected" intact ]
  in
  List.iteri
    (fun k text ->
      write_file state text;
      let label =
        Printf.sprintf "state variant %d (%d bytes)" k (String.length text)
      in
      let q = Q.create ~dir in
      let e = Option.get (Q.find q id) in
      check_true (label ^ ": never runnable") (Q.runnable q = []);
      (match e.Q.status with
      | Q.Failed msg ->
          check_true (label ^ ": status names the file")
            (contains ~needle:(id ^ ".state") msg)
      | st -> Alcotest.failf "%s: job reads %s" label (Q.status_to_string st));
      check_true (label ^ ": orphans name the file")
        (names_file (id ^ ".state") (Q.orphans ~dir));
      Sch.drain (Sch.create ~quantum:40 ~exec:Exec.serial q);
      check_true (label ^ ": no result written")
        (not (Sys.file_exists (Filename.concat dir (id ^ ".result"))));
      check_true (label ^ ": record left as found") (read_file state = text))
    damaged;
  (* Deleting the named record requeues the job; the intact record keeps
     it cancelled. *)
  Sys.remove state;
  check_true "no record: pending"
    ((Option.get (Q.find (Q.create ~dir) id)).Q.status = Q.Pending);
  write_file state intact;
  check_true "intact record: cancelled"
    ((Option.get (Q.find (Q.create ~dir) id)).Q.status = Q.Failed "cancelled");
  check_true "intact record: no orphans" (Q.orphans ~dir = []);
  (* A .job cut mid-line or with a garbage field is not listed. The remd
     spec cut inside its last field still decodes, but not to its id. *)
  let remd =
    {
      spec with
      Job.label = "ladder";
      kind =
        Job.Remd { replicas = 2; temp_min = 120.; temp_max = 140.; stride = 25 };
    }
  in
  List.iter
    (fun s ->
      let jid = Job.id s in
      let job = Filename.concat dir (jid ^ ".job") in
      let text = Job.encode s in
      let n = String.length text in
      List.iter
        (fun damaged ->
          write_file job damaged;
          check_true "damaged .job not listed"
            (Q.find (Q.create ~dir) jid = None);
          check_true "orphans name the .job"
            (names_file (jid ^ ".job") (Q.orphans ~dir)))
        [
          String.sub text 0 (n / 2);
          String.sub text 0 (n - 2);
          replace_line ~prefix:"steps " ~by:"steps many" text;
        ];
      Sys.remove job)
    [ lj_spec ~label:"single" ~seed:52 (); remd ];
  (* A stranded staging file next to a good record is ignored by create
     and named by orphans. *)
  write_file (state ^ Atomic_file.tmp_suffix) "mdsp-job-state 1\nid ";
  check_true "staging file ignored"
    ((Option.get (Q.find (Q.create ~dir) id)).Q.status = Q.Failed "cancelled");
  check_true "orphans name the staging file"
    (names_file (id ^ ".state" ^ Atomic_file.tmp_suffix) (Q.orphans ~dir));
  Sys.remove (state ^ Atomic_file.tmp_suffix);
  (* A .result cut mid-line: the result request answers with an error. *)
  let done_spec = lj_spec ~label:"done" ~steps:20 ~seed:53 () in
  let q = Q.create ~dir in
  let done_id = (Result.get_ok (Q.submit q done_spec)).Q.id in
  Sch.drain (Sch.create ~quantum:40 ~exec:Exec.serial q);
  let result = Filename.concat dir (done_id ^ ".result") in
  let line = read_file result in
  write_file result (String.sub line 0 (String.length line / 2));
  let in_path = Filename.temp_file "mdsp_serve" ".in" in
  write_file in_path (P.encode_request (P.Result done_id) ^ "\n");
  let out_path = Filename.temp_file "mdsp_serve" ".out" in
  let input = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let output = open_out out_path in
  Server.serve ~quantum:40 ~dir ~input ~output ();
  Unix.close input;
  close_out output;
  (match P.decode_response (String.trim (read_file out_path)) with
  | Ok (P.Error msg) ->
      check_true "corrupt result reported"
        (contains ~needle:"corrupt result record" msg)
  | _ -> Alcotest.fail "a cut .result should answer an error");
  Sys.remove in_path;
  Sys.remove out_path;
  rm_rf dir

let () =
  Alcotest.run "service"
    [
      ( "job",
        [
          Alcotest.test_case "codec basics" `Quick test_job_codec_basic;
          Alcotest.test_case "decode errors" `Quick test_job_decode_errors;
          job_codec_fuzz;
        ] );
      ( "json",
        [
          json_float_fuzz;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
        ] );
      ( "protocol",
        [
          request_codec_fuzz;
          response_codec_fuzz;
          Alcotest.test_case "malformed requests" `Quick
            test_malformed_requests;
        ] );
      ( "queue",
        [
          Alcotest.test_case "persistence across restart" `Quick
            test_queue_restart;
          Alcotest.test_case "torn spool records" `Quick
            test_torn_spool_records;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "preempted = uninterrupted (1/2/4 slots)"
            `Quick test_preemption_identity;
          Alcotest.test_case "unknown preset fails the job" `Quick
            test_unknown_preset_fails_job;
          Alcotest.test_case "torn checkpoint fails only its job" `Quick
            test_torn_ckpt_fails_job;
        ] );
      ( "serve",
        [
          Alcotest.test_case "end to end over a scripted fd" `Quick
            test_serve_end_to_end;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "clear errors, atomic writes" `Quick
            test_checkpoint_errors;
        ] );
    ]
