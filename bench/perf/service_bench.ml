(* service_mix: a closed loop of clients driving the job service in one
   process. Each client submits its next job only once its previous one
   reads Done, so a slower service receives less load, as pipeline clients
   that wait for each result do. *)

open Mdsp_util
module Queue = Mdsp_service.Queue
module Scheduler = Mdsp_service.Scheduler
module Job = Mdsp_service.Job

let quantum = 40
let clients = 8

(* Every fifth job (by global index, offset by the seed) is a 4-replica
   REMD ladder; the rest are single runs. Both are lj64, the preset whose
   jobs are short enough that queueing, preemption and checkpoint I/O
   weigh as much as the MD. *)
let spec ~seed g =
  let label = Printf.sprintf "perf-%d-%d" seed g in
  let base =
    {
      Job.label;
      preset = "lj64";
      steps = 160;
      dt_fs = Md_bench.dt_fs;
      temperature = 120.;
      seed = (seed * 100_003) + g;
      kind = Job.Single;
    }
  in
  if (g + seed) mod 5 = 0 then
    {
      base with
      steps = 200;
      kind = Job.Remd { replicas = 4; temp_min = 100.; temp_max = 160.; stride = 20 };
    }
  else base

(* Steps integrated by a job, summed over its replicas. *)
let trajectory_steps (s : Job.spec) =
  match s.kind with
  | Job.Single -> s.steps
  | Job.Remd r -> r.replicas * max 1 (s.steps / r.stride) * r.stride

(* --- spool directories --- *)

let spools = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A fresh spool under [out]; the benchmark writes nowhere else. *)
let fresh_spool ~out =
  incr spools;
  let dir = Filename.concat out (Printf.sprintf "spool-%d-%d" (Unix.getpid ()) !spools) in
  rm_rf dir;
  dir

type service = { dir : string; queue : Queue.t; sched : Scheduler.t; pool : Exec.t }

(* Set-up is what `mdsp serve` does before it takes a request: open the
   spool, start the pool, create the scheduler. *)
let setup ~out ~pool =
  let dir = fresh_spool ~out in
  let queue = Queue.create ~dir in
  { dir; queue; sched = Scheduler.create ~quantum ~exec:pool queue; pool }

(* --- the loop --- *)

type stats = {
  mutable turnarounds : float list;  (** seconds, submit to Done *)
  mutable jobs : int;
  mutable steps : int;  (** trajectory steps of the finished jobs *)
  mutable wall : float;
  mutable slices : float list;
  mutable submits : float list;
  mutable depths : float list;  (** runnable jobs before each slice *)
  mutable preemptions : int;
  mutable ckpt_bytes : float;  (** checkpoint bytes after each slice, summed *)
  mutable accept : float list;  (** REMD acceptance of each finished ladder *)
}

let file_size path =
  try float_of_int (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0.

(* A finished job passes when its result holds only finite observables;
   returns its REMD acceptance, if it has one. *)
let check_result checks (svc : service) id =
  let obs =
    Option.bind (Queue.read_result svc.queue id) (fun line ->
        match Json.of_string line with
        | Ok v -> Json.field "observables" v
        | Error _ -> None)
  in
  match obs with
  | Some (Json.Obj kvs) ->
      let finite (_, v) =
        match Json.to_num v with Some x -> Float.is_finite x | None -> false
      in
      Report.check checks (List.for_all finite kvs)
        (Printf.sprintf "job %s: non-finite observables" id);
      Option.bind (List.assoc_opt "acc_mean" kvs) Json.to_num
  | _ ->
      Report.check checks false (Printf.sprintf "job %s: no readable result" id);
      None

(* Run the closed loop: [clients] clients submit jobs numbered from
   [first] until [seconds] have passed or each has submitted [per_client];
   then the jobs in flight finish. With [observe], the queue is inspected
   around every slice for the per-layer counters, and [on_slice k] runs
   after the k-th slice, outside its span. Returns the statistics and the
   next free job number. *)
let loop ?(observe = false) ?(on_slice = fun _ -> ()) ?per_client checks svc
    ~seed ~first ~clients ~seconds =
  let t0 = Clock.now_ns () in
  let next = ref first in
  let submitted = Array.make clients 0 in
  let pending = Array.make clients None in
  let st =
    {
      turnarounds = [];
      jobs = 0;
      steps = 0;
      wall = 0.;
      slices = [];
      submits = [];
      depths = [];
      preemptions = 0;
      ckpt_bytes = 0.;
      accept = [];
    }
  in
  let may_submit c =
    Clock.seconds_since t0 < seconds
    && match per_client with Some n -> submitted.(c) < n | None -> true
  in
  let submit c =
    let s = spec ~seed !next in
    incr next;
    submitted.(c) <- submitted.(c) + 1;
    let r, dt = Tracer.timed "Queue.submit" (fun () -> Queue.submit svc.queue s) in
    st.submits <- dt :: st.submits;
    match r with
    | Ok e -> pending.(c) <- Some (e.Queue.id, s, Clock.now_ns ())
    | Error msg -> Report.check checks false ("submit refused: " ^ msg)
  in
  let status id = Option.map (fun (e : Queue.entry) -> e.status) (Queue.find svc.queue id) in
  let settle c =
    match pending.(c) with
    | None -> ()
    | Some (id, s, t_sub) -> (
        match status id with
        | Some Queue.Done ->
            pending.(c) <- None;
            st.turnarounds <- Clock.seconds_since t_sub :: st.turnarounds;
            st.jobs <- st.jobs + 1;
            st.steps <- st.steps + trajectory_steps s;
            Option.iter
              (fun a -> st.accept <- a :: st.accept)
              (check_result checks svc id)
        | Some (Queue.Failed msg) ->
            pending.(c) <- None;
            Report.check checks false (Printf.sprintf "job %s failed: %s" id msg)
        | Some (Queue.Pending | Queue.Running | Queue.Paused) -> ()
        | None ->
            pending.(c) <- None;
            Report.check checks false (Printf.sprintf "job %s vanished" id))
  in
  let slices = ref 0 in
  let rec go () =
    for c = 0 to clients - 1 do
      if pending.(c) = None && may_submit c then submit c
    done;
    if Array.exists Option.is_some pending then begin
      let batch =
        if not observe then []
        else begin
          st.depths <- float_of_int (List.length (Queue.runnable svc.queue)) :: st.depths;
          List.map
            (fun (e : Queue.entry) -> e.id)
            (Queue.take_batch svc.queue (Exec.n_slots svc.pool))
        end
      in
      let _, dt =
        Tracer.timed "Scheduler.run_slice" (fun () -> Scheduler.run_slice svc.sched)
      in
      st.slices <- dt :: st.slices;
      List.iter
        (fun id ->
          Option.iter
            (fun (e : Queue.entry) ->
              st.ckpt_bytes <- st.ckpt_bytes +. file_size (Queue.ckpt_path svc.queue e);
              if e.status = Queue.Paused then st.preemptions <- st.preemptions + 1)
            (Queue.find svc.queue id))
        batch;
      for c = 0 to clients - 1 do
        settle c
      done;
      incr slices;
      on_slice !slices;
      go ()
    end
  in
  go ();
  st.wall <- Clock.seconds_since t0;
  (st, !next)

(* After a loop: the spool holds no orphans. *)
let finish checks svc =
  let orphans = Queue.orphans ~dir:svc.dir in
  Report.check checks (orphans = [])
    ("spool orphans: " ^ String.concat ", " orphans);
  let files = Array.length (Sys.readdir svc.dir) in
  rm_rf svc.dir;
  files

let end_to_end (s : stats) =
  [
    ("ns_per_day", float_of_int s.steps *. Md_bench.dt_fs *. 1e-6 /. s.wall *. 86400.);
    ("latency_ms_p50", Md_bench.ms Quantile.median s.turnarounds);
    ("latency_ms_tail", Md_bench.ms Quantile.tail s.turnarounds);
  ]

let layer_values (s : stats) ~spool_files =
  let med = function [] -> 0. | xs -> Quantile.median xs in
  let n_slices = float_of_int (max 1 (List.length s.slices)) in
  [
    ("service.slice_ms_p50", med s.slices *. 1e3);
    ("service.submit_ms_p50", med s.submits *. 1e3);
    ("service.ckpt_kb_per_slice", s.ckpt_bytes /. 1024. /. n_slices);
    ("service.preemptions_per_job", float_of_int s.preemptions /. float_of_int (max 1 s.jobs));
    ("service.queue_depth_p50", med s.depths);
    ("service.spool_files", float_of_int spool_files);
    ("core.remd.accept_ratio", med s.accept);
  ]

(* A quick run submits two jobs per client instead of running for a
   time. *)
let budget = function
  | Md_bench.Seconds s -> (s, None)
  | Md_bench.Steps _ -> (infinity, Some 2)

let release svc =
  Exec.shutdown svc.pool;
  rm_rf svc.dir

(* The untraced run: the end-to-end metrics. Every set-up opens its own
   spool; only the last one is driven. *)
let run checks ~seed ~length ~out =
  let times, svc =
    Md_bench.setups ~quick:(Md_bench.quick length) ~release (fun () ->
        setup ~out ~pool:(Md_bench.new_pool ()))
  in
  let seconds, per_client = budget length in
  let st, _ = loop ?per_client checks svc ~seed ~first:0 ~clients ~seconds in
  ignore (finish checks svc);
  Exec.shutdown svc.pool;
  ( end_to_end st @ [ ("setup_s", Quantile.median times) ],
    [ ("jobs", st.jobs); ("slices", List.length st.slices); ("setups", List.length times) ] )

(* The service layer on a fixed small mix (2 clients x 3 jobs, one of
   them REMD): the service.* values of the MD workloads' traced runs. *)
let reference checks ~seed ~out pool =
  let svc = setup ~out ~pool in
  let st, _ =
    loop ~observe:true checks svc ~seed ~first:0 ~clients:2 ~per_client:3
      ~seconds:infinity
  in
  layer_values st ~spool_files:(finish checks svc)

(* The traced run: half the window untraced, half traced. The MD layers
   are probed on one single-run job engine, stepped ten steps and probed
   after every tenth slice. *)
let run_traced checks ~seed ~length ~out =
  Tracer.enabled := true;
  let svc = Tracer.span "setup" (fun () -> setup ~out ~pool:(Md_bench.new_pool ())) in
  let pool = svc.pool in
  Tracer.enabled := false;
  let seconds, per_client = budget (Md_bench.half length) in
  let su, next = loop ?per_client checks svc ~seed ~first:0 ~clients ~seconds in
  Tracer.enabled := true;
  let job = Md_bench.lj64_job and jseed = (spec ~seed next).seed in
  let live = Md_bench.build job ~seed:jseed ~exec:Exec.serial ~minimize:false in
  let p = Md_bench.make_probe job ~seed:jseed ~exec:Exec.serial ~pool in
  let probe () =
    for _ = 1 to 10 do
      Mdsp_md.Engine.step live.eng
    done;
    Md_bench.round p (Mdsp_md.Engine.state live.eng)
  in
  let st, _ =
    loop ~observe:true ?per_client checks svc ~seed ~first:next ~clients ~seconds
      ~on_slice:(fun k -> if k mod 10 = 0 then probe ())
  in
  let spool_files = finish checks svc in
  if p.rounds = 0 then probe ();
  Tracer.enabled := false;
  let w, stepping =
    Md_bench.observe checks live.eng
      ~length:(if Md_bench.quick length then length else Md_bench.Seconds 0.5)
  in
  Md_bench.final_checks checks job live.eng;
  let snap = Mdsp_md.Engine.snapshot live.eng in
  let step_ms_p50 = Md_bench.ms Quantile.median w.durs in
  Tracer.enabled := true;
  Md_bench.finish p ~snap ~step_s:(step_ms_p50 /. 1e3) ~length;
  Tracer.enabled := false;
  Exec.shutdown pool;
  let p50 (s : stats) = Quantile.median s.turnarounds in
  ( stepping
    @ Md_bench.probe_values ~step_ms_p50
    @ layer_values st ~spool_files
    @ [
        ("md.constraints.max_violation", Md_bench.max_violation live.eng);
        ("trace.overhead_frac", (p50 st /. p50 su) -. 1.);
        ( "util.exec.barriers_per_step",
          Md_bench.count_barriers job ~seed:jseed ~slots:1 ~snap );
      ],
    [ ("jobs", su.jobs); ("traced_jobs", st.jobs); ("probe_rounds", p.rounds) ] )
