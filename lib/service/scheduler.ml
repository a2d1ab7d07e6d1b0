open Mdsp_util
module E = Mdsp_md.Engine
module Remd = Mdsp_core.Remd
module W = Mdsp_workload.Workloads
module Checkpoint = Mdsp_ensemble.Checkpoint

(* How many MD steps a job advances per slice before it must yield its
   slot. The scheduler preempts only at these checkpoint boundaries, so the
   quantum trades fairness (small) against snapshot/restore overhead
   (large). REMD jobs round it to whole exchange sweeps. *)
let default_quantum = 250

type instance = Single_eng of E.t | Ladder of Remd.t

type t = {
  exec : Exec.t;
  queue : Queue.t;
  quantum : int;
  instances : (string, instance) Hashtbl.t;
}

let create ?(quantum = default_quantum) ~exec queue =
  if quantum < 1 then invalid_arg "Scheduler.create: quantum must be >= 1";
  { exec; queue; quantum; instances = Hashtbl.create 16 }

let quantum t = t.quantum

(* --- job instantiation (caller domain only) --- *)

let langevin = E.Langevin { gamma_fs = 0.02 }

let remd_ladder ~preset ~dt_fs ~seed ~replicas ~temp_min ~temp_max ~stride =
  (* Geometric ladder: uniform acceptance across rungs wants constant
     temperature ratios. *)
  let temps =
    Array.init replicas (fun i ->
        temp_min
        *. ((temp_max /. temp_min)
           ** (float_of_int i /. float_of_int (replicas - 1))))
  in
  let engines =
    Array.mapi
      (fun i temp ->
        let sys = W.of_name preset in
        let cfg =
          {
            E.default_config with
            dt_fs;
            temperature = temp;
            thermostat = langevin;
          }
        in
        W.make_engine ~config:cfg ~seed:(seed + i) sys)
      temps
  in
  Remd.create ~engines ~temps ~stride ~seed

let build_fresh (spec : Job.spec) =
  match spec.kind with
  | Job.Single ->
      let sys = W.of_name spec.preset in
      let cfg =
        {
          E.default_config with
          dt_fs = spec.dt_fs;
          temperature = spec.temperature;
          thermostat = langevin;
        }
      in
      Single_eng (W.make_engine ~config:cfg ~seed:spec.seed sys)
  | Job.Remd r ->
      Ladder
        (remd_ladder ~preset:spec.preset ~dt_fs:spec.dt_fs ~seed:spec.seed
           ~replicas:r.replicas ~temp_min:r.temp_min ~temp_max:r.temp_max
           ~stride:r.stride)

(* The engines a checkpoint holds, plus the exchange bookkeeping for a
   ladder: the one mapping the slice save, the resume and [uninterrupted]
   share. *)
let checkpointed = function
  | Single_eng eng -> (None, [| eng |])
  | Ladder ladder -> (Some ladder, Remd.engines ladder)

let save_ckpt (spec : Job.spec) path inst =
  let remd, engines = checkpointed inst in
  Checkpoint.save ~preset:spec.Job.preset path ?remd engines

let instance_of t (e : Queue.entry) =
  match Hashtbl.find_opt t.instances e.Queue.id with
  | Some inst -> inst
  | None ->
      let inst = build_fresh e.Queue.spec in
      let ckpt = Queue.ckpt_path t.queue e in
      (if Sys.file_exists ckpt then
         let remd, engines = checkpointed inst in
         Checkpoint.resume ~expect_preset:e.Queue.spec.Job.preset ckpt ?remd
           engines);
      Hashtbl.add t.instances e.Queue.id inst;
      inst

(* --- progress accounting --- *)

(* An REMD job's budget is whole sweeps, exactly as `mdsp ensemble` rounds
   it: max 1 (steps / stride). *)
let total_sweeps (spec : Job.spec) stride =
  max 1 (spec.Job.steps / stride)

let progress (spec : Job.spec) inst =
  match inst with
  | Single_eng eng -> (E.steps_done eng, spec.Job.steps)
  | Ladder ladder ->
      let stride = Remd.stride ladder in
      let sweeps = total_sweeps spec stride in
      (Remd.sweeps_done ladder * stride, sweeps * stride)

let advance inst ~budget_steps =
  match inst with
  | Single_eng eng -> if budget_steps > 0 then E.run eng budget_steps
  | Ladder ladder ->
      let stride = Remd.stride ladder in
      let sweeps = max 1 (budget_steps / stride) in
      if budget_steps > 0 then Remd.run ladder ~sweeps

let slice_budget t (spec : Job.spec) inst =
  match inst with
  | Single_eng eng -> min t.quantum (spec.Job.steps - E.steps_done eng)
  | Ladder ladder ->
      let stride = Remd.stride ladder in
      let remaining = total_sweeps spec stride - Remd.sweeps_done ladder in
      min (max 1 (t.quantum / stride)) remaining * stride

let observables inst =
  match inst with
  | Single_eng eng ->
      [
        ("steps", float_of_int (E.steps_done eng));
        ("e_total", E.total_energy eng);
        ("e_pot", E.potential_energy eng);
        ("temperature", E.temperature eng);
      ]
  | Ladder ladder ->
      let acc = Remd.acceptance ladder in
      let mean =
        if Array.length acc = 0 then 0.
        else Array.fold_left ( +. ) 0. acc /. float_of_int (Array.length acc)
      in
      [
        ("steps", float_of_int (Remd.sweeps_done ladder * Remd.stride ladder));
        ("sweeps", float_of_int (Remd.sweeps_done ladder));
        ("acc_mean", mean);
        ("e_total_r0", E.total_energy (Remd.engines ladder).(0));
      ]

let result_line (e : Queue.entry) obs =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str e.Queue.id);
         ("label", Json.Str e.Queue.spec.Job.label);
         ("observables", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) obs));
       ])

(* --- the slice --- *)

let finalize t (e : Queue.entry) inst =
  save_ckpt e.Queue.spec (Queue.ckpt_path t.queue e) inst;
  Queue.write_result t.queue e (result_line e (observables inst));
  let done_steps, _ = progress e.Queue.spec inst in
  e.Queue.steps_done <- done_steps;
  Queue.set_status t.queue e Queue.Done;
  Hashtbl.remove t.instances e.Queue.id

let run_slice t =
  let n_slots = Exec.n_slots t.exec in
  (* Instantiate on the caller (engine construction and checkpoint I/O
     stay out of the parallel region); a bad preset or unreadable
     checkpoint fails the job here with the underlying message, and when
     every job taken fails the next runnable ones get the slice, so 0
     still means nothing is runnable. *)
  let rec take () =
    match Queue.take_batch t.queue n_slots with
    | [] -> []
    | taken -> (
        match
          List.filter_map
            (fun (e : Queue.entry) ->
              match instance_of t e with
              | inst ->
                  Queue.set_status t.queue e Queue.Running;
                  Some (e, inst)
              | exception Failure msg ->
                  Queue.set_status t.queue e (Queue.Failed msg);
                  Hashtbl.remove t.instances e.Queue.id;
                  None)
            taken
        with
        | [] -> take ()
        | batch -> batch)
  in
  match take () with
  | [] -> 0
  | batch ->
      let jobs = Array.of_list batch in
      let nb = Array.length jobs in
      ignore
        (Exec.map_slots ~phase:"service.jobs" t.exec (fun slot ->
             if slot < nb then begin
               let e, inst = jobs.(slot) in
               (* A slice advances the slot's own job in place: a
                  read-modify-write of that job's engine state. *)
               Exec.declare_write ~slot ~resource:"service.jobs" ~total:nb
                 ~lo:slot ~hi:(slot + 1) t.exec;
               Exec.declare_read ~slot ~resource:"service.jobs" ~total:nb
                 ~lo:slot ~hi:(slot + 1) t.exec;
               advance inst
                 ~budget_steps:(slice_budget t e.Queue.spec inst)
             end));
      Array.iter
        (fun ((e : Queue.entry), inst) ->
          let done_steps, budget = progress e.Queue.spec inst in
          if done_steps >= budget then finalize t e inst
          else begin
            save_ckpt e.Queue.spec (Queue.ckpt_path t.queue e) inst;
            e.Queue.steps_done <- done_steps;
            Queue.set_status t.queue e Queue.Paused;
            Queue.requeue t.queue e
          end)
        jobs;
      nb

let drain t =
  while run_slice t > 0 do
    ()
  done

(* The no-preemption reference the identity tests compare against: same
   construction, same budget rounding, one uninterrupted advance. *)
let uninterrupted (spec : Job.spec) ~ckpt =
  let inst = build_fresh spec in
  let _, budget = progress spec inst in
  advance inst ~budget_steps:budget;
  save_ckpt spec ckpt inst;
  observables inst
