(* The metric catalogue, the correctness tally, and the three renderings of
   a result: one "name value unit" line per metric, the JSON record
   written under --out, and the one-line JSON summary that ends stdout.

   BENCHMARK.json repeats the catalogue with a regression bound per
   end-to-end metric; the smoke test checks that the two agree. *)

open Mdsp_util

type better = Higher | Lower
type def = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* What a user of each workload sees. "latency" is one Engine.step on the
   MD workloads and one job, from Queue.submit until it reads Done, on
   service_mix. Its tail is the highest quantile with ten samples beyond
   it (Quantile.tail): a fixed percentile such as p90 would sit on the
   shoulder of the step-time distribution and swing from run to run. *)
let end_to_end =
  [
    m "ns_per_day" "ns/day" Higher;
    m "latency_ms_p50" "ms" Lower;
    m "latency_ms_tail" "ms" Lower;
    m "setup_s" "s" Lower;
    m "peak_rss_mb" "MiB" Lower;
  ]

(* Reported by the traced run of every workload; README.md maps each one
   to the end-to-end metric it moves and the workloads it moves it on. *)
let per_layer =
  [
    m "util.exec.barrier_us" "us" Lower;
    m "util.exec.barriers_per_step" "count" Lower;
    m "util.exec.scaling_eff" "ratio" Higher;
    m "space.nlist.rebuild_ms" "ms" Lower;
    m "space.nlist.rebuilds_per_100_steps" "count" Lower;
    m "space.nlist.pairs" "count" Lower;
    m "space.cell.build_ms" "ms" Lower;
    m "ff.bonded_ms" "ms" Lower;
    m "machine.table_pair_ns_per_pair" "ns" Lower;
    m "machine.table_set_kb" "KiB" Lower;
    m "core.table.compile_ms" "ms" Lower;
    m "core.remd.accept_ratio" "ratio" Higher;
    m "md.force.compute_ms" "ms" Lower;
    m "md.pair.ns_per_pair" "ns" Lower;
    m "md.soa.sync_ms" "ms" Lower;
    m "md.constraints.shake_ms" "ms" Lower;
    m "md.constraints.rattle_ms" "ms" Lower;
    m "md.constraints.max_violation" "ratio" Lower;
    m "md.engine.other_ms" "ms" Lower;
    m "md.engine.minor_words_per_step" "words" Lower;
    m "md.engine.major_gcs_per_1k_steps" "count" Lower;
    m "md.engine.minimize_ms_per_step" "ms" Lower;
    m "longrange.gse.spread_ms" "ms" Lower;
    m "longrange.gse.fft_ms" "ms" Lower;
    m "longrange.gse.convolve_ms" "ms" Lower;
    m "longrange.gse.gather_ms" "ms" Lower;
    m "service.slice_ms_p50" "ms" Lower;
    m "service.submit_ms_p50" "ms" Lower;
    m "service.ckpt_kb_per_slice" "KiB" Lower;
    m "service.preemptions_per_job" "count" Lower;
    m "service.queue_depth_p50" "count" Lower;
    m "service.spool_files" "count" Lower;
    m "trace.overhead_frac" "ratio" Lower;
  ]

let find name =
  List.find_opt (fun d -> d.name = name) (end_to_end @ per_layer)

(* --- correctness --- *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first *)
}

let checks () = { attempted = 0; failed = 0; failures = [] }

(* [check c ok what] counts one check; [what] names it when it fails. *)
let check c ok what =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    c.failures <- what :: c.failures
  end

let fail_frac c =
  if c.attempted = 0 then 0. else float_of_int c.failed /. float_of_int c.attempted

(* --- a result --- *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  slots : int;
  checks : checks;
  values : (string * float) list;  (** catalogue metrics, catalogue order *)
  samples : (string * int) list;  (** sample counts behind the values *)
}

(* Keep the catalogue metrics the run is meant to report, in catalogue
   order. A missing one is a bug in the benchmark, not a measurement. *)
let select ~traced values =
  List.map
    (fun d ->
      match List.assoc_opt d.name values with
      | Some v -> (d.name, v)
      | None -> failwith ("perf: metric " ^ d.name ^ " was not measured"))
    (if traced then per_layer else end_to_end)

let unit_of name = match find name with Some d -> d.unit_ | None -> "1"

let print_lines r =
  List.iter
    (fun (name, v) -> Printf.printf "%s %.6g %s\n" name v (unit_of name))
    r.values;
  List.iter (fun (name, n) -> Printf.printf "samples.%s %d count\n" name n) r.samples;
  Printf.printf "fail_frac %.6g ratio\n" (fail_frac r.checks);
  List.iter
    (fun w -> Printf.printf "failure: %s\n" w)
    (List.rev r.checks.failures)

let metrics_json r =
  Json.Obj
    (List.map
       (fun (name, v) ->
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of name)) ]))
       r.values)

let correct r = r.checks.failed = 0

let summary_json r =
  Json.Obj
    [
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.checks.attempted));
      ("failed", Json.Num (float_of_int r.checks.failed));
      ("metrics", metrics_json r);
    ]

let record_json r =
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("schema", Json.Str "mdsp-perf 1");
      ("host", Host.to_json ~slots:r.slots);
      ("workload", Json.Str r.workload);
      ("seed", num r.seed);
      ("seconds", Json.Num r.seconds);
      ("traced", Json.Bool r.traced);
      ("samples", Json.Obj (List.map (fun (k, n) -> (k, num n)) r.samples));
      ("correct", Json.Bool (correct r));
      ("attempted", num r.checks.attempted);
      ("failed", num r.checks.failed);
      ("fail_frac", Json.Num (fail_frac r.checks));
      ("failures", Json.Arr (List.rev_map (fun s -> Json.Str s) r.checks.failures));
      ("metrics", metrics_json r);
    ]
