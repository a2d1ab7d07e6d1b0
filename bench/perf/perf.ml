(* The repository benchmark. See README.md in this directory.

   perf.exe --workload W --seed N [--seconds S] [--trace 0|1] [--out DIR]

   runs one workload in this process and prints every metric as
   "name value unit", then one JSON summary line. --trace 0 measures the
   end-to-end metrics; --trace 1 the per-layer ones, and writes the span
   trace. The exit code is 0 when every correctness check passed, 1 when
   one failed, 2 on a usage or internal error. --workload all runs each
   workload in a child process of its own. *)

open Mdsp_util

let workloads =
  List.map (fun (s : Md_bench.spec) -> s.name) Md_bench.workloads @ [ "service_mix" ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path s =
  Out_channel.with_open_text path (fun oc ->
      output_string oc s;
      output_char oc '\n')

let run_one ~workload ~seed ~seconds ~traced ~quick ~skip_minimize ~out =
  mkdir_p out;
  Tracer.run_id := seed;
  let checks = Report.checks () in
  let md () =
    let spec = List.find (fun (s : Md_bench.spec) -> s.name = workload) Md_bench.workloads in
    let spec = if quick then Md_bench.quick_spec spec else spec in
    if skip_minimize then { spec with minimize = 0 } else spec
  in
  let length = if quick then Md_bench.Steps 20 else Md_bench.Seconds seconds in
  let values, samples =
    match (workload, traced) with
    | "service_mix", false -> Service_bench.run checks ~seed ~length ~out
    | "service_mix", true -> Service_bench.run_traced checks ~seed ~length ~out
    | _, false -> Md_bench.run checks (md ()) ~seed ~length
    | _, true ->
        Md_bench.run_traced checks (md ()) ~seed ~length
          ~service:(Service_bench.reference checks ~seed ~out)
  in
  let values = ("peak_rss_mb", Host.peak_rss_mb ()) :: values in
  let r =
    {
      Report.workload;
      seed;
      seconds;
      traced;
      slots = Md_bench.slots;
      checks;
      values = Report.select ~traced values;
      samples = (if traced then samples @ Layer.counts () else samples);
    }
  in
  let stem =
    Filename.concat out (Printf.sprintf "%s-seed%d%s" workload seed (if traced then ".traced" else ""))
  in
  write_file (stem ^ ".json") (Json.to_string (Report.record_json r));
  if traced then Tracer.write (stem ^ ".trace.json");
  Report.print_lines r;
  print_endline (Json.to_string (Report.summary_json r));
  if Report.correct r then 0 else 1

(* Each workload in its own process, so peak_rss_mb is per workload. *)
let run_all args =
  List.fold_left
    (fun code w ->
      let argv = Array.of_list ((Sys.executable_name :: "--workload" :: w :: args)) in
      let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED c -> max code c
      | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 2)
    0 workloads

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let out = ref "bench/perf/_out" and quick = ref false and skip_minimize = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workloads ^ ", or all");
      ("--seed", Arg.Set_int seed, "N seed for every generated input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 1 measures the per-layer metrics and writes a trace");
      ("--out", Arg.Set_string out, "DIR where records, traces and spools go (default bench/perf/_out)");
      ("--quick", Arg.Set quick, " smoke test: one set-up, 20-step windows, 2 jobs per client; ignores --seconds");
      ("--skip-minimize", Arg.Set skip_minimize, " self-test: chain10k_min without minimization must fail");
    ]
  in
  let usage = "perf.exe --workload W --seed N [--seconds S] [--trace 0|1] [--out DIR]" in
  let die msg = prerr_endline ("perf: " ^ msg); exit 2 in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage with
  | Arg.Bad msg -> die msg
  | Arg.Help msg -> print_string msg; exit 0);
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seconds <= 0. then die "--seconds must be positive";
  if !workload = "all" then begin
    let args =
      [ "--seed"; string_of_int !seed; "--seconds"; string_of_float !seconds;
        "--trace"; string_of_int !trace; "--out"; !out ]
      @ (if !quick then [ "--quick" ] else [])
    in
    exit (run_all args)
  end;
  if not (List.mem !workload workloads) then die ("unknown workload " ^ !workload ^ "; " ^ usage);
  if !skip_minimize && !workload <> "chain10k_min" then die "--skip-minimize applies to chain10k_min";
  match
    run_one ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
      ~quick:!quick ~skip_minimize:!skip_minimize ~out:!out
  with
  | code -> exit code
  | exception (Failure msg | Sys_error msg) -> die msg
