(* Smoke test of the benchmark, with shortened step and job counts
   (--quick), so that it does not depend on the speed of the machine:

   - every workload, untraced and traced, passes its correctness checks
     and emits exactly the metrics BENCHMARK.json lists for that mode, each
     with its unit, both as "name value unit" lines and in the closing JSON
     summary;
   - the traced run's trace file parses as JSON and holds spans;
   - the seeded unstable run (chain10k_min without its minimization)
     fails and names the first non-finite step.

   Usage: smoke.exe PERF_EXE BENCHMARK_JSON *)

open Mdsp_util

let perf = Sys.argv.(1)
let out = "_smoke_out"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let parse what text =
  match Json.of_string (String.trim text) with
  | Ok v -> v
  | Error e -> fail "%s: not JSON (%s)" what e

let read path = In_channel.with_open_text path In_channel.input_all
let bench = parse "BENCHMARK.json" (read Sys.argv.(2))
let list name v = match Json.field name v with Some (Json.Arr l) -> l | _ -> []
let str name v = Option.value ~default:"" (Option.bind (Json.field name v) Json.to_str)
let catalogue key = List.map (fun m -> (str "name" m, str "unit" m)) (list key bench)

(* Run perf.exe; returns its exit code and stdout lines. *)
let run args =
  let ic = Unix.open_process_args_in perf (Array.of_list (perf :: args)) in
  let text = In_channel.input_all ic in
  let code =
    match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> 255
  in
  (code, String.split_on_char '\n' (String.trim text))

let last lines = List.nth lines (List.length lines - 1)

let check_run workload traced =
  let what = Printf.sprintf "%s --trace %d" workload (if traced then 1 else 0) in
  let code, lines =
    run
      [ "--workload"; workload; "--seed"; "7"; "--quick";
        "--trace"; (if traced then "1" else "0"); "--out"; out ]
  in
  if code <> 0 then fail "%s exited %d:\n%s" what code (String.concat "\n" lines);
  let summary = parse what (last lines) in
  if Json.field "correct" summary <> Some (Json.Bool true) then fail "%s: not correct" what;
  if Option.bind (Json.field "failed" summary) Json.to_int <> Some 0 then fail "%s: failed checks" what;
  let metrics = match Json.field "metrics" summary with Some (Json.Obj m) -> m | _ -> [] in
  let expected = catalogue (if traced then "per_layer" else "end_to_end") in
  if List.length metrics <> List.length expected then
    fail "%s: %d metrics, BENCHMARK.json lists %d" what (List.length metrics)
      (List.length expected);
  List.iter
    (fun (name, unit_) ->
      (match List.assoc_opt name metrics with
      | None -> fail "%s: metric %s missing" what name
      | Some m ->
          if str "unit" m <> unit_ then fail "%s: %s has unit %s, not %s" what name (str "unit" m) unit_;
          (match Option.bind (Json.field "value" m) Json.to_num with
          | Some v when Float.is_finite v -> ()
          | _ -> fail "%s: %s has no finite value" what name));
      let printed l =
        match String.split_on_char ' ' l with
        | [ n; _; u ] -> n = name && u = unit_
        | _ -> false
      in
      if not (List.exists printed lines) then fail "%s: no line \"%s <value> %s\"" what name unit_)
    expected;
  if traced then begin
    let trace = Filename.concat out (Printf.sprintf "%s-seed7.traced.trace.json" workload) in
    if list "traceEvents" (parse trace (read trace)) = [] then fail "%s: empty trace" what
  end

let () =
  List.iter
    (fun w ->
      let name = str "name" w in
      check_run name false;
      check_run name true)
    (list "workloads" bench);
  let code, lines =
    run [ "--workload"; "chain10k_min"; "--skip-minimize"; "--seed"; "1"; "--quick"; "--out"; out ]
  in
  if code <> 1 then fail "unstable chain: exit %d, expected 1" code;
  let names_step l =
    String.length l > 40 && String.sub l 0 40 = "failure: first non-finite total energy a"
  in
  if not (List.exists names_step lines) then fail "unstable chain: first non-finite step not named";
  let summary = parse "unstable chain" (last lines) in
  if Json.field "correct" summary <> Some (Json.Bool false) then fail "unstable chain: reported correct";
  print_endline "smoke: ok"
