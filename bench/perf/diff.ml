(* Compare two sets of perf.exe records, one row per workload and metric.

   diff.exe [--bench BENCHMARK.json] OLD.json... -- NEW.json...

   Each row gives both sides' median and quartiles, the share of (old, new)
   run pairs the new side wins (ties count for neither) and a verdict:

   - better: new wins at least 9 in 10 pairs and the medians differ by more
     than the old side's interquartile range;
   - worse: the new median is worse than the old by more than the metric's
     bound in BENCHMARK.json;
   - unresolved: either side's spread exceeds the bound, so "unchanged"
     cannot be told from noise;
   - unchanged: otherwise.

   Per-layer metrics have no bound and are only ever better, worse (the
   mirror of better) or "-". The exit code is 1 when any row is worse. *)

open Mdsp_util

type metric = { better_higher : bool; bound : float option }

let die msg =
  prerr_endline ("diff: " ^ msg);
  exit 2

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> die msg
  | text -> (
      match Json.of_string (String.trim text) with
      | Ok v -> v
      | Error msg -> die (path ^ ": " ^ msg))

let list_field name v =
  match Json.field name v with Some (Json.Arr l) -> l | _ -> []

let str_field name v = Option.bind (Json.field name v) Json.to_str

(* metric name -> direction and bound, from BENCHMARK.json *)
let catalogue path =
  let bench = read_json path in
  let entry v =
    match (str_field "name" v, str_field "better" v) with
    | Some name, Some better ->
        Some
          ( name,
            {
              better_higher = better = "higher";
              bound = Option.bind (Json.field "bound" v) Json.to_num;
            } )
    | _ -> None
  in
  List.filter_map entry (list_field "end_to_end" bench @ list_field "per_layer" bench)

(* (workload, metric) -> values, one per record *)
let load paths =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun path ->
      let r = read_json path in
      let workload = Option.value (str_field "workload" r) ~default:"?" in
      match Json.field "metrics" r with
      | Some (Json.Obj ms) ->
          List.iter
            (fun (name, m) ->
              match Option.bind (Json.field "value" m) Json.to_num with
              | Some v ->
                  let k = (workload, name) in
                  Hashtbl.replace tbl k
                    (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
              | None -> ())
            ms
      | _ -> die (path ^ ": no metrics"))
    paths;
  tbl

let quartiles = function
  | [ x ] -> (x, x, x)
  | xs -> Quantile.quartiles xs

(* Share of (old, new) pairs in which new reads better. *)
let won ~better_higher olds news =
  let better o n = if better_higher then n > o else n < o in
  let wins =
    List.fold_left
      (fun acc o -> acc + List.length (List.filter (better o) news))
      0 olds
  in
  float_of_int wins /. float_of_int (List.length olds * List.length news)

let verdict m olds news =
  let o1, om, o3 = quartiles olds and n1, nm, n3 = quartiles news in
  let w = won ~better_higher:m.better_higher olds news in
  let worse_by =
    (if m.better_higher then om -. nm else nm -. om) /. Float.abs om
  in
  let spread lo mid hi = if mid = 0. then 0. else (hi -. lo) /. Float.abs mid in
  let gain = w >= 0.9 && Float.abs (nm -. om) > o3 -. o1 in
  let loss = w <= 0.1 && Float.abs (nm -. om) > o3 -. o1 in
  let v =
    match m.bound with
    | None -> if gain then "better" else if loss then "worse" else "-"
    | Some b ->
        if gain then "better"
        else if worse_by > b then "worse"
        else if Float.max (spread o1 om o3) (spread n1 nm n3) > b && w < 1. then
          "unresolved"
        else "unchanged"
  in
  ((o1, om, o3), (n1, nm, n3), w, v)

let () =
  let bench = ref "BENCHMARK.json" and olds = ref [] and news = ref [] in
  let seen_sep = ref false in
  let rec parse = function
    | "--bench" :: p :: rest ->
        bench := p;
        parse rest
    | "--" :: rest ->
        seen_sep := true;
        parse rest
    | f :: rest ->
        if !seen_sep then news := f :: !news else olds := f :: !olds;
        parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !olds = [] || !news = [] then
    die "usage: diff.exe [--bench BENCHMARK.json] OLD.json... -- NEW.json...";
  let metrics = catalogue !bench in
  let old_t = load !olds and new_t = load !news in
  let keys =
    Hashtbl.fold (fun k _ acc -> if Hashtbl.mem new_t k then k :: acc else acc) old_t []
    |> List.sort compare
  in
  Printf.printf "%-14s %-36s %-28s %-28s %5s  %s\n" "workload" "metric"
    "old median [q1, q3]" "new median [q1, q3]" "won" "verdict";
  let any_worse = ref false in
  List.iter
    (fun ((workload, name) as k) ->
      match List.assoc_opt name metrics with
      | None -> ()
      | Some m ->
          let (o1, om, o3), (n1, nm, n3), w, v =
            verdict m (Hashtbl.find old_t k) (Hashtbl.find new_t k)
          in
          if v = "worse" then any_worse := true;
          let cell lo mid hi = Printf.sprintf "%.4g [%.4g, %.4g]" mid lo hi in
          Printf.printf "%-14s %-36s %-28s %-28s %5.2f  %s\n" workload name
            (cell o1 om o3) (cell n1 nm n3) w v)
    keys;
  exit (if !any_worse then 1 else 0)
