(* Samples behind the per-layer metrics of a traced run, keyed by metric
   name. Each per-layer value is the median of its samples. *)

let table : (string, float list) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace table name
    (v :: Option.value ~default:[] (Hashtbl.find_opt table name))

let samples name = Option.value ~default:[] (Hashtbl.find_opt table name)

let median name =
  match samples name with
  | [] -> failwith ("perf: no samples for " ^ name)
  | xs -> Quantile.median xs

(* [probe metric call f] runs [f] inside a span named [call] (the library
   function it exercises) and records the duration in milliseconds as a
   sample of [metric]. *)
let probe metric call f =
  let r, dt = Tracer.timed call f in
  add metric (dt *. 1e3);
  r

(* Sample counts, reported next to the metrics they support. *)
let counts () =
  Hashtbl.fold (fun k v acc -> (k, List.length v) :: acc) table []
  |> List.sort compare
