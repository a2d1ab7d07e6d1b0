(* Spans recorded by the benchmark around its own calls into the library.

   A span has a name, start and end on {!Clock}, the span open around it
   (0 at top level) and the run id shared by every span of one benchmark
   run. Spans are kept in memory and written once, at exit, as Chrome
   trace-event JSON, which chrome://tracing and Perfetto open. While
   tracing is off, {!span} is a plain call. *)

open Mdsp_util

type span = { id : int; parent : int; name : string; t0 : int64; t1 : int64 }

let enabled = ref false
let run_id = ref 0
let spans = ref []
let next_id = ref 1
let open_spans = ref []
let origin = Clock.now_ns ()

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> 0 in
    open_spans := id :: !open_spans;
    let t0 = Clock.now_ns () in
    Fun.protect f ~finally:(fun () ->
        open_spans := List.tl !open_spans;
        spans := { id; parent; name; t0; t1 = Clock.now_ns () } :: !spans)
  end

(* [timed name f] is [span name f] paired with its duration in seconds;
   the duration is measured whether or not tracing is on. *)
let timed name f = Clock.time (fun () -> span name f)

let write path =
  let us t = Int64.to_float (Int64.sub t origin) *. 1e-3 in
  let num i = Json.Num (float_of_int i) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str "mdsp");
        ("ph", Json.Str "X");
        ("ts", Json.Num (us s.t0));
        ("dur", Json.Num (us s.t1 -. us s.t0));
        ("pid", num 1);
        ("tid", num !run_id);
        ("args", Json.Obj [ ("id", num s.id); ("parent", num s.parent); ("run", num !run_id) ]);
      ]
  in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.Arr (List.rev_map event !spans));
        ("displayTimeUnit", Json.Str "ms");
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')
