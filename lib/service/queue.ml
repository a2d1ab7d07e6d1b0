open Mdsp_util

type status = Pending | Running | Paused | Done | Failed of string

type entry = {
  id : string;
  spec : Job.spec;
  mutable seq : int;
  mutable status : status;
  mutable steps_done : int;
}

type t = { dir : string; mutable entries : entry list; mutable next_seq : int }

let status_to_string = function
  | Pending -> "pending"
  | Running -> "running"
  | Paused -> "paused"
  | Done -> "done"
  | Failed _ -> "failed"

let job_path t id = Filename.concat t.dir (id ^ ".job")
let state_path t id = Filename.concat t.dir (id ^ ".state")
let ckpt_path t e = Filename.concat t.dir (e.id ^ ".ckpt")
let result_path t e = Filename.concat t.dir (e.id ^ ".result")

(* Every state transition lands on disk through the same atomic write the
   checkpoints use: a crash between any two transitions leaves the previous
   record intact, never a torn one. *)
let persist t e =
  let b = Buffer.create 96 in
  Buffer.add_string b "mdsp-job-state 1\n";
  Printf.bprintf b "id %s\n" e.id;
  Printf.bprintf b "seq %d\n" e.seq;
  Printf.bprintf b "status %s\n" (status_to_string e.status);
  Printf.bprintf b "steps_done %d\n" e.steps_done;
  (match e.status with
  | Failed msg ->
      Printf.bprintf b "error %s\n"
        (String.map (fun c -> if c = '\n' then ' ' else c) msg)
  | _ -> ());
  Atomic_file.write_string (state_path t e.id) (Buffer.contents b)

(* A record that exists but does not parse is an error, never a default:
   [persist] always writes the full record with a final newline, so a
   missing newline, a missing field or an unknown word means the file was
   torn or damaged, and the caller must not guess the job's state. *)
let read_state path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let ( let* ) = Result.bind in
  let* lines =
    if String.ends_with ~suffix:"\n" text then
      Ok (String.split_on_char '\n' (String.sub text 0 (String.length text - 1)))
    else Error "truncated (no final newline)"
  in
  let strip prefix l =
    let np = String.length prefix in
    if String.length l >= np && String.sub l 0 np = prefix then
      Some (String.sub l np (String.length l - np))
    else None
  in
  match lines with
  | "mdsp-job-state 1" :: rest ->
      let find name =
        Option.to_result ~none:("missing field " ^ name)
          (List.find_map (strip (name ^ " ")) rest)
      in
      let int_field name =
        let* v = find name in
        Option.to_result ~none:(Printf.sprintf "bad %s %S" name v)
          (int_of_string_opt v)
      in
      let* id = find "id" in
      let* seq = int_field "seq" in
      let* status_word = find "status" in
      let* steps_done = int_field "steps_done" in
      let* status =
        match status_word with
        | "pending" -> Ok Pending
        | "running" -> Ok Running
        | "paused" -> Ok Paused
        | "done" -> Ok Done
        | "failed" ->
            let* msg = find "error" in
            Ok (Failed msg)
        | w -> Error (Printf.sprintf "unknown status %S" w)
      in
      Ok (id, seq, status, steps_done)
  | _ -> Error "bad header"

(* The state record of job [id]: [Ok None] when there is none yet (the
   crash between [submit]'s two writes), [Error] naming the file when it
   exists but does not parse or belongs to another job. *)
let load_state ~dir id =
  let f = id ^ ".state" in
  let path = Filename.concat dir f in
  if not (Sys.file_exists path) then Ok None
  else
    match read_state path with
    | Ok ((sid, _, _, _) as st) when sid = id -> Ok (Some st)
    | Ok (sid, _, _, _) ->
        Error (Printf.sprintf "%s: unreadable (record of job %s)" f sid)
    | Error m -> Error (Printf.sprintf "%s: unreadable (%s)" f m)

let sort_entries t =
  t.entries <-
    List.sort (fun a b -> compare a.seq b.seq) t.entries

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A spec file decodes, and to the spec its name hashes from: a [.job] cut
   inside its last field can still decode, but not to its own id. *)
let load_job ~dir id =
  match Job.decode (read_file (Filename.concat dir (id ^ ".job"))) with
  | Ok spec when Job.id spec = id -> Ok spec
  | Ok _ -> Error "spec does not hash to its file name"
  | Error m -> Error m

let create ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Queue.create: %s is not a directory" dir);
  let t = { dir; entries = []; next_seq = 0 } in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".job" then begin
        let id = Filename.chop_suffix f ".job" in
        match load_job ~dir id with
        | Error _ -> () (* corrupt spool file: surfaced by [orphans] *)
        | Ok spec ->
            let e = { id; spec; seq = 0; status = Pending; steps_done = 0 } in
            (* A missing record leaves the job pending; an unreadable one
               fails it, untouched on disk, until the operator deletes it. *)
            (match load_state ~dir id with
            | Ok None -> ()
            | Ok (Some (_, seq, status, steps_done)) ->
                e.seq <- seq;
                e.status <- status;
                e.steps_done <- steps_done
            | Error m -> e.status <- Failed m);
            (* Restart recovery: a job the previous server died holding is
               requeued — from its checkpoint when one landed, from scratch
               otherwise. *)
            (match e.status with
            | Running ->
                e.status <-
                  (if Sys.file_exists (ckpt_path t e) then Paused
                   else Pending);
                persist t e
            | _ -> ());
            t.entries <- e :: t.entries;
            if e.seq >= t.next_seq then t.next_seq <- e.seq + 1
      end)
    (Sys.readdir dir);
  sort_entries t;
  t

let dir t = t.dir
let entries t = t.entries
let find t id = List.find_opt (fun e -> e.id = id) t.entries

let submit t spec =
  match Job.validate spec with
  | Error m -> Error m
  | Ok () -> (
      let id = Job.id spec in
      match find t id with
      | Some e -> Ok e
      | None ->
          let e =
            { id; spec; seq = t.next_seq; status = Pending; steps_done = 0 }
          in
          t.next_seq <- t.next_seq + 1;
          Atomic_file.write_string (job_path t id) (Job.encode spec);
          persist t e;
          t.entries <- t.entries @ [ e ];
          Ok e)

let runnable t =
  List.filter
    (fun e -> match e.status with Pending | Paused -> true | _ -> false)
    t.entries

let take_batch t n =
  let rec take k = function
    | e :: rest when k > 0 -> e :: take (k - 1) rest
    | _ -> []
  in
  take n (runnable t)

(* Send a preempted job to the back of the line: bumping [seq] (persisted)
   is what makes the scheduler's batching round-robin rather than
   head-of-line. *)
let requeue t e =
  e.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  persist t e;
  sort_entries t

let set_status t e status =
  e.status <- status;
  persist t e

let record_progress t e ~steps_done =
  e.steps_done <- steps_done;
  persist t e

let cancel t id =
  match find t id with
  | None -> Error (Printf.sprintf "no such job %s" id)
  | Some e -> (
      match e.status with
      | Done -> Error (Printf.sprintf "job %s already completed" id)
      | Failed _ -> Error (Printf.sprintf "job %s already terminal" id)
      | Pending | Running | Paused ->
          set_status t e (Failed "cancelled");
          Ok e)

let write_result t e line = Atomic_file.write_string (result_path t e) line

let read_result t id =
  let path = Filename.concat t.dir (id ^ ".result") in
  if Sys.file_exists path then Some (String.trim (read_file path)) else None

let orphans ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    let files = Array.to_list (Sys.readdir dir) in
    let has_job id = List.mem (id ^ ".job") files in
    List.filter_map
      (fun f ->
        if Filename.check_suffix f Atomic_file.tmp_suffix then
          Some (f ^ ": leftover staging file")
        else
          let owned suffix =
            if Filename.check_suffix f suffix then
              Some (Filename.chop_suffix f suffix)
            else None
          in
          match
            List.find_map owned [ ".state"; ".ckpt"; ".result" ]
          with
          | Some id when not (has_job id) ->
              Some (f ^ ": no matching .job spec")
          | Some id when Filename.check_suffix f ".state" -> (
              match load_state ~dir id with
              | Error m -> Some m
              | Ok _ -> None)
          | Some _ -> None
          | None ->
              if Filename.check_suffix f ".job" then
                match load_job ~dir (Filename.chop_suffix f ".job") with
                | Ok _ -> None
                | Error m -> Some (f ^ ": unreadable (" ^ m ^ ")")
              else Some (f ^ ": unexpected file"))
      files
