(* Facts about the machine and checkout a result was measured on. *)

let nproc () = Domain.recommended_domain_count ()

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Some (String.trim s)
  | exception Sys_error _ -> None

(* The commit checked out in the current directory, read straight from
   [.git] (no git process); "unknown" outside a git work tree. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; ref_ ] -> (
          match read_file (Filename.concat ".git" ref_) with
          | Some rev -> rev
          | None -> (
              let packed =
                Option.value ~default:"" (read_file ".git/packed-refs")
              in
              let hit =
                List.find_opt
                  (fun l ->
                    match String.split_on_char ' ' l with
                    | [ _; r ] -> r = ref_
                    | _ -> false)
                  (String.split_on_char '\n' packed)
              in
              match hit with
              | Some l -> List.hd (String.split_on_char ' ' l)
              | None -> "unknown"))
      | _ -> head)

(* Peak resident set size of this process in MiB: [VmHWM] from
   /proc/self/status (0 where the kernel does not report it). *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> 0.
  | Some status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some kb -> kb /. 1024.
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0. (String.split_on_char '\n' status)

let to_json ~slots =
  let open Mdsp_util.Json in
  Obj
    [
      ("nproc", Num (float_of_int (nproc ())));
      ("slots", Num (float_of_int slots));
      ("ocaml", Str Sys.ocaml_version);
      ("git_rev", Str (git_rev ()));
    ]
