(** Trajectory output (XYZ).

    The XYZ writer produces the standard extended-XYZ-flavored text format
    readable by common visualization tools. Exact restart files are
    [Mdsp_ensemble.Checkpoint]'s, built from {!Engine.snapshot}. *)

open Mdsp_util

(** An open XYZ trajectory file. *)
type xyz

(** [open_xyz path ~names] starts a trajectory with per-atom element/name
    labels. *)
val open_xyz : string -> names:string array -> xyz

(** Append one frame (with the box and time recorded on the comment line). *)
val write_frame : xyz -> Pbc.t -> time_fs:float -> Vec3.t array -> unit

val close_xyz : xyz -> unit

(** [read_xyz path] loads all frames as (comment, positions) pairs. *)
val read_xyz : string -> (string * Vec3.t array) list
