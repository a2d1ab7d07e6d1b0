open Mdsp_util

type xyz = { oc : out_channel; names : string array }

let open_xyz path ~names =
  let oc = open_out path in
  { oc; names }

let write_frame t box ~time_fs positions =
  let n = Array.length positions in
  if n <> Array.length t.names then
    invalid_arg "Trajectory.write_frame: name/position count mismatch";
  Printf.fprintf t.oc "%d\n" n;
  let open Pbc in
  Printf.fprintf t.oc
    "Lattice=\"%.6f 0 0 0 %.6f 0 0 0 %.6f\" time_fs=%.4f\n" box.lx box.ly
    box.lz time_fs;
  Array.iteri
    (fun i (p : Vec3.t) ->
      let w = Pbc.wrap box p in
      Printf.fprintf t.oc "%-4s %12.6f %12.6f %12.6f\n" t.names.(i) w.Vec3.x
        w.Vec3.y w.Vec3.z)
    positions

let close_xyz t = close_out t.oc

let read_xyz path =
  let ic = open_in path in
  let frames = ref [] in
  (try
     while true do
       let n = int_of_string (String.trim (input_line ic)) in
       let comment = input_line ic in
       let pos =
         Array.init n (fun _ ->
             let line = input_line ic in
             Scanf.sscanf line " %s %f %f %f" (fun _ x y z -> Vec3.make x y z))
       in
       frames := (comment, pos) :: !frames
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !frames
