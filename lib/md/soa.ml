open Mdsp_util

type fa = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  x : fa;
  y : fa;
  z : fa;
  vx : fa;
  vy : fa;
  vz : fa;
  fx : fa;
  fy : fa;
  fz : fa;
  masses : float array;
  mutable box : Pbc.t;
  mutable time : float;
}

let make_fa n =
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0.;
  a

let create ?(box = Pbc.cubic 1.) n =
  if n < 0 then invalid_arg "Soa.create: negative size";
  {
    n;
    x = make_fa n;
    y = make_fa n;
    z = make_fa n;
    vx = make_fa n;
    vy = make_fa n;
    vz = make_fa n;
    fx = make_fa n;
    fy = make_fa n;
    fz = make_fa n;
    masses = Array.make n 0.;
    box;
    time = 0.;
  }

let n t = t.n

let clear_forces t =
  Bigarray.Array1.fill t.fx 0.;
  Bigarray.Array1.fill t.fy 0.;
  Bigarray.Array1.fill t.fz 0.

(* The four syncs are per-atom sweeps of plain float moves, so their
   result does not depend on the slot count. [sync_load ~forces] seeds the
   force columns with the boxed forces the bonded phase accumulated, and
   [sync_store] overwrites (does not add): the 1-4 and pair kernels then
   accumulate on top of the seed in the boxed order, so writing the
   columns into the accumulator reproduces the boxed accumulator state bit
   for bit at the phase boundary. *)
let sync_load ?(exec = Exec.serial) ?forces t (positions : Vec3.t array) =
  let mismatch () = invalid_arg "Soa.sync_load: length mismatch" in
  if Array.length positions <> t.n then mismatch ();
  let seed, reads =
    match forces with
    | None -> ([||], [ "state.positions" ])
    | Some f when Array.length f = t.n ->
        (f, [ "state.positions"; "state.forces" ])
    | Some _ -> mismatch ()
  in
  Exec.sweep ~phase:"soa.load" ~reads ~writes:[ "soa.positions"; "soa.forces" ]
    exec ~total:t.n (fun _ lo hi ->
      for i = lo to hi - 1 do
        let p = positions.(i) in
        t.x.{i} <- p.Vec3.x;
        t.y.{i} <- p.Vec3.y;
        t.z.{i} <- p.Vec3.z;
        if Array.length seed = 0 then begin
          t.fx.{i} <- 0.;
          t.fy.{i} <- 0.;
          t.fz.{i} <- 0.
        end
        else begin
          let f = seed.(i) in
          t.fx.{i} <- f.Vec3.x;
          t.fy.{i} <- f.Vec3.y;
          t.fz.{i} <- f.Vec3.z
        end
      done)

let sync_store ?(exec = Exec.serial) t (acc : Mdsp_ff.Bonded.accum) =
  if Array.length acc.Mdsp_ff.Bonded.forces <> t.n then
    invalid_arg "Soa.sync_store: length mismatch";
  let forces = acc.Mdsp_ff.Bonded.forces in
  Exec.sweep ~phase:"soa.store" ~reads:[ "soa.forces" ]
    ~writes:[ "state.forces" ] exec ~total:t.n (fun _ lo hi ->
      for i = lo to hi - 1 do
        forces.(i) <- Vec3.make t.fx.{i} t.fy.{i} t.fz.{i}
      done)

let of_state ?(exec = Exec.serial) (st : State.t) =
  let m = State.n st in
  let t = create ~box:st.State.box m in
  let positions = st.State.positions and velocities = st.State.velocities in
  Exec.sweep ~phase:"soa.load" ~reads:[ "state.positions"; "state.velocities" ]
    ~writes:[ "soa.positions"; "soa.velocities" ] exec ~total:m
    (fun _ lo hi ->
      for i = lo to hi - 1 do
        let p = positions.(i) in
        t.x.{i} <- p.Vec3.x;
        t.y.{i} <- p.Vec3.y;
        t.z.{i} <- p.Vec3.z;
        let v = velocities.(i) in
        t.vx.{i} <- v.Vec3.x;
        t.vy.{i} <- v.Vec3.y;
        t.vz.{i} <- v.Vec3.z
      done);
  Array.blit st.State.masses 0 t.masses 0 m;
  t.time <- st.State.time;
  t

let to_state ?(exec = Exec.serial) t =
  let positions = Array.init t.n (fun i -> Vec3.make t.x.{i} t.y.{i} t.z.{i}) in
  let st = State.create ~positions ~masses:t.masses ~box:t.box in
  let velocities = st.State.velocities in
  Exec.sweep ~phase:"soa.store" ~reads:[ "soa.velocities" ]
    ~writes:[ "state.velocities" ] exec ~total:t.n (fun _ lo hi ->
      for i = lo to hi - 1 do
        velocities.(i) <- Vec3.make t.vx.{i} t.vy.{i} t.vz.{i}
      done);
  st.State.time <- t.time;
  st
