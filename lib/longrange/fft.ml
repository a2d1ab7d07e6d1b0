open Mdsp_util

let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let fft_1d ~sign re im =
  let n = Array.length re in
  if Array.length im <> n then invalid_arg "Fft.fft_1d: length mismatch";
  if not (is_pow2 n) then invalid_arg "Fft.fft_1d: length must be a power of 2";
  (* Bit-reversal permutation. *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = re.(i) in
      re.(i) <- re.(!j);
      re.(!j) <- tr;
      let ti = im.(i) in
      im.(i) <- im.(!j);
      im.(!j) <- ti
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  (* Danielson–Lanczos butterflies. *)
  let mmax = ref 1 in
  while !mmax < n do
    let istep = !mmax * 2 in
    let theta = float_of_int sign *. Float.pi /. float_of_int !mmax in
    let wpr = -2. *. (sin (0.5 *. theta) ** 2.) in
    let wpi = sin theta in
    let wr = ref 1. and wi = ref 0. in
    for m = 0 to !mmax - 1 do
      let i = ref m in
      while !i < n do
        let k = !i + !mmax in
        let tr = (!wr *. re.(k)) -. (!wi *. im.(k)) in
        let ti = (!wr *. im.(k)) +. (!wi *. re.(k)) in
        re.(k) <- re.(!i) -. tr;
        im.(k) <- im.(!i) -. ti;
        re.(!i) <- re.(!i) +. tr;
        im.(!i) <- im.(!i) +. ti;
        i := !i + istep
      done;
      let wtemp = !wr in
      wr := (!wr *. (1. +. wpr)) -. (!wi *. wpi);
      wi := (!wi *. (1. +. wpr)) +. (wtemp *. wpi)
    done;
    mmax := istep
  done

(* The 3D transform is three sweeps of independent 1-D lines; each line is
   read into a per-slot scratch buffer, transformed, and written back to a
   disjoint region of the grid. Lines are statically tiled over the pool,
   so the parallel result is bitwise identical to the serial one: every
   line's arithmetic is untouched, only which domain runs it changes. *)
let fft_3d ?(exec = Exec.serial) ~sign ~nx ~ny ~nz re im =
  let total = nx * ny * nz in
  if Array.length re <> total || Array.length im <> total then
    invalid_arg "Fft.fft_3d: array size mismatch";
  let idx x y z = x + (nx * (y + (ny * z))) in
  (* The forward and inverse transforms are distinct dataflow phases: the
     convolve stage sits between them, so sharing one phase name per sweep
     would put a cycle in the happens-before graph. *)
  let prefix = if sign < 0 then "gse.fft_fwd" else "gse.fft_inv" in
  (* Each sweep's racing surface is its line-index space — strided element
     ranges interleave across slots, line indices don't. A line transform
     is a read-modify-write of the slot's own lines. *)
  let lines axis ~total body =
    let resource = "fft." ^ axis ^ "_lines" in
    Exec.sweep ~phase:(prefix ^ "." ^ axis) ~reads:[ resource ]
      ~writes:[ resource ] exec ~total body
  in
  (* Transform along x (contiguous): one line per (y, z). *)
  lines "x" ~total:(ny * nz) (fun _ lo hi ->
      let bx_re = Array.make nx 0. and bx_im = Array.make nx 0. in
      for l = lo to hi - 1 do
        let z = l / ny and y = l mod ny in
        let base = idx 0 y z in
        Array.blit re base bx_re 0 nx;
        Array.blit im base bx_im 0 nx;
        fft_1d ~sign bx_re bx_im;
        Array.blit bx_re 0 re base nx;
        Array.blit bx_im 0 im base nx
      done);
  (* Along y: one strided line per (x, z). *)
  lines "y" ~total:(nx * nz) (fun _ lo hi ->
      let by_re = Array.make ny 0. and by_im = Array.make ny 0. in
      for l = lo to hi - 1 do
        let z = l / nx and x = l mod nx in
        for y = 0 to ny - 1 do
          let k = idx x y z in
          by_re.(y) <- re.(k);
          by_im.(y) <- im.(k)
        done;
        fft_1d ~sign by_re by_im;
        for y = 0 to ny - 1 do
          let k = idx x y z in
          re.(k) <- by_re.(y);
          im.(k) <- by_im.(y)
        done
      done);
  (* Along z: one strided line per (x, y). *)
  lines "z" ~total:(nx * ny) (fun _ lo hi ->
      let bz_re = Array.make nz 0. and bz_im = Array.make nz 0. in
      for l = lo to hi - 1 do
        let y = l / nx and x = l mod nx in
        for z = 0 to nz - 1 do
          let k = idx x y z in
          bz_re.(z) <- re.(k);
          bz_im.(z) <- im.(k)
        done;
        fft_1d ~sign bz_re bz_im;
        for z = 0 to nz - 1 do
          let k = idx x y z in
          re.(k) <- bz_re.(z);
          im.(k) <- bz_im.(z)
        done
      done)
