open Mdsp_util

(* Compressed (CSR) cell list: particles are counting-sorted by cell into
   [order], with [cell_start] giving each cell's half-open slice, and their
   coordinates are copied into flat columns in that same order. A cell is
   then a contiguous run of each column, so the in-range scan reads
   unboxed floats sequentially instead of chasing boxed positions, and the
   rebuild has a natural tiling: a tile is a contiguous range of home
   cells, and every candidate pair is owned by exactly one home cell.

   Every array is storage that [update] refills in place; each is at least
   as long as the current [n] (or [ncells + 1] for [cell_start]), so a
   structure rebuilt on the same system allocates nothing. *)
type t = {
  mutable nx : int;
  mutable ny : int;
  mutable nz : int;
  mutable n : int;  (** particle count *)
  mutable ncells : int;
  mutable degenerate : bool;  (** fewer than 3 cells along some axis *)
  mutable box : Pbc.t;
  mutable r2 : float;  (** the build cutoff, squared *)
  mutable cell_start : int array;  (** cell c spans
                                       [cell_start.(c), cell_start.(c+1))
                                       of [order] and of the columns *)
  mutable fill : int array;  (** counting-sort cursors, one per cell *)
  mutable order : int array;  (** particle indices sorted by cell,
                                  ascending index within each cell (stable
                                  counting sort) *)
  mutable cell_of : int array;
  (* Coordinate columns: cell-sorted ([x.(a)] is particle [order.(a)]'s),
     or in particle order in the all-pairs fallback. *)
  mutable x : float array;
  mutable y : float array;
  mutable z : float array;
}

(* Floored-division binning: map an *unwrapped* coordinate onto its periodic
   cell. [Float.floor] rounds toward negative infinity (unlike the previous
   truncate-and-clamp, which parked barely-negative coordinates in cell 0 or
   cell n-1 depending on how [Float.rem] rounded), and the double modulo
   brings any out-of-box excursion back to the right periodic image.
   Inlined so that the coordinates stay unboxed. *)
let[@inline] bin_axis ~l ~ncell x =
  let c = int_of_float (Float.floor (x /. l *. float_of_int ncell)) in
  ((c mod ncell) + ncell) mod ncell

let create () =
  {
    nx = 1;
    ny = 1;
    nz = 1;
    n = 0;
    ncells = 1;
    degenerate = true;
    box = Pbc.cubic 1.;
    r2 = 0.;
    cell_start = [| 0; 0 |];
    fill = [| 0 |];
    order = [||];
    cell_of = [||];
    x = [||];
    y = [||];
    z = [||];
  }

let update ?(exec = Exec.serial) ?(positions_resource = "state.positions") t
    box positions ~cutoff =
  if cutoff <= 0. then invalid_arg "Cell_list.build: cutoff must be positive";
  let open Pbc in
  let dims l = max 1 (int_of_float (l /. cutoff)) in
  let nx = dims box.lx and ny = dims box.ly and nz = dims box.lz in
  let n = Array.length positions in
  let ncells = nx * ny * nz in
  if Array.length t.order < n then begin
    t.order <- Array.make n 0;
    t.cell_of <- Array.make n 0;
    t.x <- Array.make n 0.;
    t.y <- Array.make n 0.;
    t.z <- Array.make n 0.
  end;
  if Array.length t.fill < ncells then begin
    t.cell_start <- Array.make (ncells + 1) 0;
    t.fill <- Array.make ncells 0
  end;
  t.nx <- nx;
  t.ny <- ny;
  t.nz <- nz;
  t.n <- n;
  t.ncells <- ncells;
  t.degenerate <- nx < 3 || ny < 3 || nz < 3;
  t.box <- box;
  t.r2 <- cutoff *. cutoff;
  let cell_of = t.cell_of in
  (* Bin phase: pure per-atom work, tiled over the pool. The write-set is
     the atom slice of [cell_of]; binning reads exactly its own atom tile,
     and [positions_resource] names whose positions these are (engine
     state vs decomposition working copy) for the dataflow graph. *)
  Exec.sweep ~phase:"cell.bin" ~reads:[ positions_resource ]
    ~writes:[ "cell.bin" ] exec ~total:n (fun _ lo hi ->
      for i = lo to hi - 1 do
        let p = positions.(i) in
        let cx = bin_axis ~l:box.lx ~ncell:nx p.Vec3.x in
        let cy = bin_axis ~l:box.ly ~ncell:ny p.Vec3.y in
        let cz = bin_axis ~l:box.lz ~ncell:nz p.Vec3.z in
        cell_of.(i) <- cx + (nx * (cy + (ny * cz)))
      done);
  (* Counting sort (serial: O(n + ncells), trivially cheap next to the pair
     scan), which also lays out the coordinate columns. Placing particles
     in ascending index order keeps the sort stable, so the structure is a
     pure function of the positions — independent of the executor that
     built it. *)
  let cell_start = t.cell_start and fill = t.fill and order = t.order in
  Array.fill cell_start 0 (ncells + 1) 0;
  for i = 0 to n - 1 do
    let c = cell_of.(i) in
    cell_start.(c + 1) <- cell_start.(c + 1) + 1
  done;
  for c = 1 to ncells do
    cell_start.(c) <- cell_start.(c) + cell_start.(c - 1)
  done;
  Array.blit cell_start 0 fill 0 ncells;
  let x = t.x and y = t.y and z = t.z in
  let sorted = not t.degenerate in
  for i = 0 to n - 1 do
    let c = cell_of.(i) in
    let a = fill.(c) in
    order.(a) <- i;
    fill.(c) <- a + 1;
    let p = positions.(i) and k = if sorted then a else i in
    x.(k) <- p.Vec3.x;
    y.(k) <- p.Vec3.y;
    z.(k) <- p.Vec3.z
  done

let build ?exec ?positions_resource box positions ~cutoff =
  let t = create () in
  update ?exec ?positions_resource t box positions ~cutoff;
  t

let dims t = (t.nx, t.ny, t.nz)
let cell_of t i = t.cell_of.(i)
let degenerate t = t.degenerate

(* The 13 half-space offsets: all (dx,dy,dz) with dz>0, or dz=0 && dy>0, or
   dz=0 && dy=0 && dx>0. Together with intra-cell pairs this enumerates each
   unordered cell pair once. *)
let half_offsets =
  [|
    (1, 0, 0);
    (-1, 1, 0); (0, 1, 0); (1, 1, 0);
    (-1, -1, 1); (0, -1, 1); (1, -1, 1);
    (-1, 0, 1); (0, 0, 1); (1, 0, 1);
    (-1, 1, 1); (0, 1, 1); (1, 1, 1);
  |]

(* Tiling units: each unordered pair is owned by exactly one unit, so a
   partition of the unit range partitions the pair enumeration. With enough
   cells the unit is the home cell; degenerate boxes fall back to all-pairs
   with the first index as the owner. *)
let tile_units t = if t.degenerate then t.n else t.ncells

(* Home cells own similar candidate counts, so they are cut into equal
   runs (the cuts of [Exec.tile_bounds]). In the all-pairs fallback unit i
   owns the n - 1 - i pairs (i, j > i), so equal runs would hand the first
   tile most of the work; there the cuts fall at equal shares of the
   n (n - 1) / 2 candidates. Computed per cut, so asking allocates
   nothing. *)
let tile_start t ~ntiles k =
  if ntiles < 1 || k < 0 || k > ntiles then
    invalid_arg "Cell_list.tile_start";
  if not t.degenerate then t.ncells * k / ntiles
  else if k = ntiles then t.n
  else begin
    let n = t.n in
    let target = n * (n - 1) / 2 * k / ntiles in
    (* [owned] counts the candidates of units below [i]. *)
    let i = ref 0 and owned = ref 0 in
    while !owned < target do
      owned := !owned + (n - 1 - !i);
      incr i
    done;
    !i
  end

(* Copy of [Pbc]'s minimum image, bit for bit: a call across the module
   boundary is not inlined when cross-module inlining is off (dune's dev
   profile builds with -opaque), and would box its argument and result. *)
let[@inline] mi1 l d =
  let q = d /. l in
  if q > -0.5 && q < 0.5 then d +. 0.
  else if q >= 0.5 && q < 1.5 then d -. l
  else if q <= -0.5 && q > -1.5 then d +. l
  else d -. (l *. Float.round q)

(* Column [a] against columns [b_lo, b_hi): [f] gets each pair within the
   build cutoff as particle indices, column [a]'s first. The test is
   [Pbc.dist2]'s, [(dx dx + dy dy) + dz dz <= r2], on the same bits. *)
let scan_row t f a b_lo b_hi =
  let x = t.x and y = t.y and z = t.z in
  let lx = t.box.Pbc.lx and ly = t.box.Pbc.ly and lz = t.box.Pbc.lz in
  let r2 = t.r2 in
  let xa = x.(a) and ya = y.(a) and za = z.(a) in
  for b = b_lo to b_hi - 1 do
    let dx = mi1 lx (xa -. x.(b)) in
    let dy = mi1 ly (ya -. y.(b)) in
    let dz = mi1 lz (za -. z.(b)) in
    if (dx *. dx) +. (dy *. dy) +. (dz *. dz) <= r2 then
      if t.degenerate then f a b else f t.order.(a) t.order.(b)
  done

let wrap v n = ((v mod n) + n) mod n

let iter_within t lo hi f =
  if lo < 0 || hi > tile_units t || lo > hi then
    invalid_arg "Cell_list.iter_within";
  if t.degenerate then
    (* Too few cells for the offset scheme to avoid duplicates; fall back to
       all-pairs owned by the first index, which is correct and only hits
       tiny systems. *)
    for i = lo to hi - 1 do
      scan_row t f i (i + 1) t.n
    done
  else
    for c = lo to hi - 1 do
      let cx = c mod t.nx in
      let cy = c / t.nx mod t.ny in
      let cz = c / (t.nx * t.ny) in
      let s = t.cell_start.(c) and e = t.cell_start.(c + 1) in
      for a = s to e - 1 do
        scan_row t f a (a + 1) e
      done;
      for k = 0 to Array.length half_offsets - 1 do
        let dx, dy, dz = half_offsets.(k) in
        let c' =
          wrap (cx + dx) t.nx
          + (t.nx * (wrap (cy + dy) t.ny + (t.ny * wrap (cz + dz) t.nz)))
        in
        let s' = t.cell_start.(c') and e' = t.cell_start.(c' + 1) in
        for a = s to e - 1 do
          scan_row t f a s' e'
        done
      done
    done

let iter_neighbors t i f =
  if t.degenerate then
    for j = 0 to t.n - 1 do
      if j <> i then f j
    done
  else begin
    let c = t.cell_of.(i) in
    let cx = c mod t.nx in
    let cy = c / t.nx mod t.ny in
    let cz = c / (t.nx * t.ny) in
    for dz = -1 to 1 do
      for dy = -1 to 1 do
        for dx = -1 to 1 do
          let c' =
            wrap (cx + dx) t.nx
            + (t.nx * (wrap (cy + dy) t.ny + (t.ny * wrap (cz + dz) t.nz)))
          in
          let s = t.cell_start.(c') and e = t.cell_start.(c' + 1) in
          for a = s to e - 1 do
            let j = t.order.(a) in
            if j <> i then f j
          done
        done
      done
    done
  end
