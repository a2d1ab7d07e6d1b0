open Mdsp_util

(* Compressed (CSR) cell list: particles are counting-sorted by cell into
   [order], with [cell_start] giving each cell's half-open slice. Compared
   to the previous head/next linked lists this walks contiguous index runs
   (the flat-array layout the SoA kernels want) and gives the rebuild a
   natural tiling: a tile is a contiguous range of home cells, and every
   candidate pair is owned by exactly one home cell. *)
type t = {
  nx : int;
  ny : int;
  nz : int;
  n : int;  (** particle count *)
  ncells : int;
  cell_start : int array;  (** length ncells + 1; cell c spans
                               [cell_start.(c), cell_start.(c+1)) of order *)
  order : int array;  (** particle indices sorted by cell, ascending index
                          within each cell (stable counting sort) *)
  cell_of : int array;
  degenerate : bool;  (** fewer than 3 cells along some axis *)
}

(* Floored-division binning: map an *unwrapped* coordinate onto its periodic
   cell. [Float.floor] rounds toward negative infinity (unlike the previous
   truncate-and-clamp, which parked barely-negative coordinates in cell 0 or
   cell n-1 depending on how [Float.rem] rounded), and the double modulo
   brings any out-of-box excursion back to the right periodic image. *)
let bin_axis ~l ~ncell x =
  let c = int_of_float (Float.floor (x /. l *. float_of_int ncell)) in
  ((c mod ncell) + ncell) mod ncell

let build ?(exec = Exec.serial) ?(positions_resource = "state.positions")
    box positions ~cutoff =
  if cutoff <= 0. then invalid_arg "Cell_list.build: cutoff must be positive";
  let open Pbc in
  let dims l = max 1 (int_of_float (l /. cutoff)) in
  let nx = dims box.lx and ny = dims box.ly and nz = dims box.lz in
  let n = Array.length positions in
  let ncells = nx * ny * nz in
  let cell_of = Array.make n 0 in
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
     scan). Placing particles in ascending index order keeps the sort
     stable, so the structure is a pure function of the positions —
     independent of the executor that built it. *)
  let cell_start = Array.make (ncells + 1) 0 in
  for i = 0 to n - 1 do
    let c = cell_of.(i) in
    cell_start.(c + 1) <- cell_start.(c + 1) + 1
  done;
  for c = 1 to ncells do
    cell_start.(c) <- cell_start.(c) + cell_start.(c - 1)
  done;
  let fill = Array.sub cell_start 0 ncells in
  let order = Array.make n 0 in
  for i = 0 to n - 1 do
    let c = cell_of.(i) in
    order.(fill.(c)) <- i;
    fill.(c) <- fill.(c) + 1
  done;
  {
    nx;
    ny;
    nz;
    n;
    ncells;
    cell_start;
    order;
    cell_of;
    degenerate = nx < 3 || ny < 3 || nz < 3;
  }

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
   runs. In the all-pairs fallback unit i owns the n - 1 - i pairs
   (i, j > i), so equal runs would hand the first tile most of the work;
   there the cuts fall at equal shares of the n (n - 1) / 2 candidates. *)
let tile_bounds t ~ntiles =
  if not t.degenerate then Exec.tile_bounds ~total:t.ncells ~ntiles
  else begin
    if ntiles < 1 then invalid_arg "Cell_list.tile_bounds: ntiles";
    let n = t.n in
    let total = n * (n - 1) / 2 in
    let cuts = Array.make (ntiles + 1) n in
    cuts.(0) <- 0;
    (* [owned] counts the candidates of units below [i]. *)
    let i = ref 0 and owned = ref 0 in
    for k = 1 to ntiles - 1 do
      let target = total * k / ntiles in
      while !owned < target do
        owned := !owned + (n - 1 - !i);
        incr i
      done;
      cuts.(k) <- !i
    done;
    Array.init ntiles (fun k -> (cuts.(k), cuts.(k + 1)))
  end

let iter_cell_pair t ca cb f =
  (* All pairs (i in ca, j in cb), ca <> cb. *)
  let sa = t.cell_start.(ca) and ea = t.cell_start.(ca + 1) in
  let sb = t.cell_start.(cb) and eb = t.cell_start.(cb + 1) in
  for a = sa to ea - 1 do
    let i = t.order.(a) in
    for b = sb to eb - 1 do
      f i t.order.(b)
    done
  done

let iter_intra t c f =
  let s = t.cell_start.(c) and e = t.cell_start.(c + 1) in
  for a = s to e - 1 do
    let i = t.order.(a) in
    for b = a + 1 to e - 1 do
      f i t.order.(b)
    done
  done

let wrap v n = ((v mod n) + n) mod n

let iter_range_pairs t lo hi f =
  if lo < 0 || hi > tile_units t || lo > hi then
    invalid_arg "Cell_list.iter_range_pairs";
  if t.degenerate then
    (* Too few cells for the offset scheme to avoid duplicates; fall back to
       all-pairs owned by the first index, which is correct and only hits
       tiny systems. *)
    for i = lo to hi - 1 do
      for j = i + 1 to t.n - 1 do
        f i j
      done
    done
  else
    for c = lo to hi - 1 do
      let cx = c mod t.nx in
      let cy = c / t.nx mod t.ny in
      let cz = c / (t.nx * t.ny) in
      iter_intra t c f;
      Array.iter
        (fun (dx, dy, dz) ->
          let nx' = wrap (cx + dx) t.nx
          and ny' = wrap (cy + dy) t.ny
          and nz' = wrap (cz + dz) t.nz in
          let c' = nx' + (t.nx * (ny' + (t.ny * nz'))) in
          iter_cell_pair t c c' f)
        half_offsets
    done

let iter_pairs t f = iter_range_pairs t 0 (tile_units t) f

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
