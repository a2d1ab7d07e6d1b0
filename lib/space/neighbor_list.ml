open Mdsp_util

(* A growable pair buffer; pairs are stored as (min, max). *)
type buf = { mutable bi : int array; mutable bj : int array; mutable cnt : int }

let make_buf () = { bi = [||]; bj = [||]; cnt = 0 }

(* Grow [b] to hold at least [need] pairs, keeping its first [cnt]. *)
let reserve b need =
  let cap = Array.length b.bi in
  if need > cap then begin
    let cap' = max need (max 64 (cap * 2)) in
    let bi' = Array.make cap' 0 and bj' = Array.make cap' 0 in
    Array.blit b.bi 0 bi' 0 b.cnt;
    Array.blit b.bj 0 bj' 0 b.cnt;
    b.bi <- bi';
    b.bj <- bj'
  end

(* Store pair [k] of [b], growing it first when full; the count is the
   caller's to keep, and stands at [k] while [reserve] copies. Inlined
   into the scan's callback, so an in-range pair costs no call. *)
let[@inline] put b k i j =
  if k >= Array.length b.bi then begin
    b.cnt <- k;
    reserve b (k + 1)
  end;
  b.bi.(k) <- (if i < j then i else j);
  b.bj.(k) <- (if i < j then j else i)

type t = {
  cutoff : float;
  skin : float;
  exclusions : Exclusions.t option;
  exec : Exec.t;
  mutable box : Pbc.t;
  cells : Cell_list.t;  (* binned at the last rebuild, storage reused *)
  (* The positions at the last rebuild, as columns in atom order. *)
  mutable nref : int;
  mutable rx : float array;
  mutable ry : float array;
  mutable rz : float array;
  pairs : buf;  (* the list; slot 0 of a rebuild appends here directly *)
  spill : buf array;  (* slot s >= 1 appends to [spill.(s - 1)] *)
  mutable rebuilds : int;
}

(* The pair generation is cut into a fixed number of tiles — contiguous
   ranges of Cell_list tiling units — chosen independently of the executor
   width, as the load-balancing grain. [Exec.sweep] hands each slot a
   contiguous run of tiles, slot 0 the first, so appending slot 1's buffer,
   then slot 2's, ... to slot 0's reproduces the serial scan order: the
   list, content and order, is a pure function of the positions at any
   slot count. *)
let max_build_tiles = 64

let do_build t positions =
  let r = t.cutoff +. t.skin in
  let exec = t.exec in
  let cl = t.cells in
  Cell_list.update ~exec cl t.box positions ~cutoff:r;
  let units = Cell_list.tile_units cl in
  let ntiles = max 1 (min units max_build_tiles) in
  let n = Array.length positions in
  t.pairs.cnt <- 0;
  Array.iter (fun b -> b.cnt <- 0) t.spill;
  (* The scan walks the whole CSR cell structure and, through it, arbitrary
     positions; each slot writes its own buffer. The slot counts its pairs
     in a local and stores the count once per tile: the buffer records of
     the slots sit side by side, and a store per pair into them makes the
     slots fight over one cache line. *)
  Exec.sweep ~phase:"nbuild" ~writes:[ "nlist.tiles" ]
    ~whole:[ ("cell.bin", n); ("state.positions", n) ]
    exec ~total:ntiles (fun s tlo thi ->
      let b = if s = 0 then t.pairs else t.spill.(s - 1) in
      let lo = Cell_list.tile_start cl ~ntiles tlo
      and hi = Cell_list.tile_start cl ~ntiles thi in
      let cnt = ref b.cnt in
      (match t.exclusions with
      | None ->
          Cell_list.iter_within cl lo hi (fun i j ->
              put b !cnt i j;
              incr cnt)
      | Some ex ->
          Cell_list.iter_within cl lo hi (fun i j ->
              if not (Exclusions.excluded ex i j) then begin
                put b !cnt i j;
                incr cnt
              end));
      b.cnt <- !cnt);
  (* Append the other slots' pairs in slot order (serial: a few blits). *)
  let b0 = t.pairs in
  reserve b0 (Array.fold_left (fun a b -> a + b.cnt) b0.cnt t.spill);
  Array.iter
    (fun b ->
      Array.blit b.bi 0 b0.bi b0.cnt b.cnt;
      Array.blit b.bj 0 b0.bj b0.cnt b.cnt;
      b0.cnt <- b0.cnt + b.cnt)
    t.spill;
  if Array.length t.rx < n then begin
    t.rx <- Array.make n 0.;
    t.ry <- Array.make n 0.;
    t.rz <- Array.make n 0.
  end;
  let rx = t.rx and ry = t.ry and rz = t.rz in
  for i = 0 to n - 1 do
    let p = positions.(i) in
    rx.(i) <- p.Vec3.x;
    ry.(i) <- p.Vec3.y;
    rz.(i) <- p.Vec3.z
  done;
  t.nref <- n;
  t.rebuilds <- t.rebuilds + 1

let create ?exclusions ?(exec = Exec.serial) ~cutoff ~skin box positions =
  if cutoff <= 0. then invalid_arg "Neighbor_list.create: cutoff";
  if skin < 0. then invalid_arg "Neighbor_list.create: skin";
  let t =
    {
      cutoff;
      skin;
      exclusions;
      exec;
      box;
      cells = Cell_list.create ();
      nref = 0;
      rx = [||];
      ry = [||];
      rz = [||];
      pairs = make_buf ();
      spill = Array.init (Exec.n_slots exec - 1) (fun _ -> make_buf ());
      rebuilds = -1;
    }
  in
  do_build t positions;
  t

let pairs t = Array.init t.pairs.cnt (fun k -> (t.pairs.bi.(k), t.pairs.bj.(k)))
let length t = t.pairs.cnt
let raw_pairs t = (t.pairs.bi, t.pairs.bj)

let iter t f =
  for k = 0 to t.pairs.cnt - 1 do
    f t.pairs.bi.(k) t.pairs.bj.(k)
  done

let tiles t ~ntiles = Exec.tile_bounds ~total:t.pairs.cnt ~ntiles

let iter_range t lo hi f =
  if lo < 0 || hi > t.pairs.cnt || lo > hi then
    invalid_arg "Neighbor_list.iter_range";
  for k = lo to hi - 1 do
    f t.pairs.bi.(k) t.pairs.bj.(k)
  done

(* Copy of [Pbc]'s minimum image, bit for bit, so that it inlines here
   (see Cell_list): the skin check then allocates nothing. *)
let[@inline] mi1 l d =
  let q = d /. l in
  if q > -0.5 && q < 0.5 then d +. 0.
  else if q >= 0.5 && q < 1.5 then d -. l
  else if q <= -0.5 && q > -1.5 then d +. l
  else d -. (l *. Float.round q)

(* [Pbc.dist2 box positions.(i) ref.(i) > limit2] for some [i], on the same
   bits. *)
let needs_rebuild t positions =
  let n = Array.length positions in
  n <> t.nref
  || begin
       let limit2 = t.skin *. t.skin /. 4. in
       let lx = t.box.Pbc.lx and ly = t.box.Pbc.ly and lz = t.box.Pbc.lz in
       let rx = t.rx and ry = t.ry and rz = t.rz in
       let i = ref 0 in
       while
         !i < n
         &&
         let p = positions.(!i) in
         let dx = mi1 lx (p.Vec3.x -. rx.(!i)) in
         let dy = mi1 ly (p.Vec3.y -. ry.(!i)) in
         let dz = mi1 lz (p.Vec3.z -. rz.(!i)) in
         not ((dx *. dx) +. (dy *. dy) +. (dz *. dz) > limit2)
       do
         incr i
       done;
       !i < n
     end

let rebuild ?box t positions =
  (match box with Some b -> t.box <- b | None -> ());
  do_build t positions;
  t.rebuilds

let maybe_rebuild ?box t positions =
  let box_changed =
    match box with
    | Some b -> b <> t.box
    | None -> false
  in
  if box_changed || needs_rebuild t positions then begin
    ignore (rebuild ?box t positions);
    true
  end
  else false

let rebuild_count t = t.rebuilds
let ref_positions t =
  Array.init t.nref (fun i -> Vec3.make t.rx.(i) t.ry.(i) t.rz.(i))
let cutoff t = t.cutoff
let skin t = t.skin
let box t = t.box
