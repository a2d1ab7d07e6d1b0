(* Tests for Mdsp_space: cell lists, exclusions and neighbor lists. *)

open Mdsp_util
open Mdsp_space
open Testsupport

(* Brute-force pair set within a cutoff, as (i, j) with i < j. *)
let brute_force_pairs box positions cutoff =
  let n = Array.length positions in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Pbc.dist2 box positions.(i) positions.(j) <= cutoff *. cutoff then
        acc := (i, j) :: !acc
    done
  done;
  List.sort_uniq compare !acc

let norm_pair (i, j) = if i < j then (i, j) else (j, i)

(* --- Cell_list --- *)

(* Every pair the in-range scan yields over all units, as (min, max) in
   scan order. *)
let scan_pairs cl =
  let acc = ref [] in
  Cell_list.iter_within cl 0 (Cell_list.tile_units cl) (fun i j ->
      acc := norm_pair (i, j) :: !acc);
  List.rev !acc

(* The scan yields each pair within the cutoff exactly once, and no other:
   its pairs, deduplicated, are the brute-force set, and there are no more
   of them than that set has members. *)
let check_scan_is_brute_force label cl box positions cutoff =
  let scanned = scan_pairs cl in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun ((i, j) as key) ->
      if Hashtbl.mem seen key then
        Alcotest.failf "%s: pair (%d,%d) enumerated twice" label i j;
      Hashtbl.add seen key ())
    scanned;
  let brute = brute_force_pairs box positions cutoff in
  List.iter
    (fun p ->
      if not (Hashtbl.mem seen p) then
        Alcotest.failf "%s: missing pair (%d,%d)" label (fst p) (snd p))
    brute;
  Alcotest.(check int)
    (label ^ ": no pair beyond the cutoff")
    (List.length brute) (List.length scanned)

let test_cell_list_pair_completeness () =
  let box, positions = random_positions ~seed:21 ~n:150 ~box_l:18. ~min_dist:0.8 in
  let cutoff = 4.0 in
  let cl = Cell_list.build box positions ~cutoff in
  check_true "cell grid" (not (Cell_list.degenerate cl));
  check_scan_is_brute_force "4 cells per axis" cl box positions cutoff

let test_cell_list_degenerate_small_box () =
  (* Box smaller than 3 cutoffs per dim: falls back to all-pairs, each
     unit i scanning the pairs (i, j > i). *)
  let box, positions = random_positions ~seed:22 ~n:30 ~box_l:6. ~min_dist:0.5 in
  let cl = Cell_list.build box positions ~cutoff:2.5 in
  check_true "degenerate" (Cell_list.degenerate cl);
  Alcotest.(check int) "one unit per particle" 30 (Cell_list.tile_units cl);
  check_scan_is_brute_force "all-pairs box" cl box positions 2.5

let test_cell_list_degenerate_tiles_balanced () =
  (* In the all-pairs fallback unit i owns n - 1 - i candidates: the tiles
     must partition the units in order and split the candidates evenly. *)
  let n = 1000 in
  let box, positions = random_positions ~seed:24 ~n ~box_l:24. ~min_dist:0.5 in
  let cl = Cell_list.build box positions ~cutoff:10. in
  check_true "degenerate" (Cell_list.degenerate cl);
  let ntiles = 64 in
  let start = Cell_list.tile_start cl ~ntiles in
  Alcotest.(check int) "first tile starts at unit 0" 0 (start 0);
  Alcotest.(check int) "covers every unit" n (start ntiles);
  let share = n * (n - 1) / 2 / ntiles in
  for k = 0 to ntiles - 1 do
    let lo = start k and hi = start (k + 1) in
    check_true "contiguous, in order" (lo <= hi);
    (* Unit i owns the candidates (i, j > i). *)
    let owned = ref 0 in
    for i = lo to hi - 1 do
      owned := !owned + (n - 1 - i)
    done;
    check_true
      (Printf.sprintf "tile %d owns %d candidates (share %d)" k !owned share)
      (abs (!owned - share) < n)
  done;
  (* The tiles partition the scan: their pairs, concatenated in tile
     order, are the whole scan's, and the brute-force set. *)
  let tiled = ref [] in
  for k = 0 to ntiles - 1 do
    Cell_list.iter_within cl (start k) (start (k + 1)) (fun i j ->
        tiled := norm_pair (i, j) :: !tiled)
  done;
  check_true "tiles concatenate to the whole scan"
    (List.rev !tiled = scan_pairs cl);
  check_scan_is_brute_force "all-pairs box" cl box positions 10.

let test_cell_list_neighbors_include_all () =
  let box, positions = random_positions ~seed:23 ~n:120 ~box_l:16. ~min_dist:0.7 in
  let cutoff = 3.5 in
  let cl = Cell_list.build box positions ~cutoff in
  let pairs = brute_force_pairs box positions cutoff in
  List.iter
    (fun (i, j) ->
      let found = ref false in
      Cell_list.iter_neighbors cl i (fun k -> if k = j then found := true);
      check_true "neighbor found" !found)
    pairs

let prop_cell_list_counts_match =
  qtest "cell list candidate pairs are a superset of in-range pairs" ~count:20
    QCheck.(pair (int_range 30 120) (float_range 2.0 4.5))
    (fun (n, cutoff) ->
      let box, positions =
        random_positions ~seed:(n * 7) ~n ~box_l:15. ~min_dist:0.6
      in
      let cl = Cell_list.build box positions ~cutoff in
      (* The scan yields exactly the in-range pairs, so the superset is the
         brute-force set itself. *)
      List.sort compare (scan_pairs cl) = brute_force_pairs box positions cutoff)

let test_cell_list_out_of_box_coordinates () =
  (* Atoms just outside the primary box (negative coordinates and beyond
     +L). Binning must use floored division/modulo so these land in the
     wrapped cell: with truncating [mod], an atom at -0.3 would bin to cell
     0 instead of cell nx-1 and its pairs across the face would be lost. *)
  let box_l = 18.0 and cutoff = 4.0 in
  let box, positions =
    random_positions ~seed:24 ~n:150 ~box_l ~min_dist:0.8
  in
  (* Push a band of atoms just below 0 and another just above L, and
     translate a third band by whole box lengths. *)
  Array.iteri
    (fun i p ->
      let open Vec3 in
      if i mod 5 = 0 then positions.(i) <- make (p.x -. box_l) p.y p.z
      else if i mod 5 = 1 then
        positions.(i) <- make p.x (p.y +. box_l) (p.z -. (2. *. box_l))
      else if i mod 5 = 2 then
        positions.(i) <- make (p.x -. (Float.min p.x 0.4) -. 0.05) p.y p.z)
    positions;
  let cl = Cell_list.build box positions ~cutoff in
  check_scan_is_brute_force "out-of-box coordinates" cl box positions cutoff

let test_cell_list_parallel_bin_matches_serial () =
  let box, positions =
    random_positions ~seed:25 ~n:200 ~box_l:20. ~min_dist:0.7
  in
  let cutoff = 4.0 in
  let serial = Cell_list.build box positions ~cutoff in
  let pool = Exec.create (Exec.Domains { n = 4 }) in
  let parallel = Cell_list.build ~exec:pool box positions ~cutoff in
  Exec.shutdown pool;
  check_true "parallel binning yields the identical pairs, in order"
    (scan_pairs serial = scan_pairs parallel)

(* --- Exclusions --- *)

let test_exclusions_of_pairs () =
  let ex = Exclusions.of_pairs ~n:5 [ (0, 1); (1, 0); (2, 3); (3, 3) ] in
  check_true "0-1 excluded" (Exclusions.excluded ex 0 1);
  check_true "1-0 excluded" (Exclusions.excluded ex 1 0);
  check_true "2-3 excluded" (Exclusions.excluded ex 2 3);
  check_true "self ignored" (not (Exclusions.excluded ex 3 3));
  check_true "0-2 not excluded" (not (Exclusions.excluded ex 0 2));
  Alcotest.(check int) "dedup count" 2 (Exclusions.count ex)

let test_exclusions_from_bonds_linear_chain () =
  (* Chain 0-1-2-3-4. through=2: 1-2 and 1-3 neighbors excluded. *)
  let bonds = [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let ex = Exclusions.from_bonds ~n:5 ~bonds ~through:2 in
  check_true "1-2 bond" (Exclusions.excluded ex 0 1);
  check_true "1-3" (Exclusions.excluded ex 0 2);
  check_true "not 1-4" (not (Exclusions.excluded ex 0 3));
  let ex3 = Exclusions.from_bonds ~n:5 ~bonds ~through:3 in
  check_true "1-4 with through=3" (Exclusions.excluded ex3 0 3);
  check_true "not 1-5" (not (Exclusions.excluded ex3 0 4))

let test_exclusions_ring () =
  (* 4-ring: everything within 2 bonds of everything. *)
  let bonds = [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let ex = Exclusions.from_bonds ~n:4 ~bonds ~through:2 in
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      check_true "ring fully excluded" (Exclusions.excluded ex i j)
    done
  done

let test_exclusions_pairs_listing () =
  let ex = Exclusions.of_pairs ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check (list (pair int int)))
    "pairs" [ (0, 1); (2, 3) ] (Exclusions.pairs ex)

let test_exclusions_out_of_range () =
  Alcotest.check_raises "bad index"
    (Invalid_argument "Exclusions.of_pairs: atom index out of range")
    (fun () -> ignore (Exclusions.of_pairs ~n:3 [ (0, 7) ]))

(* --- Neighbor_list --- *)

let test_neighbor_list_matches_brute_force () =
  let box, positions = random_positions ~seed:31 ~n:200 ~box_l:20. ~min_dist:0.8 in
  let cutoff = 4.0 and skin = 1.0 in
  let nl = Neighbor_list.create ~cutoff ~skin box positions in
  let stored = Hashtbl.create 1024 in
  Neighbor_list.iter nl (fun i j -> Hashtbl.replace stored (i, j) ());
  (* All pairs within cutoff+skin must be present. *)
  List.iter
    (fun p -> check_true "pair within cutoff+skin stored" (Hashtbl.mem stored p))
    (brute_force_pairs box positions (cutoff +. skin));
  (* No pair beyond cutoff+skin may be present. *)
  Hashtbl.iter
    (fun (i, j) () ->
      check_true "no spurious pair"
        (Pbc.dist box positions.(i) positions.(j) <= cutoff +. skin +. 1e-9))
    stored

let test_neighbor_list_respects_exclusions () =
  let box, positions = random_positions ~seed:32 ~n:50 ~box_l:12. ~min_dist:0.8 in
  let ex = Exclusions.of_pairs ~n:50 [ (0, 1); (2, 3); (10, 20) ] in
  let nl = Neighbor_list.create ~exclusions:ex ~cutoff:5. ~skin:1. box positions in
  Neighbor_list.iter nl (fun i j ->
      check_true "excluded pair absent" (not (Exclusions.excluded ex i j)))

let test_neighbor_list_rebuild_trigger () =
  let box, positions = random_positions ~seed:33 ~n:60 ~box_l:14. ~min_dist:0.9 in
  let nl = Neighbor_list.create ~cutoff:4. ~skin:1. box positions in
  check_true "fresh list valid" (not (Neighbor_list.needs_rebuild nl positions));
  let moved = Array.copy positions in
  moved.(5) <- Vec3.add moved.(5) (Vec3.make 0.6 0. 0.);
  check_true "movement beyond skin/2 triggers"
    (Neighbor_list.needs_rebuild nl moved);
  let small = Array.copy positions in
  small.(5) <- Vec3.add small.(5) (Vec3.make 0.3 0. 0.);
  check_true "movement within skin/2 does not trigger"
    (not (Neighbor_list.needs_rebuild nl small))

let test_neighbor_list_maybe_rebuild_counts () =
  let box, positions = random_positions ~seed:34 ~n:40 ~box_l:12. ~min_dist:0.9 in
  let nl = Neighbor_list.create ~cutoff:3.5 ~skin:0.8 box positions in
  Alcotest.(check int) "initial build counted once" 0
    (Neighbor_list.rebuild_count nl);
  check_true "no rebuild" (not (Neighbor_list.maybe_rebuild nl positions));
  let moved = Array.map (fun p -> Vec3.add p (Vec3.make 0.5 0.5 0.)) positions in
  (* Uniform translation moves everything by > skin/2. *)
  check_true "rebuild happened" (Neighbor_list.maybe_rebuild nl moved);
  Alcotest.(check int) "rebuild counted" 1 (Neighbor_list.rebuild_count nl)

let test_neighbor_list_box_change () =
  let box, positions = random_positions ~seed:35 ~n:40 ~box_l:12. ~min_dist:0.9 in
  let nl = Neighbor_list.create ~cutoff:3.5 ~skin:0.8 box positions in
  let box2 = Pbc.scale box 1.01 in
  check_true "box change forces rebuild"
    (Neighbor_list.maybe_rebuild ~box:box2 nl positions);
  check_true "box updated" (Neighbor_list.box nl = box2)

let prop_neighbor_list_skin_sweep =
  qtest "neighbor list complete across skin choices" ~count:10
    QCheck.(float_range 0.2 2.0)
    (fun skin ->
      let box, positions =
        random_positions ~seed:36 ~n:80 ~box_l:14. ~min_dist:0.7
      in
      let cutoff = 3.0 in
      let nl = Neighbor_list.create ~cutoff ~skin box positions in
      let stored = Hashtbl.create 512 in
      Neighbor_list.iter nl (fun i j -> Hashtbl.replace stored (i, j) ());
      List.for_all
        (fun p -> Hashtbl.mem stored p)
        (brute_force_pairs box positions cutoff))

let test_neighbor_list_parallel_rebuild_identical () =
  (* Each slot scans a contiguous run of the fixed tiles and the slots'
     buffers are joined in slot order, so the stored pair list — content
     *and order* — is a pure function of the positions, bitwise identical
     across executor widths. Checked on a box with four cells per axis and
     on one with two (the all-pairs fallback, whose tiles are cut at equal
     candidate shares). *)
  List.iter
    (fun (label, box_l, n, degenerate) ->
      let box, positions =
        random_positions ~seed:37 ~n ~box_l ~min_dist:0.7
      in
      let cells = Cell_list.build box positions ~cutoff:5. in
      check_true (label ^ ": cell grid as intended")
        (Cell_list.degenerate cells = degenerate);
      let build exec =
        let nl =
          Neighbor_list.create ~exec ~cutoff:4. ~skin:1. box positions
        in
        let moved =
          Array.map (fun p -> Vec3.add p (Vec3.make 0.9 0.4 (-0.7))) positions
        in
        ignore (Neighbor_list.rebuild nl moved);
        let is, js = Neighbor_list.raw_pairs nl in
        let n = Neighbor_list.length nl in
        (Array.sub is 0 n, Array.sub js 0 n)
      in
      let ref_is, ref_js = build Exec.serial in
      check_true (label ^ ": serial rebuild found pairs")
        (Array.length ref_is > 0);
      List.iter
        (fun slots ->
          let pool = Exec.create (Exec.Domains { n = slots }) in
          let is, js = build pool in
          Exec.shutdown pool;
          check_true
            (Printf.sprintf "%s: %d-slot rebuild identical to serial" label
               slots)
            (is = ref_is && js = ref_js))
        [ 2; 3; 4 ])
    [ ("4 cells per axis", 20., 300, false); ("all-pairs box", 12., 150, true) ]

(* The rebuild's reference enumeration, written out over the boxed
   positions: bin with [Cell_list.dims]/[cell_of]; walk the home cells in
   order, intra-cell pairs first, then the 13 half-space neighbor cells, in
   ascending particle index within each cell — or, with fewer than 3 cells
   on some axis, all pairs (i, j > i); keep the pairs with
   [Pbc.dist2 <= r²] that are not excluded, each as (min, max). *)
let oracle_pairs ?exclusions box positions ~r =
  let cl = Cell_list.build box positions ~cutoff:r in
  let n = Array.length positions in
  let r2 = r *. r in
  let acc = ref [] in
  let keep i j =
    let excluded =
      match exclusions with
      | Some ex -> Exclusions.excluded ex i j
      | None -> false
    in
    if Pbc.dist2 box positions.(i) positions.(j) <= r2 && not excluded then
      acc := (min i j, max i j) :: !acc
  in
  if Cell_list.degenerate cl then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        keep i j
      done
    done
  else begin
    let nx, ny, nz = Cell_list.dims cl in
    let members = Array.make (nx * ny * nz) [] in
    for i = n - 1 downto 0 do
      let c = Cell_list.cell_of cl i in
      members.(c) <- i :: members.(c)
    done;
    let wrap v m = ((v mod m) + m) mod m in
    let rec intra = function
      | [] -> ()
      | i :: rest ->
          List.iter (keep i) rest;
          intra rest
    in
    for c = 0 to (nx * ny * nz) - 1 do
      let cx = c mod nx and cy = c / nx mod ny and cz = c / (nx * ny) in
      intra members.(c);
      List.iter
        (fun (dx, dy, dz) ->
          let c' =
            wrap (cx + dx) nx + (nx * (wrap (cy + dy) ny + (ny * wrap (cz + dz) nz)))
          in
          List.iter (fun i -> List.iter (keep i) members.(c')) members.(c))
        [ (1, 0, 0); (-1, 1, 0); (0, 1, 0); (1, 1, 0); (-1, -1, 1);
          (0, -1, 1); (1, -1, 1); (-1, 0, 1); (0, 0, 1); (1, 0, 1);
          (-1, 1, 1); (0, 1, 1); (1, 1, 1) ]
    done
  end;
  List.rev !acc

let list_pairs nl =
  let is, js = Neighbor_list.raw_pairs nl in
  List.init (Neighbor_list.length nl) (fun k -> (is.(k), js.(k)))

let test_neighbor_list_matches_oracle () =
  (* The stored list, content and order, is the reference enumeration at
     every slot count; then the same list is rebuilt on compressed
     positions (more pairs) and expanded ones (fewer), since its buffers
     are reused across rebuilds. *)
  let grid_box, grid = random_positions ~seed:41 ~n:300 ~box_l:20. ~min_dist:0.7 in
  let gas_box, gas = random_positions ~seed:42 ~n:150 ~box_l:12. ~min_dist:0.7 in
  let water = Mdsp_workload.Workloads.water_box ~n_side:5 () in
  let wbox = water.Mdsp_workload.Workloads.box in
  let rng = Rng.create 43 in
  let shift () = float_of_int (Rng.int rng 7 - 3) *. 20. in
  let displaced =
    Array.map
      (fun (p : Vec3.t) -> Vec3.make (p.x +. shift ()) (p.y +. shift ()) (p.z +. shift ()))
      grid
  in
  let wcut = 0.45 *. Pbc.min_edge wbox in
  check_true "water n_side 5: cutoff + skin exceeds half the box"
    (wcut +. 1. > Pbc.min_edge wbox /. 2.);
  let cases =
    [
      ("4 cells per axis", grid_box, grid, None, 4.);
      ("all-pairs box", gas_box, gas, None, 4.);
      ( "water n_side 5",
        wbox,
        water.Mdsp_workload.Workloads.positions,
        Some water.Mdsp_workload.Workloads.topo.Mdsp_ff.Topology.exclusions,
        wcut );
      ("displaced by whole boxes", grid_box, displaced, None, 4.);
    ]
  in
  List.iter
    (fun (label, box, positions, exclusions, cutoff) ->
      let r = cutoff +. 1. in
      let expect = oracle_pairs ?exclusions box positions ~r in
      check_true (label ^ ": oracle finds pairs") (expect <> []);
      (* Positions and box scaled together, as a barostat does. *)
      let scaled f = (Pbc.scale box f, Array.map (Vec3.scale f) positions) in
      let cbox, compressed = scaled 0.9 and ebox, expanded = scaled 1.1 in
      let more = oracle_pairs ?exclusions cbox compressed ~r in
      let fewer = oracle_pairs ?exclusions ebox expanded ~r in
      check_true (label ^ ": compressed has more pairs, expanded fewer")
        (List.length more > List.length expect
        && List.length fewer < List.length expect);
      List.iter
        (fun slots ->
          let exec =
            if slots = 1 then Exec.serial
            else Exec.create (Exec.Domains { n = slots })
          in
          let check_list what want nl =
            let got = list_pairs nl in
            Alcotest.(check int)
              (Printf.sprintf "%s, %d slots, %s: length" label slots what)
              (List.length want) (List.length got);
            check_true
              (Printf.sprintf "%s, %d slots, %s: the oracle's pairs in order"
                 label slots what)
              (got = want)
          in
          let nl =
            Neighbor_list.create ?exclusions ~exec ~cutoff ~skin:1. box
              positions
          in
          check_list "first build" expect nl;
          ignore (Neighbor_list.rebuild ~box:cbox nl compressed);
          check_list "compressed" more nl;
          ignore (Neighbor_list.rebuild ~box:ebox nl expanded);
          check_list "expanded" fewer nl;
          if slots > 1 then Exec.shutdown exec)
        [ 1; 2; 3; 4 ])
    cases

let test_neighbor_list_parallel_rebuild_race_free () =
  (* The rebuild's parallel phases ("cell.bin", "nlist.tiles") under the
     write-set sanitizer: any overlapping write raises Exec.Race. *)
  let box, positions =
    random_positions ~seed:38 ~n:200 ~box_l:18. ~min_dist:0.7
  in
  let exec = Exec.create ~sanitize:true (Exec.Domains { n = 4 }) in
  Fun.protect
    ~finally:(fun () -> Exec.shutdown exec)
    (fun () ->
      let nl = Neighbor_list.create ~exec ~cutoff:4. ~skin:1. box positions in
      let moved =
        Array.map (fun p -> Vec3.add p (Vec3.make 0.8 0. 0.)) positions
      in
      ignore (Neighbor_list.rebuild nl moved);
      check_true "sanitized rebuild completed" (Neighbor_list.length nl > 0))

let () =
  Alcotest.run "mdsp_space"
    [
      ( "cell_list",
        [
          Alcotest.test_case "pair completeness, no duplicates" `Quick
            test_cell_list_pair_completeness;
          Alcotest.test_case "degenerate small box" `Quick
            test_cell_list_degenerate_small_box;
          Alcotest.test_case "degenerate tiles balanced" `Quick
            test_cell_list_degenerate_tiles_balanced;
          Alcotest.test_case "per-particle neighbors" `Quick
            test_cell_list_neighbors_include_all;
          Alcotest.test_case "floored binning outside the box" `Quick
            test_cell_list_out_of_box_coordinates;
          Alcotest.test_case "parallel binning matches serial" `Quick
            test_cell_list_parallel_bin_matches_serial;
          prop_cell_list_counts_match;
        ] );
      ( "exclusions",
        [
          Alcotest.test_case "of_pairs" `Quick test_exclusions_of_pairs;
          Alcotest.test_case "from_bonds chain" `Quick
            test_exclusions_from_bonds_linear_chain;
          Alcotest.test_case "ring" `Quick test_exclusions_ring;
          Alcotest.test_case "pairs listing" `Quick
            test_exclusions_pairs_listing;
          Alcotest.test_case "out of range" `Quick
            test_exclusions_out_of_range;
        ] );
      ( "neighbor_list",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_neighbor_list_matches_brute_force;
          Alcotest.test_case "respects exclusions" `Quick
            test_neighbor_list_respects_exclusions;
          Alcotest.test_case "rebuild trigger" `Quick
            test_neighbor_list_rebuild_trigger;
          Alcotest.test_case "maybe_rebuild counting" `Quick
            test_neighbor_list_maybe_rebuild_counts;
          Alcotest.test_case "box change" `Quick test_neighbor_list_box_change;
          Alcotest.test_case "parallel rebuild bitwise at 1/2/4 slots" `Quick
            test_neighbor_list_parallel_rebuild_identical;
          Alcotest.test_case "list = reference enumeration at 1-4 slots"
            `Quick test_neighbor_list_matches_oracle;
          Alcotest.test_case "sanitized parallel rebuild race-free" `Quick
            test_neighbor_list_parallel_rebuild_race_free;
          prop_neighbor_list_skin_sweep;
        ] );
    ]
