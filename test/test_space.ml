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

let test_cell_list_pair_completeness () =
  let box, positions = random_positions ~seed:21 ~n:150 ~box_l:18. ~min_dist:0.8 in
  let cutoff = 4.0 in
  let cl = Cell_list.build box positions ~cutoff in
  let seen = Hashtbl.create 1024 in
  Cell_list.iter_pairs cl (fun i j ->
      let key = norm_pair (i, j) in
      if Hashtbl.mem seen key then
        Alcotest.failf "pair (%d,%d) enumerated twice" i j;
      Hashtbl.add seen key ());
  (* Every within-cutoff pair must be among the candidates. *)
  List.iter
    (fun p ->
      if not (Hashtbl.mem seen p) then
        Alcotest.failf "missing pair (%d,%d)" (fst p) (snd p))
    (brute_force_pairs box positions cutoff)

let test_cell_list_degenerate_small_box () =
  (* Box smaller than 3 cutoffs per dim: falls back to all-pairs. *)
  let box, positions = random_positions ~seed:22 ~n:30 ~box_l:6. ~min_dist:0.5 in
  let cl = Cell_list.build box positions ~cutoff:2.5 in
  let count = ref 0 in
  Cell_list.iter_pairs cl (fun _ _ -> incr count);
  Alcotest.(check int) "all pairs enumerated" (30 * 29 / 2) !count

let test_cell_list_degenerate_tiles_balanced () =
  (* In the all-pairs fallback unit i owns n - 1 - i candidates: the tiles
     must partition the units in order and split the candidates evenly. *)
  let n = 1000 in
  let box, positions = random_positions ~seed:24 ~n ~box_l:24. ~min_dist:0.5 in
  let cl = Cell_list.build box positions ~cutoff:10. in
  check_true "degenerate" (Cell_list.degenerate cl);
  let ntiles = 64 in
  let tiles = Cell_list.tile_bounds cl ~ntiles in
  Alcotest.(check int) "tile count" ntiles (Array.length tiles);
  let share = n * (n - 1) / 2 / ntiles in
  Array.iteri
    (fun k (lo, hi) ->
      Alcotest.(check int) "contiguous" (if k = 0 then 0 else snd tiles.(k - 1)) lo;
      let owned = ref 0 in
      Cell_list.iter_range_pairs cl lo hi (fun _ _ -> incr owned);
      check_true
        (Printf.sprintf "tile %d owns %d candidates (share %d)" k !owned share)
        (abs (!owned - share) < n))
    tiles;
  Alcotest.(check int) "covers every unit" n (snd tiles.(ntiles - 1))

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
      let candidates = Hashtbl.create 256 in
      Cell_list.iter_pairs cl (fun i j ->
          Hashtbl.replace candidates (norm_pair (i, j)) ());
      List.for_all
        (fun p -> Hashtbl.mem candidates p)
        (brute_force_pairs box positions cutoff))

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
  let seen = Hashtbl.create 1024 in
  Cell_list.iter_pairs cl (fun i j ->
      let key = norm_pair (i, j) in
      if Hashtbl.mem seen key then
        Alcotest.failf "pair (%d,%d) enumerated twice" i j;
      Hashtbl.add seen key ());
  List.iter
    (fun p ->
      if not (Hashtbl.mem seen p) then
        Alcotest.failf "missing pair (%d,%d) with out-of-box coordinates"
          (fst p) (snd p))
    (brute_force_pairs box positions cutoff)

let test_cell_list_parallel_bin_matches_serial () =
  let box, positions =
    random_positions ~seed:25 ~n:200 ~box_l:20. ~min_dist:0.7
  in
  let cutoff = 4.0 in
  let serial = Cell_list.build box positions ~cutoff in
  let pool = Exec.create (Exec.Domains { n = 4 }) in
  let parallel = Cell_list.build ~exec:pool box positions ~cutoff in
  Exec.shutdown pool;
  let collect cl =
    let acc = ref [] in
    Cell_list.iter_pairs cl (fun i j -> acc := norm_pair (i, j) :: !acc);
    List.sort compare !acc
  in
  check_true "parallel binning yields the identical candidate set"
    (collect serial = collect parallel)

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
  (* The tiled rebuild uses a fixed tile count, so the stored pair list —
     content *and order* — is a pure function of the positions, bitwise
     identical across executor widths. Checked on a box with four cells per
     axis and on one with two (the all-pairs fallback, whose tiles are cut
     at equal candidate shares). *)
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
          Alcotest.test_case "sanitized parallel rebuild race-free" `Quick
            test_neighbor_list_parallel_rebuild_race_free;
          prop_neighbor_list_skin_sweep;
        ] );
    ]
