(* [pairs] lists [adj]'s pairs with i < j in ascending order, built once:
   the set never changes. *)
type t = { adj : int array array; npairs : int; pairs : (int * int) list }

let make adj =
  let acc = ref [] in
  Array.iteri
    (fun i a -> Array.iter (fun j -> if j > i then acc := (i, j) :: !acc) a)
    adj;
  let pairs = List.rev !acc in
  { adj; npairs = List.length pairs; pairs }

let of_pairs ~n pairs =
  let sets = Array.make n [] in
  let seen = Hashtbl.create 64 in
  let add i j =
    if i <> j then begin
      let key = if i < j then (i, j) else (j, i) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        sets.(i) <- j :: sets.(i);
        sets.(j) <- i :: sets.(j)
      end
    end
  in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Exclusions.of_pairs: atom index out of range";
      add i j)
    pairs;
  make
    (Array.map
       (fun l ->
         let a = Array.of_list l in
         Array.sort compare a;
         a)
       sets)

let empty ~n = make (Array.make n [||])

let from_bonds ~n ~bonds ~through =
  if through < 1 || through > 3 then
    invalid_arg "Exclusions.from_bonds: through must be 1, 2 or 3";
  let graph = Array.make n [] in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Exclusions.from_bonds: atom index out of range";
      graph.(i) <- j :: graph.(i);
      graph.(j) <- i :: graph.(j))
    bonds;
  (* BFS out to [through] bonds from each atom. *)
  let pairs = ref [] in
  for i = 0 to n - 1 do
    let dist = Hashtbl.create 16 in
    Hashtbl.add dist i 0;
    let frontier = ref [ i ] in
    for d = 1 to through do
      let next = ref [] in
      List.iter
        (fun u ->
          List.iter
            (fun v ->
              if not (Hashtbl.mem dist v) then begin
                Hashtbl.add dist v d;
                next := v :: !next;
                if v > i then pairs := (i, v) :: !pairs
              end)
            graph.(u))
        !frontier;
      frontier := !next
    done
  done;
  of_pairs ~n !pairs

let excluded t i j =
  let a = t.adj.(i) in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let found = ref false in
  while !lo <= !hi && not !found do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) = j then found := true
    else if a.(mid) < j then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let count t = t.npairs
let pairs t = t.pairs
