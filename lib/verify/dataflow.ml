open Mdsp_util
module SMap = Map.Make (String)

(* Every named parallel phase the stack ships. The analysis fails if any
   of these never shows up in a recording sweep, so adding a phase to the
   code base means adding it here — the same closed-world rule the kernel
   and table registries follow. *)
let expected_phases =
  [
    "bonded";
    "bonded.reduce";
    "cell.bin";
    "constraints.fold";
    "constraints.rattle";
    "constraints.shake";
    "decomp.owner";
    "decomp.pairs";
    "decomp.resident";
    "exec.map_slots";
    "gse.combine";
    "gse.convolve";
    "gse.fft_fwd.x";
    "gse.fft_fwd.y";
    "gse.fft_fwd.z";
    "gse.fft_inv.x";
    "gse.fft_inv.y";
    "gse.fft_inv.z";
    "gse.gather";
    "gse.phi_scale";
    "gse.spread";
    "integrate.drift";
    "integrate.kick1";
    "integrate.kick2";
    "nbuild";
    "pair";
    "pair14";
    "pair.reduce";
    "service.jobs";
    "soa.load";
    "soa.reduce";
    "soa.store";
    "thermo.langevin";
    "thermo.scale";
  ]

(* Several phases declare their accesses under phase-local labels that
   alias the same underlying memory — the per-atom reductions accumulate
   into the force array, the whole grid pipeline transforms one grid in
   place, the pair phase reads the list the rebuild wrote. Mapping those
   labels onto the canonical resource is what turns per-phase footprints
   into dataflow edges. *)
let canon = function
  | "bonded.reduce" | "gse.gather" -> "state.forces"
  | "cons.pos" -> "state.positions"
  | "cons.vel" -> "state.velocities"
  | "cons.prev" -> "integrate.prev"
  | "soa.reduce" -> "soa.forces"
  | "nlist.pairs" -> "nlist.tiles"
  | "gse.grid_combine" | "gse.convolve" | "gse.phi_scale" | "fft.x_lines"
  | "fft.y_lines" | "fft.z_lines" ->
      "gse.grid"
  | r -> r

type phase = {
  ph_name : string;
  ph_reads : (string * (int * int)) list;
  ph_writes : (string * (int * int)) list;
  ph_barriers : int;
}

type graph = {
  g_slots : int;
  g_phases : phase list;
  g_edges : (string * string * string) list;
  g_unlabeled : int;
}

type report = {
  df_graphs : graph list;
  df_missing : string list;
  df_unexpected : string list;
  df_no_reads : string list;
  df_no_writes : string list;
  df_acyclic : bool;
  df_invariant : bool;
  df_failure : string option;
  df_seeded : bool;
}

(* --- recording ------------------------------------------------------- *)

type acc = {
  mutable a_reads : (int * int) SMap.t;
  mutable a_writes : (int * int) SMap.t;
  mutable a_barriers : int;
}

type recorder = {
  r_phases : (string, acc) Hashtbl.t;
  r_edges : (string * string * string, unit) Hashtbl.t;
  (* Canonical resource -> phase that last wrote it, reset per window. *)
  r_last_writer : (string, string) Hashtbl.t;
  mutable r_unlabeled : int;
}

let hull m r lo hi =
  match SMap.find_opt r m with
  | None -> SMap.add r (lo, hi) m
  | Some (l, h) -> SMap.add r (min l lo, max h hi) m

let observe rc (br : Exec.barrier_record) =
  match br.Exec.br_phase with
  | None -> rc.r_unlabeled <- rc.r_unlabeled + 1
  | Some name ->
      let acc =
        match Hashtbl.find_opt rc.r_phases name with
        | Some a -> a
        | None ->
            let a =
              { a_reads = SMap.empty; a_writes = SMap.empty; a_barriers = 0 }
            in
            Hashtbl.add rc.r_phases name a;
            a
      in
      acc.a_barriers <- acc.a_barriers + 1;
      (* Reads first, against the previous writer: a phase that both reads
         and writes a resource (read-modify-write) depends on the writer
         before it, not on itself. Self-edges are dropped — a phase
         following its own earlier barrier is plain sequencing, not a
         cross-phase ordering constraint. *)
      List.iter
        (fun (a : Exec.access) ->
          let r = canon a.Exec.acc_resource in
          acc.a_reads <- hull acc.a_reads r a.Exec.acc_lo a.Exec.acc_hi;
          match Hashtbl.find_opt rc.r_last_writer r with
          | Some w when w <> name -> Hashtbl.replace rc.r_edges (w, name, r) ()
          | _ -> ())
        br.Exec.br_reads;
      List.iter
        (fun (a : Exec.access) ->
          let r = canon a.Exec.acc_resource in
          acc.a_writes <- hull acc.a_writes r a.Exec.acc_lo a.Exec.acc_hi;
          Hashtbl.replace rc.r_last_writer r name)
        br.Exec.br_writes

(* A deliberately unsound phase: every slot writes its own tile while
   claiming to read the whole array. Sound at one slot (same-slot
   read-modify-write); a cross-slot read-write conflict at two or more —
   the gate that proves the conflict matrix cannot be green by accident. *)
let seed_race_window ~exec () =
  let n = 64 in
  let a = Array.make n 0. in
  fun () ->
    Exec.sweep ~phase:"seed.race" ~writes:[ "seed.race" ]
      ~whole:[ ("seed.race", n) ] exec ~total:n (fun _ lo hi ->
        for i = lo to hi - 1 do
          a.(i) <- a.(i) +. 1.
        done)

(* A deliberately cyclic phase pair: each phase's writes are properly
   tiled (no races at any slot count — the conflict matrix stays green),
   but A reads what B last wrote and vice versa, so the derived
   happens-before graph contains A -> B -> A. This must fail the
   acyclicity branch of the certifier — the branch [seed.race] never
   reaches. Both phases also fail the closed-world registry, but the
   seeded report asserts the cycle specifically. *)
let seed_cycle_window ~exec () =
  let n = 64 in
  let x = Array.make n 0. and y = Array.make n 0. in
  let half name ~writes ~reads src dst =
    Exec.sweep ~phase:name ~reads:[ reads ] ~writes:[ writes ] exec ~total:n
      (fun _ lo hi ->
        for i = lo to hi - 1 do
          dst.(i) <- src.(i) +. 1.
        done)
  in
  fun () ->
    half "seed.cycle.a" ~writes:"seed.x" ~reads:"seed.y" y x;
    half "seed.cycle.b" ~writes:"seed.y" ~reads:"seed.x" x y;
    half "seed.cycle.a" ~writes:"seed.x" ~reads:"seed.y" y x

let graph_of rc ~slots =
  let phases =
    Hashtbl.fold
      (fun name a l ->
        {
          ph_name = name;
          ph_reads = SMap.bindings a.a_reads;
          ph_writes = SMap.bindings a.a_writes;
          ph_barriers = a.a_barriers;
        }
        :: l)
      rc.r_phases []
  in
  {
    g_slots = slots;
    g_phases =
      List.sort (fun p q -> compare p.ph_name q.ph_name) phases;
    g_edges =
      List.sort compare
        (Hashtbl.fold (fun e () l -> e :: l) rc.r_edges []);
    g_unlabeled = rc.r_unlabeled;
  }

let run_at ~slots ~seed_race ~seed_cycle =
  let exec = Phase_check.make_exec ~slots in
  let rc =
    {
      r_phases = Hashtbl.create 64;
      r_edges = Hashtbl.create 64;
      r_last_writer = Hashtbl.create 32;
      r_unlabeled = 0;
    }
  in
  Fun.protect
    ~finally:(fun () -> Exec.shutdown exec)
    (fun () ->
      let windows =
        Phase_check.windows
        @ (if seed_race then [ ("seed.race", seed_race_window) ] else [])
        @
        if seed_cycle then [ ("seed.cycle", seed_cycle_window) ] else []
      in
      List.iter
        (fun (_name, window) ->
          (* Setup (engine construction and its force evaluation) runs
             unobserved; only the body is recorded, with a fresh
             last-writer table per window. *)
          let body = window ~exec () in
          Hashtbl.reset rc.r_last_writer;
          Exec.set_observer exec (Some (observe rc));
          Fun.protect
            ~finally:(fun () -> Exec.set_observer exec None)
            body)
        windows);
  graph_of rc ~slots

(* --- analysis -------------------------------------------------------- *)

let acyclic g =
  (* Kahn's algorithm over the phase names. *)
  let indeg = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace indeg p.ph_name 0) g.g_phases;
  List.iter
    (fun (_, b, _) ->
      match Hashtbl.find_opt indeg b with
      | Some d -> Hashtbl.replace indeg b (d + 1)
      | None -> ())
    g.g_edges;
  let queue = Queue.create () in
  Hashtbl.iter (fun n d -> if d = 0 then Queue.add n queue) indeg;
  let removed = ref 0 in
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    incr removed;
    List.iter
      (fun (a, b, _) ->
        if a = n then begin
          let d = Hashtbl.find indeg b - 1 in
          Hashtbl.replace indeg b d;
          if d = 0 then Queue.add b queue
        end)
      g.g_edges
  done;
  !removed = List.length g.g_phases

(* The shape compared across slot counts: phase names with their read and
   write resource-name sets, plus the edge triples. Ranges are excluded on
   purpose — footprint extents legitimately vary with the slot count (the
   scheduler batches as many jobs as there are slots), the *structure*
   must not. *)
let shape g =
  ( List.map
      (fun p ->
        ( p.ph_name,
          List.map fst p.ph_reads,
          List.map fst p.ph_writes ))
      g.g_phases,
    g.g_edges )

let run ?(slots = [ 1; 2; 4 ]) ?(seed_race = false) ?(seed_cycle = false) () =
  let rec sweep acc = function
    | [] -> (List.rev acc, None)
    | s :: rest -> (
        match run_at ~slots:s ~seed_race ~seed_cycle with
        | g -> sweep (g :: acc) rest
        | exception Exec.Race msg ->
            (List.rev acc, Some (Printf.sprintf "slots=%d: %s" s msg)))
  in
  let graphs, failure = sweep [] slots in
  let recorded =
    List.concat_map (fun g -> List.map (fun p -> p.ph_name) g.g_phases) graphs
    |> List.sort_uniq compare
  in
  let missing =
    if failure <> None then []
    else List.filter (fun p -> not (List.mem p recorded)) expected_phases
  in
  (* The closed world cuts both ways: a recorded phase that is not
     registered in [expected_phases] fails the report just like a
     registered phase that never ran. *)
  let unexpected =
    if failure <> None then []
    else List.filter (fun p -> not (List.mem p expected_phases)) recorded
  in
  let coverage sel =
    List.concat_map
      (fun g ->
        List.filter_map
          (fun p -> if sel p = [] then Some p.ph_name else None)
          g.g_phases)
      graphs
    |> List.sort_uniq compare
  in
  let invariant =
    match graphs with
    | [] -> failure = None
    | g0 :: rest -> List.for_all (fun g -> shape g = shape g0) rest
  in
  {
    df_graphs = graphs;
    df_missing = missing;
    df_unexpected = unexpected;
    df_no_reads = coverage (fun p -> p.ph_reads);
    df_no_writes = coverage (fun p -> p.ph_writes);
    df_acyclic = List.for_all acyclic graphs;
    df_invariant = invariant;
    df_failure = failure;
    df_seeded = seed_race || seed_cycle;
  }

let ok r =
  r.df_failure = None
  && r.df_missing = [] && r.df_unexpected = []
  && r.df_no_reads = [] && r.df_no_writes = []
  && r.df_acyclic && r.df_invariant
  && List.for_all (fun g -> g.g_unlabeled = 0) r.df_graphs
  && r.df_graphs <> []

(* --- output ---------------------------------------------------------- *)

let dot g =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "digraph phases {\n";
  Buffer.add_string buf "  rankdir=LR;\n";
  Buffer.add_string buf "  node [shape=box, fontsize=10];\n";
  List.iter
    (fun p -> Buffer.add_string buf (Printf.sprintf "  %S;\n" p.ph_name))
    g.g_phases;
  List.iter
    (fun (a, b, r) ->
      Buffer.add_string buf
        (Printf.sprintf "  %S -> %S [label=%S, fontsize=8];\n" a b r))
    g.g_edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_footprint fmt l =
  Format.fprintf fmt "%s"
    (String.concat ", "
       (List.map (fun (r, (lo, hi)) -> Printf.sprintf "%s[%d,%d)" r lo hi) l))

let pp_report fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun g ->
      Format.fprintf fmt
        "phases (%d slot%s): %d phases, %d edges, %s@," g.g_slots
        (if g.g_slots = 1 then "" else "s")
        (List.length g.g_phases) (List.length g.g_edges)
        (if acyclic g then "acyclic" else "CYCLIC"))
    r.df_graphs;
  (match r.df_graphs with
  | g :: _ ->
      List.iter
        (fun p ->
          Format.fprintf fmt "  %-16s reads %a | writes %a@," p.ph_name
            pp_footprint p.ph_reads pp_footprint p.ph_writes)
        g.g_phases;
      List.iter
        (fun (a, b, res) ->
          Format.fprintf fmt "  %s -> %s  [%s]@," a b res)
        g.g_edges
  | [] -> ());
  (match r.df_failure with
  | Some msg -> Format.fprintf fmt "phases: RACE@,  %s@," msg
  | None -> ());
  if r.df_missing <> [] then
    Format.fprintf fmt "phases: MISSING %s@,"
      (String.concat ", " r.df_missing);
  if r.df_unexpected <> [] then
    Format.fprintf fmt "phases: UNREGISTERED %s@,"
      (String.concat ", " r.df_unexpected);
  if r.df_no_reads <> [] then
    Format.fprintf fmt "phases: NO READ-SET %s@,"
      (String.concat ", " r.df_no_reads);
  if r.df_no_writes <> [] then
    Format.fprintf fmt "phases: NO WRITE-SET %s@,"
      (String.concat ", " r.df_no_writes);
  if not r.df_invariant then
    Format.fprintf fmt "phases: graph shape DIFFERS across slot counts@,";
  Format.fprintf fmt "phases: %s@,@]"
    (if ok r then "dataflow graph certified" else "FAILED")

let json_rows r =
  ("phases.ok", ok r)
  :: ("phases.acyclic", r.df_acyclic)
  :: ("phases.invariant", r.df_invariant)
  :: ("phases.coverage",
      r.df_missing = [] && r.df_unexpected = []
      && r.df_no_reads = [] && r.df_no_writes = [])
  :: List.map
       (fun g ->
         (Printf.sprintf "phases.slots%d" g.g_slots, acyclic g))
       r.df_graphs
