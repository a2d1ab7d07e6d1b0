type backend =
  | Serial
  | Domains of { n : int }

(* Pool protocol: the caller installs a job and bumps [epoch]; each worker
   runs the job for its own slot exactly once per epoch and decrements
   [pending]. The caller participates as slot 0, then waits for
   [pending = 0]. Workers park on [work] between jobs. *)
type pool = {
  size : int;
  mutex : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  mutable job : (int -> unit) option;
  mutable epoch : int;
  mutable pending : int;
  mutable quit : bool;
  mutable failure : exn option;
  mutable workers : unit Domain.t list;
}

exception Race of string

type access = {
  acc_slot : int;
  acc_resource : string;
  acc_lo : int;
  acc_hi : int;
  acc_total : int option;
}

type barrier_record = {
  br_phase : string option;
  br_reads : access list;
  br_writes : access list;
}

type akind = KRead | KWrite

(* Sanitizer state: slot [s] appends only to [decls.(s)], so the buffers
   need no locking; the caller drains them after the barrier (the pool
   mutex orders the writes before the read). Each entry is
   (kind, resource, lo, hi, total). *)
type sanitizer = {
  decls : (akind * string * int * int * int option) list array;
  mutable observer : (barrier_record -> unit) option;
}

(* Cumulative wall seconds per phase name, one cell per distinct name.
   Charged only from the domain that runs the executor's phases, so it
   needs no lock. *)
type cell = { mutable secs : float }

type t = {
  bk : backend;
  pool : pool option;
  san : sanitizer option;
  clock : (string, cell) Hashtbl.t option;
}

let serial = { bk = Serial; pool = None; san = None; clock = None }

let backend t = t.bk
let n_slots t = match t.bk with Serial -> 1 | Domains { n } -> max 1 n

let sanitizing t = t.san <> None

let declare kind ~slot ~resource ?total ~lo ~hi t =
  match t.san with
  | None -> ()
  | Some s ->
      if slot < 0 || slot >= Array.length s.decls then
        raise
          (Race
             (Printf.sprintf
                "Exec sanitizer: resource %S: slot %d out of range [0, %d)"
                resource slot (Array.length s.decls)));
      if lo < 0 || hi < lo then
        raise
          (Race
             (Printf.sprintf
                "Exec sanitizer: resource %S: slot %d declared a malformed \
                 range [%d, %d)"
                resource slot lo hi));
      s.decls.(slot) <- (kind, resource, lo, hi, total) :: s.decls.(slot)

let declare_write ~slot ~resource ?total ~lo ~hi t =
  declare KWrite ~slot ~resource ?total ~lo ~hi t

let declare_read ~slot ~resource ?total ~lo ~hi t =
  declare KRead ~slot ~resource ?total ~lo ~hi t

let set_observer t obs =
  match t.san with None -> () | Some s -> s.observer <- obs

(* Barrier-time validation — the full conflict matrix. Per resource:
   - write ranges from different slots must be pairwise disjoint;
   - a read range on one slot must not overlap a write range on another
     slot (same-slot read-modify-write is fine: the slot owns the range);
   - overlapping reads are always allowed;
   - when any slot declared the resource's extent, the union of the write
     ranges must cover [0, total) exactly, and no declared range (read or
     write) may reach beyond it.
   The scan sorts all ranges by [lo] and walks them carrying the
   furthest-reaching write seen so far plus the furthest-reaching read of
   each of the two furthest-reaching slots. One carried write suffices:
   cross-slot write overlaps raise the moment the second write arrives, so
   any write surviving the walk overlaps only its own slot's writes and
   carries their slot identity. Reads are different — they overlap each
   other freely, so the single max-hi read may belong to a later writer's
   own slot and mask a shorter cross-slot read underneath it. Carrying the
   top read of the top two distinct slots closes that hole: at most one of
   the two can be the writer's own, and the other reaches at least as far
   as any read the trim dropped. *)
let check_decls san =
  let by_resource : (string, (akind * int * int * int) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let totals : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun slot ds ->
      List.iter
        (fun (kind, res, lo, hi, total) ->
          (match total with
          | None -> ()
          | Some tot -> (
              match Hashtbl.find_opt totals res with
              | Some (tot', slot') when tot' <> tot ->
                  raise
                    (Race
                       (Printf.sprintf
                          "Exec sanitizer: resource %S: slot %d declares \
                           extent %d but slot %d declared %d"
                          res slot tot slot' tot'))
              | Some _ -> ()
              | None -> Hashtbl.replace totals res (tot, slot)));
          if hi > lo then begin
            let cell =
              match Hashtbl.find_opt by_resource res with
              | Some l -> l
              | None ->
                  let l = ref [] in
                  Hashtbl.replace by_resource res l;
                  l
            in
            cell := (kind, slot, lo, hi) :: !cell
          end)
        ds)
    san.decls;
  Hashtbl.iter
    (fun res ranges ->
      let sorted =
        List.sort
          (fun (_, _, lo1, _) (_, _, lo2, _) -> compare lo1 lo2)
          !ranges
      in
      let conflict verb slot lo hi verb0 slot0 lo0 hi0 =
        raise
          (Race
             (Printf.sprintf
                "Exec sanitizer: resource %S: slot %d %s [%d, %d) \
                 overlapping slot %d's %s [%d, %d)"
                res slot verb lo hi slot0 verb0 lo0 hi0))
      in
      let rec scan active_w active_rs = function
        | [] -> ()
        | (kind, slot, lo, hi) :: rest ->
            (match (kind, active_w) with
            | KWrite, Some (slot0, lo0, hi0) when lo < hi0 && slot0 <> slot
              ->
                conflict "writes" slot lo hi "write" slot0 lo0 hi0
            | KRead, Some (slot0, lo0, hi0) when lo < hi0 && slot0 <> slot
              ->
                conflict "reads" slot lo hi "write" slot0 lo0 hi0
            | _ -> ());
            if kind = KWrite then
              List.iter
                (fun (slot0, lo0, hi0) ->
                  if lo < hi0 && slot0 <> slot then
                    conflict "writes" slot lo hi "read" slot0 lo0 hi0)
                active_rs;
            let active_w, active_rs =
              match kind with
              | KWrite ->
                  let active_w =
                    match active_w with
                    | Some (_, _, hi0) when hi0 >= hi -> active_w
                    | _ -> Some (slot, lo, hi)
                  in
                  (active_w, active_rs)
              | KRead ->
                  (* Per-slot max first, then keep the two furthest-reaching
                     entries — necessarily from distinct slots. *)
                  let mine =
                    match
                      List.find_opt (fun (s, _, _) -> s = slot) active_rs
                    with
                    | Some ((_, _, hi0) as r) when hi0 >= hi -> r
                    | _ -> (slot, lo, hi)
                  in
                  let merged =
                    mine
                    :: List.filter (fun (s, _, _) -> s <> slot) active_rs
                  in
                  let top2 =
                    match
                      List.sort
                        (fun (_, _, h1) (_, _, h2) -> compare h2 h1)
                        merged
                    with
                    | a :: b :: _ -> [ a; b ]
                    | l -> l
                  in
                  (active_w, top2)
            in
            scan active_w active_rs rest
      in
      scan None [] sorted;
      match Hashtbl.find_opt totals res with
      | None -> ()
      | Some (total, _) ->
          List.iter
            (fun (kind, slot, lo, hi) ->
              if kind = KRead && hi > total then
                raise
                  (Race
                     (Printf.sprintf
                        "Exec sanitizer: resource %S: slot %d reads \
                         [%d, %d) beyond the declared extent %d"
                        res slot lo hi total)))
            sorted;
          let writes =
            List.filter (fun (kind, _, _, _) -> kind = KWrite) sorted
          in
          let covered =
            List.fold_left
              (fun reached (_, slot, lo, hi) ->
                if lo > reached then
                  raise
                    (Race
                       (Printf.sprintf
                          "Exec sanitizer: resource %S: no slot writes \
                           [%d, %d) of the declared extent %d"
                          res reached lo total));
                if hi > total then
                  raise
                    (Race
                       (Printf.sprintf
                          "Exec sanitizer: resource %S: slot %d writes \
                           [%d, %d) beyond the declared extent %d"
                          res slot lo hi total));
                max reached hi)
              0 writes
          in
          if writes <> [] && covered <> total then
            raise
              (Race
                 (Printf.sprintf
                    "Exec sanitizer: resource %S: declared writes cover \
                     only [0, %d) of the declared extent %d"
                    res covered total)))
    by_resource

let reset_write_sets t =
  match t.san with
  | None -> ()
  | Some s -> Array.fill s.decls 0 (Array.length s.decls) []

(* Validate the barrier's declarations, then deliver them (in slot order,
   declaration order within a slot) to the observer so the dataflow layer
   can accumulate per-phase footprints. *)
let validate_write_sets ?phase t =
  match t.san with
  | None -> ()
  | Some s ->
      check_decls s;
      (match s.observer with
      | None -> ()
      | Some notify ->
          let reads = ref [] and writes = ref [] in
          for slot = Array.length s.decls - 1 downto 0 do
            List.iter
              (fun (kind, res, lo, hi, total) ->
                let a =
                  {
                    acc_slot = slot;
                    acc_resource = res;
                    acc_lo = lo;
                    acc_hi = hi;
                    acc_total = total;
                  }
                in
                match kind with
                | KRead -> reads := a :: !reads
                | KWrite -> writes := a :: !writes)
              s.decls.(slot)
          done;
          if !reads <> [] || !writes <> [] then
            notify
              { br_phase = phase; br_reads = !reads; br_writes = !writes })

let worker_loop pool slot =
  let last_epoch = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while (not pool.quit) && pool.epoch = !last_epoch do
      Condition.wait pool.work pool.mutex
    done;
    if pool.quit then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      last_epoch := pool.epoch;
      let job = pool.job in
      Mutex.unlock pool.mutex;
      (match job with
      | None -> ()
      | Some f -> (
          try f slot
          with e ->
            Mutex.lock pool.mutex;
            if pool.failure = None then pool.failure <- Some e;
            Mutex.unlock pool.mutex));
      Mutex.lock pool.mutex;
      pool.pending <- pool.pending - 1;
      if pool.pending = 0 then Condition.signal pool.finished;
      Mutex.unlock pool.mutex
    end
  done

let shutdown t =
  match t.pool with
  | None -> ()
  | Some p ->
      Mutex.lock p.mutex;
      let workers = p.workers in
      p.workers <- [];
      p.quit <- true;
      Condition.broadcast p.work;
      Mutex.unlock p.mutex;
      List.iter Domain.join workers

let create ?(sanitize = false) bk =
  let san n =
    if sanitize then Some { decls = Array.make n []; observer = None }
    else None
  in
  let clock = Some (Hashtbl.create 64) in
  match bk with
  | Serial -> { bk = Serial; pool = None; san = san 1; clock }
  | Domains { n } when n <= 1 ->
      { bk = Domains { n = 1 }; pool = None; san = san 1; clock }
  | Domains { n } ->
      let pool =
        {
          size = n;
          mutex = Mutex.create ();
          work = Condition.create ();
          finished = Condition.create ();
          job = None;
          epoch = 0;
          pending = 0;
          quit = false;
          failure = None;
          workers = [];
        }
      in
      pool.workers <-
        List.init (n - 1) (fun i ->
            Domain.spawn (fun () -> worker_loop pool (i + 1)));
      let t = { bk = Domains { n }; pool = Some pool; san = san n; clock } in
      (* Workers otherwise block forever on [work] and keep the runtime from
         exiting cleanly. *)
      at_exit (fun () -> shutdown t);
      t

let timed ~phase t f =
  match t.clock with
  | None -> f ()
  | Some clock ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let d = Unix.gettimeofday () -. t0 in
      (match Hashtbl.find clock phase with
      | c -> c.secs <- c.secs +. d
      | exception Not_found -> Hashtbl.add clock phase { secs = d });
      r

let phase_times t =
  match t.clock with
  | None -> []
  | Some clock ->
      Hashtbl.fold (fun name c acc -> (name, c.secs) :: acc) clock []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_phase_times t = Option.iter Hashtbl.reset t.clock

let barrier ?phase t f =
  reset_write_sets t;
  match t.pool with
  | None ->
      f 0;
      validate_write_sets ?phase t
  | Some p ->
      Mutex.lock p.mutex;
      if p.quit then begin
        Mutex.unlock p.mutex;
        invalid_arg "Exec.parallel_run: pool is shut down"
      end;
      p.job <- Some f;
      p.pending <- p.size - 1;
      p.failure <- None;
      p.epoch <- p.epoch + 1;
      Condition.broadcast p.work;
      Mutex.unlock p.mutex;
      let main_failure = (try f 0; None with e -> Some e) in
      Mutex.lock p.mutex;
      while p.pending > 0 do
        Condition.wait p.finished p.mutex
      done;
      p.job <- None;
      let worker_failure = p.failure in
      p.failure <- None;
      Mutex.unlock p.mutex;
      (match main_failure with Some e -> raise e | None -> ());
      (match worker_failure with Some e -> raise e | None -> ());
      (* Only a barrier that every slot completed can be audited; a failed
         job leaves the declarations incomplete and has already raised. *)
      validate_write_sets ?phase t

(* An unlabelled barrier is not charged. *)
let parallel_run ?phase t f =
  match phase with
  | None -> barrier t f
  | Some name -> timed ~phase:name t (fun () -> barrier ~phase:name t f)

let map_slots ?(phase = "exec.map_slots") t f =
  let n = n_slots t in
  let out = Array.make n None in
  parallel_run ~phase t (fun s ->
      out.(s) <- Some (f s);
      (* Each slot both reads its own cell (the closure environment and any
         per-slot state [f] consults) and writes its result there. *)
      declare_read ~slot:s ~resource:"exec.map_slots" ~total:n ~lo:s
        ~hi:(s + 1) t;
      declare_write ~slot:s ~resource:"exec.map_slots" ~total:n ~lo:s
        ~hi:(s + 1) t);
  Array.map
    (function
      | Some v -> v
      | None -> invalid_arg "Exec.map_slots: a slot produced no value")
    out

let tile_bounds ~total ~ntiles =
  if total < 0 then invalid_arg "Exec.tile_bounds: total";
  if ntiles < 1 then invalid_arg "Exec.tile_bounds: ntiles";
  Array.init ntiles (fun k ->
      (total * k / ntiles, total * (k + 1) / ntiles))

(* Declarations are guarded on the sanitizer so an uninstrumented sweep
   pays nothing for them; [parallel_run] without a pool is [body 0 0 total]
   between a no-op reset and a no-op validate. *)
let sweep ~phase ?(reads = []) ?(writes = []) ?(whole = []) t ~total body =
  let tiles = tile_bounds ~total ~ntiles:(n_slots t) in
  parallel_run ~phase t (fun s ->
      let lo, hi = tiles.(s) in
      if sanitizing t then begin
        List.iter
          (fun resource -> declare_read ~slot:s ~resource ~lo ~hi t)
          reads;
        List.iter
          (fun resource -> declare_write ~slot:s ~resource ~total ~lo ~hi t)
          writes;
        List.iter
          (fun (resource, n) -> declare_read ~slot:s ~resource ~lo:0 ~hi:n t)
          whole
      end;
      body s lo hi)

let sum_tree a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Exec.sum_tree: empty array";
  let b = Array.copy a in
  let stride = ref 1 in
  while !stride < n do
    let i = ref 0 in
    while !i + !stride < n do
      b.(!i) <- b.(!i) +. b.(!i + !stride);
      i := !i + (2 * !stride)
    done;
    stride := 2 * !stride
  done;
  b.(0)

let recommended_domains () = max 1 (Domain.recommended_domain_count ())
