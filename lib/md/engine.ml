open Mdsp_util

type thermostat =
  | No_thermostat
  | Langevin of { gamma_fs : float }
  | Berendsen of { tau_fs : float }
  | Nose_hoover of { tau_fs : float }

type barostat =
  | No_barostat
  | Berendsen_baro of { tau_fs : float; pressure_atm : float }
  | Monte_carlo_baro of {
      interval : int;
      pressure_atm : float;
      max_dlnv : float;
    }

type config = {
  dt_fs : float;
  temperature : float;
  thermostat : thermostat;
  barostat : barostat;
  respa_inner : int option;
  remove_com_interval : int;
}

let default_config =
  {
    dt_fs = 1.0;
    temperature = 300.;
    thermostat = No_thermostat;
    barostat = No_barostat;
    respa_inner = None;
    remove_com_interval = 0;
  }

(* Nosé–Hoover chain of length 2 (velocities of the chain variables). *)
type nhc = { mutable v1 : float; mutable v2 : float; q1 : float; q2 : float }

type t = {
  topo : Mdsp_ff.Topology.t;
  fc : Force_calc.t;
  st : State.t;
  mutable cfg : config;
  cons : Constraints.t;
  vsites : Virtual_sites.t;
  acc : Mdsp_ff.Bonded.accum;
  fast_acc : Mdsp_ff.Bonded.accum; (* RESPA fast-force accumulator *)
  (* True when [acc] holds the slow class and [fast_acc] the fast class,
     both at the current positions (a RESPA step leaves them so); false
     when [acc] holds every class (create, refresh_forces, restore). *)
  mutable split : bool;
  prev_positions : Vec3.t array; (* scratch for SHAKE *)
  mutable energies : Force_calc.energies;
  rng : Rng.t;
  dof : int;
  mutable nsteps : int;
  mutable nhc : nhc option;
  mutable hooks : (string * (t -> unit)) list;
  mutable mc_baro_accept : int;
  mutable mc_baro_try : int;
}

let make_nhc ~dof ~temperature ~tau =
  let kt = Units.kt temperature in
  let q1 = float_of_int dof *. kt *. tau *. tau in
  let q2 = kt *. tau *. tau in
  { v1 = 0.; v2 = 0.; q1; q2 }

let create ?(seed = 7) topo fc st cfg =
  let n = State.n st in
  let dof = Mdsp_ff.Topology.dof topo in
  let t =
    {
      topo;
      fc;
      st;
      cfg;
      cons = Constraints.create topo;
      vsites = Virtual_sites.create topo;
      acc = Mdsp_ff.Bonded.make_accum n;
      fast_acc = Mdsp_ff.Bonded.make_accum n;
      split = false;
      prev_positions = Array.make n Vec3.zero;
      energies = Force_calc.zero_energies;
      rng = Rng.create seed;
      dof;
      nsteps = 0;
      nhc = None;
      hooks = [];
      mc_baro_accept = 0;
      mc_baro_try = 0;
    }
  in
  (match cfg.thermostat with
  | Nose_hoover { tau_fs } ->
      t.nhc <-
        Some
          (make_nhc ~dof ~temperature:cfg.temperature ~tau:(Units.fs tau_fs))
  | _ -> ());
  Virtual_sites.zero_velocities t.vsites st.State.velocities;
  Virtual_sites.place t.vsites st.State.box st.State.positions;
  t.energies <- Force_calc.compute fc st.State.box st.State.positions t.acc;
  Virtual_sites.spread_forces t.vsites t.acc;
  t

let state t = t.st
let force_calc t = t.fc
let config t = t.cfg
let rng t = t.rng
let steps_done t = t.nsteps
let energies t = t.energies
let potential_energy t = Force_calc.total t.energies
let kinetic_energy t = State.kinetic_energy t.st
let total_energy t = potential_energy t +. kinetic_energy t
let temperature t = State.temperature t.st ~dof:t.dof
let dof t = t.dof
let constraints t = t.cons

let pressure_atm t =
  let v = Pbc.volume t.st.State.box in
  let virial =
    if t.split then t.acc.virial +. t.fast_acc.virial else t.acc.virial
  in
  let p = ((2. *. kinetic_energy t) +. virial) /. (3. *. v) in
  Units.pressure_to_atm p

let set_temperature t temp =
  t.cfg <- { t.cfg with temperature = temp };
  match t.nhc with
  | Some _ ->
      (match t.cfg.thermostat with
      | Nose_hoover { tau_fs } ->
          t.nhc <-
            Some (make_nhc ~dof:t.dof ~temperature:temp ~tau:(Units.fs tau_fs))
      | _ -> ())
  | None -> ()

let refresh_forces t =
  Virtual_sites.place t.vsites t.st.State.box t.st.State.positions;
  t.energies <-
    Force_calc.compute t.fc t.st.State.box t.st.State.positions t.acc;
  Virtual_sites.spread_forces t.vsites t.acc;
  t.split <- false

(* --- snapshot / restore --- *)

type snapshot = {
  snap_state : State.t;
  snap_steps : int;
  snap_temperature : float;
  snap_rng : Rng.snapshot;
  snap_nhc : (float * float) option;
  snap_mc_baro : int * int;
  snap_energies : Force_calc.energies;
  snap_forces : Vec3.t array;
  snap_virial : float;
  snap_nlist_box : Pbc.t;
  snap_nlist_ref : Vec3.t array;
}

(* A split engine holds its forces and virial in two classes; the
   snapshot stores their sums, the forces and virial of a full evaluation
   to rounding, as [pressure_atm] adds them. *)
let snapshot t =
  let nlist = Force_calc.nlist t.fc in
  let acc = t.acc and fast = t.fast_acc in
  {
    snap_state = State.copy t.st;
    snap_steps = t.nsteps;
    snap_temperature = t.cfg.temperature;
    snap_rng = Rng.snapshot t.rng;
    snap_nhc = Option.map (fun c -> (c.v1, c.v2)) t.nhc;
    snap_mc_baro = (t.mc_baro_accept, t.mc_baro_try);
    snap_energies = t.energies;
    snap_forces =
      (if t.split then
         Array.map2 Vec3.add acc.Mdsp_ff.Bonded.forces
           fast.Mdsp_ff.Bonded.forces
       else Array.copy acc.Mdsp_ff.Bonded.forces);
    snap_virial =
      (if t.split then acc.Mdsp_ff.Bonded.virial +. fast.Mdsp_ff.Bonded.virial
       else acc.Mdsp_ff.Bonded.virial);
    snap_nlist_box = Mdsp_space.Neighbor_list.box nlist;
    snap_nlist_ref = Mdsp_space.Neighbor_list.ref_positions nlist;
  }

let restore t s =
  let n = State.n t.st in
  if State.n s.snap_state <> n then
    invalid_arg "Engine.restore: snapshot atom count mismatch";
  State.blit ~src:s.snap_state ~dst:t.st;
  t.nsteps <- s.snap_steps;
  set_temperature t s.snap_temperature;
  (match (t.nhc, s.snap_nhc) with
  | Some c, Some (v1, v2) ->
      c.v1 <- v1;
      c.v2 <- v2
  | _ -> ());
  let acc, tries = s.snap_mc_baro in
  t.mc_baro_accept <- acc;
  t.mc_baro_try <- tries;
  Rng.restore t.rng s.snap_rng;
  (* Rebuild the neighbor list from the snapshot's reference positions so
     the pair list (content and iteration order) and the skin displacement
     tracking match the interrupted run, then reinstate the forces that were
     in flight instead of recomputing them — the first half-kick after a
     restore must use exactly the forces the uninterrupted run would. A
     RESPA step splits them again: its slow class is a function of the
     positions and of this list, so it evaluates to the bits the
     interrupted run held. *)
  ignore
    (Mdsp_space.Neighbor_list.rebuild ~box:s.snap_nlist_box
       (Force_calc.nlist t.fc) s.snap_nlist_ref);
  Array.blit s.snap_forces 0 t.acc.Mdsp_ff.Bonded.forces 0 n;
  t.acc.Mdsp_ff.Bonded.virial <- s.snap_virial;
  t.energies <- s.snap_energies;
  t.split <- false

let add_post_step t ~name fn = t.hooks <- t.hooks @ [ (name, fn) ]

let remove_post_step t name =
  let before = List.length t.hooks in
  t.hooks <- List.filter (fun (n, _) -> n <> name) t.hooks;
  List.length t.hooks < before

(* --- thermostat pieces --- *)

(* Half-step Nosé–Hoover chain update; returns velocity scale factor. *)
let nhc_half t dt =
  match t.nhc with
  | None -> 1.
  | Some c ->
      let kt = Units.kt t.cfg.temperature in
      let ndf = float_of_int t.dof in
      let ke2 = 2. *. kinetic_energy t in
      let g2 = ((c.q1 *. c.v1 *. c.v1) -. kt) /. c.q2 in
      c.v2 <- c.v2 +. (g2 *. dt /. 4.);
      c.v1 <- c.v1 *. exp (-.c.v2 *. dt /. 8.);
      let g1 = (ke2 -. (ndf *. kt)) /. c.q1 in
      c.v1 <- c.v1 +. (g1 *. dt /. 4.);
      c.v1 <- c.v1 *. exp (-.c.v2 *. dt /. 8.);
      let s = exp (-.c.v1 *. dt /. 2.) in
      (* Rebuild the chain forces with the scaled kinetic energy. *)
      let ke2' = ke2 *. s *. s in
      c.v1 <- c.v1 *. exp (-.c.v2 *. dt /. 8.);
      let g1' = (ke2' -. (ndf *. kt)) /. c.q1 in
      c.v1 <- c.v1 +. (g1' *. dt /. 4.);
      c.v1 <- c.v1 *. exp (-.c.v2 *. dt /. 8.);
      let g2' = ((c.q1 *. c.v1 *. c.v1) -. kt) /. c.q2 in
      c.v2 <- c.v2 +. (g2' *. dt /. 4.);
      s

let berendsen_scale t dt tau =
  let temp = temperature t in
  if temp <= 0. then 1.
  else sqrt (1. +. (dt /. tau *. ((t.cfg.temperature /. temp) -. 1.)))

(* Ornstein–Uhlenbeck velocity update (the O in BAOAB). The engine RNG
   yields one key per step; atom i draws its noise from child stream i of
   that key, so the sweep is a per-atom-independent map — order- and
   tiling-invariant, hence bitwise identical at any slot count. *)
let langevin_o t gamma dt =
  let c1 = exp (-.gamma *. dt) in
  let kt = Units.kt t.cfg.temperature in
  let v = t.st.State.velocities and m = t.st.State.masses in
  let key = Rng.split_key t.rng in
  Exec.sweep ~phase:"thermo.langevin" ~reads:[ "state.velocities" ]
    ~writes:[ "state.velocities" ] (Force_calc.exec t.fc) ~total:(State.n t.st)
    (fun _ lo hi ->
      for i = lo to hi - 1 do
        if not (Virtual_sites.is_site t.vsites i) then begin
          let c2 = sqrt (kt /. m.(i) *. (1. -. (c1 *. c1))) in
          v.(i) <-
            Vec3.add (Vec3.scale c1 v.(i))
              (Vec3.scale c2 (Rng.gaussian_vec (Rng.derive key i)))
        end
      done)

(* Velocity rescale (NH chain, Berendsen) as a per-atom sweep; the scalar
   factor comes from a serial reduction beforehand, so the sweep itself is
   a pure per-atom map. A factor of exactly 1 is the thermostat saying
   "no-op"; skipping it is bitwise-neutral (v *. 1.0 = v). *)
let thermo_scale t s =
  if s <> 1. then begin
    let v = t.st.State.velocities in
    Exec.sweep ~phase:"thermo.scale" ~reads:[ "state.velocities" ]
      ~writes:[ "state.velocities" ] (Force_calc.exec t.fc)
      ~total:(State.n t.st) (fun _ lo hi ->
        for i = lo to hi - 1 do
          v.(i) <- Vec3.scale s v.(i)
        done)
  end

(* --- integrator pieces --- *)

(* The kick and drift sweeps are per-atom independent (no reductions), so
   their result does not depend on the slot count. Masses and the
   virtual-site table are immutable parameters and need no read
   declaration. *)
let kick ?(phase = "integrate.kick1") t (acc : Mdsp_ff.Bonded.accum) dt =
  let v = t.st.State.velocities and m = t.st.State.masses in
  let forces = acc.Mdsp_ff.Bonded.forces in
  Exec.sweep ~phase ~reads:[ "state.forces"; "state.velocities" ]
    ~writes:[ "state.velocities" ] (Force_calc.exec t.fc) ~total:(State.n t.st)
    (fun _ lo hi ->
      for i = lo to hi - 1 do
        if not (Virtual_sites.is_site t.vsites i) then
          v.(i) <- Vec3.axpy (dt /. m.(i)) forces.(i) v.(i)
      done)

(* Drift positions by dt (saving the pre-step positions), apply SHAKE, and
   fold the constraint displacement back into velocities: three pool
   phases. Virtual-site placement stays on the calling domain. *)
let drift t dt =
  let x = t.st.State.positions and v = t.st.State.velocities in
  let prev = t.prev_positions in
  let n = State.n t.st in
  let exec = Force_calc.exec t.fc in
  Exec.sweep ~phase:"integrate.drift"
    ~reads:[ "state.positions"; "state.velocities" ]
    ~writes:[ "state.positions"; "integrate.prev" ] exec ~total:n
    (fun _ lo hi ->
      Array.blit x lo prev lo (hi - lo);
      for i = lo to hi - 1 do
        if not (Virtual_sites.is_site t.vsites i) then
          x.(i) <- Vec3.axpy dt v.(i) x.(i)
      done);
  if Constraints.count t.cons > 0 then begin
    Constraints.shake ~exec t.cons t.st.State.box ~prev x
      ~masses:t.st.State.masses;
    (* Fold the constraint displacement back into velocities: a per-atom
       map over positions and saved pre-step positions. *)
    Exec.sweep ~phase:"constraints.fold"
      ~reads:[ "state.positions"; "integrate.prev" ]
      ~writes:[ "state.velocities" ] exec ~total:n (fun _ lo hi ->
        (* [Vec3.scale s (Vec3.sub a b)] on the same bits, written as one
           record: 4 words per atom instead of 10. *)
        let s = 1. /. dt in
        for i = lo to hi - 1 do
          if not (Virtual_sites.is_site t.vsites i) then begin
            let a = x.(i) and b = prev.(i) in
            v.(i) <-
              {
                Vec3.x = s *. (a.Vec3.x -. b.Vec3.x);
                y = s *. (a.Vec3.y -. b.Vec3.y);
                z = s *. (a.Vec3.z -. b.Vec3.z);
              }
          end
        done)
  end;
  if Virtual_sites.count t.vsites > 0 then
    Virtual_sites.place t.vsites t.st.State.box x

let rattle t =
  if Constraints.count t.cons > 0 then
    Constraints.rattle ~exec:(Force_calc.exec t.fc) t.cons t.st.State.box
      t.st.State.positions t.st.State.velocities ~masses:t.st.State.masses

(* --- barostats --- *)

let scale_system t factor =
  let x = t.st.State.positions in
  for i = 0 to State.n t.st - 1 do
    x.(i) <- Vec3.scale factor x.(i)
  done;
  t.st.State.box <- Pbc.scale t.st.State.box factor

let apply_berendsen_baro t dt tau p0_atm =
  let p = pressure_atm t in
  (* Isothermal compressibility of water, atm^-1. *)
  let kappa = 4.5e-5 in
  let mu3 = 1. -. (kappa *. dt /. tau *. (p0_atm -. p)) in
  let mu = Float.max 0.95 (Float.min 1.05 (mu3 ** (1. /. 3.))) in
  scale_system t mu

let pressure_atm_to_internal p = p /. 68568.4

let attempt_mc_baro t ~pressure_atm ~max_dlnv =
  t.mc_baro_try <- t.mc_baro_try + 1;
  let kt = Units.kt t.cfg.temperature in
  let v_old = Pbc.volume t.st.State.box in
  let e_old = potential_energy t in
  let saved = Array.copy t.st.State.positions in
  let saved_box = t.st.State.box in
  let dlnv = Rng.uniform_in t.rng (-.max_dlnv) max_dlnv in
  let v_new = v_old *. exp dlnv in
  let factor = (v_new /. v_old) ** (1. /. 3.) in
  scale_system t factor;
  ignore
    (Mdsp_space.Neighbor_list.rebuild ~box:t.st.State.box
       (Force_calc.nlist t.fc) t.st.State.positions);
  refresh_forces t;
  let e_new = potential_energy t in
  let p0 = pressure_atm_to_internal pressure_atm in
  let n = float_of_int (State.n t.st) in
  let dh =
    e_new -. e_old
    +. (p0 *. (v_new -. v_old))
    -. ((n +. 1.) *. kt *. dlnv)
  in
  let accept = dh <= 0. || Rng.uniform t.rng < exp (-.dh /. kt) in
  if accept then t.mc_baro_accept <- t.mc_baro_accept + 1
  else begin
    Array.blit saved 0 t.st.State.positions 0 (Array.length saved);
    t.st.State.box <- saved_box;
    ignore
      (Mdsp_space.Neighbor_list.rebuild ~box:saved_box (Force_calc.nlist t.fc)
         t.st.State.positions);
    refresh_forces t
  end

let minimize ?(max_step = 0.2) t ~steps =
  (* The moves follow [t.acc], which must hold every class. *)
  if t.split then refresh_forces t;
  let n = State.n t.st in
  let x = t.st.State.positions in
  let alpha = ref 0.02 in
  let saved = Array.make n Vec3.zero in
  let e = ref (potential_energy t) in
  for _ = 1 to steps do
    Array.blit x 0 saved 0 n;
    Array.blit x 0 t.prev_positions 0 n;
    for i = 0 to n - 1 do
      if not (Virtual_sites.is_site t.vsites i) then begin
        let f = t.acc.forces.(i) in
        let fn = Vec3.norm f in
        if fn > 1e-12 then begin
          let step_len = Float.min (!alpha *. fn) max_step in
          x.(i) <- Vec3.axpy (step_len /. fn) f x.(i)
        end
      end
    done;
    if Constraints.count t.cons > 0 then
      Constraints.shake ~exec:(Force_calc.exec t.fc) t.cons t.st.State.box
        ~prev:t.prev_positions x ~masses:t.st.State.masses;
    refresh_forces t;
    let e' = potential_energy t in
    if e' <= !e then begin
      e := e';
      alpha := Float.min 0.5 (!alpha *. 1.2)
    end
    else begin
      (* Reject the move and shrink the step. *)
      Array.blit saved 0 x 0 n;
      alpha := !alpha /. 2.;
      refresh_forces t
    end
  done;
  (* Minimization invalidates velocities only if the caller thermalizes
     afterwards; leave them untouched. *)
  ()

(* --- main step --- *)

let step t =
  let dt = Units.fs t.cfg.dt_fs in
  (* The thermostat half-steps (NH) bracket either integrator. *)
  let s = nhc_half t dt in
  thermo_scale t s;
  (match t.cfg.respa_inner with
  | None -> (
      match t.cfg.thermostat with
      | Langevin { gamma_fs } ->
          (* BAOAB: B A O A B. gamma_fs is a rate in 1/fs; the internal
             rate is gamma_fs * (fs per internal time unit). *)
          let gamma_internal = gamma_fs *. Units.time_unit_fs in
          kick t t.acc (dt /. 2.);
          rattle t;
          drift t (dt /. 2.);
          langevin_o t gamma_internal dt;
          rattle t;
          drift t (dt /. 2.);
          t.energies <-
            Force_calc.compute t.fc t.st.State.box t.st.State.positions t.acc;
          Virtual_sites.spread_forces t.vsites t.acc;
          kick ~phase:"integrate.kick2" t t.acc (dt /. 2.);
          rattle t
      | _ ->
          (* Velocity Verlet. *)
          kick t t.acc (dt /. 2.);
          drift t dt;
          t.energies <-
            Force_calc.compute t.fc t.st.State.box t.st.State.positions t.acc;
          Virtual_sites.spread_forces t.vsites t.acc;
          kick ~phase:"integrate.kick2" t t.acc (dt /. 2.);
          rattle t)
  | Some k ->
      (* RESPA: slow (nonbonded) forces kick at the outer step, fast
         (bonded + bias) forces integrate with k inner steps, evaluated at
         the step's start and after each drift. *)
      let dt_in = dt /. float_of_int k in
      let eval cls acc =
        let e =
          Force_calc.compute_class t.fc cls t.st.State.box
            t.st.State.positions acc
        in
        Virtual_sites.spread_forces t.vsites acc;
        e
      in
      if not t.split then ignore (eval `Slow t.acc);
      kick t t.acc (dt /. 2.);
      let fast = ref (eval `Fast t.fast_acc) in
      for _ = 1 to k do
        kick t t.fast_acc (dt_in /. 2.);
        drift t dt_in;
        fast := eval `Fast t.fast_acc;
        kick ~phase:"integrate.kick2" t t.fast_acc (dt_in /. 2.);
        rattle t
      done;
      let slow = eval `Slow t.acc in
      t.split <- true;
      kick ~phase:"integrate.kick2" t t.acc (dt /. 2.);
      rattle t;
      (* The last inner evaluation ran at the final positions. The pair
         term is the fast 1-4 energy plus the slow list pairs, in the order
         a full evaluation adds them. *)
      let fast = !fast in
      t.energies <-
        {
          slow with
          bond = fast.Force_calc.bond;
          angle = fast.Force_calc.angle;
          dihedral = fast.Force_calc.dihedral;
          pair = fast.Force_calc.pair +. slow.Force_calc.pair;
          bias = fast.Force_calc.bias;
        });
  let s2 = nhc_half t dt in
  thermo_scale t s2;
  (match (t.cfg.thermostat, t.cfg.respa_inner) with
  | Berendsen { tau_fs }, _ ->
      let sc = berendsen_scale t dt (Units.fs tau_fs) in
      thermo_scale t sc
  | Langevin { gamma_fs }, Some _ ->
      (* RESPA has no BAOAB splitting: one O-step per outer step. *)
      let gamma_internal = gamma_fs *. Units.time_unit_fs in
      langevin_o t gamma_internal dt
  | _ -> ());
  (* Barostat. *)
  (match t.cfg.barostat with
  | No_barostat -> ()
  | Berendsen_baro { tau_fs; pressure_atm } ->
      apply_berendsen_baro t dt (Units.fs tau_fs) pressure_atm
  | Monte_carlo_baro { interval; pressure_atm; max_dlnv } ->
      if t.nsteps mod interval = interval - 1 then
        attempt_mc_baro t ~pressure_atm ~max_dlnv);
  t.st.State.time <- t.st.State.time +. dt;
  t.nsteps <- t.nsteps + 1;
  if
    t.cfg.remove_com_interval > 0
    && t.nsteps mod t.cfg.remove_com_interval = 0
  then State.remove_com_velocity t.st;
  List.iter (fun (_, fn) -> fn t) t.hooks

let run t n =
  for _ = 1 to n do
    step t
  done
