open Mdsp_util
module E = Mdsp_md.Engine
module Remd = Mdsp_core.Remd
module Tempering = Mdsp_core.Tempering

type t = { shard : Shard.t; remd : Remd.t }

let create ~exec remd =
  let n_replicas = Array.length (Remd.engines remd) in
  { shard = Shard.create ~exec ~n_replicas; remd }

let remd t = t.remd
let shard t = t.shard

let run t ~sweeps =
  let engines = Remd.engines t.remd in
  let stride = Remd.stride t.remd in
  for _ = 1 to sweeps do
    Shard.run_stride t.shard (fun r ->
        E.run engines.(r) stride;
        stride);
    (* Exchange on the calling domain at the barrier: all replica energies
       are now settled, and the per-pair RNG streams make the decisions
       identical to the sequential Remd.run path. *)
    Remd.exchange_sweep t.remd
  done

type replica_metrics = {
  replica : int;
  slot : int;
  temp : float;
  steps : int;
  wall_s : float;
  attempts_up : int;
  accepts_up : int;
  config_at : int;
}

let metrics t =
  let temps = Remd.temps t.remd in
  let attempts = Remd.attempts t.remd in
  let accepts = Remd.accepts t.remd in
  let config = Remd.replica_of_config t.remd in
  let steps = Shard.steps_done t.shard in
  let wall = Shard.wall_seconds t.shard in
  let npairs = Array.length attempts in
  List.init (Shard.n_replicas t.shard) (fun r ->
      {
        replica = r;
        slot = Shard.slot_of_replica t.shard r;
        temp = temps.(r);
        steps = steps.(r);
        wall_s = wall.(r);
        attempts_up = (if r < npairs then attempts.(r) else 0);
        accepts_up = (if r < npairs then accepts.(r) else 0);
        config_at = config.(r);
      })

let metrics_table t =
  let tbl =
    Table_text.create
      ~title:
        (Printf.sprintf "ensemble: %d replicas on %d slots, %d sweeps"
           (Shard.n_replicas t.shard) (Shard.n_slots t.shard)
           (Remd.sweeps_done t.remd))
      ~columns:
        [
          ("replica", Table_text.Right);
          ("slot", Table_text.Right);
          ("T (K)", Table_text.Right);
          ("steps", Table_text.Right);
          ("wall ms", Table_text.Right);
          ("exch up", Table_text.Left);
          ("config at", Table_text.Right);
        ]
  in
  List.iter
    (fun m ->
      Table_text.row tbl
        [
          Table_text.cell_i m.replica;
          Table_text.cell_i m.slot;
          Table_text.cell_f ~prec:4 m.temp;
          Table_text.cell_i m.steps;
          Printf.sprintf "%.1f" (m.wall_s *. 1e3);
          (if m.attempts_up = 0 then "-"
           else Printf.sprintf "%d/%d" m.accepts_up m.attempts_up);
          Table_text.cell_i m.config_at;
        ])
    (metrics t);
  Table_text.render tbl

(* --- simulated-tempering walkers --- *)

type walkers = {
  wshard : Shard.t;
  wengines : E.t array;
  ladders : Tempering.t array;
}

let create_tempering ~exec ~engines ~ladders =
  let n = Array.length engines in
  if n = 0 || Array.length ladders <> n then
    invalid_arg
      "Ensemble.create_tempering: need matching, non-empty engines and \
       ladders";
  Array.iteri (fun i l -> Tempering.attach l engines.(i)) ladders;
  { wshard = Shard.create ~exec ~n_replicas:n; wengines = engines; ladders }

let walker_shard w = w.wshard

let run_tempering w ~strides =
  for _ = 1 to strides do
    Shard.run_stride w.wshard (fun r ->
        let s = Tempering.stride w.ladders.(r) in
        E.run w.wengines.(r) s;
        s)
  done

let occupancy w = Array.map Tempering.visits w.ladders
