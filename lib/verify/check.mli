(** The verification registry: every built-in kernel, workload bias and
    compiled table, plus the race-sanitized parallel phases, checked in one
    call — the engine behind [mdsp check] and the CI gate.

    The registry is deliberately closed-world: it enumerates the kernels the
    restraint layer ships, the workload biases re-expressed in the kernel
    DSL, and the interpolation tables the CLI and the water pipeline
    compile. Adding a kernel or table to the code base means adding it here,
    so the gate keeps proving the whole surface. *)

(** Outcome of one sanitized phase sweep at a given slot count. *)
type sanitize_result = {
  slots : int;
  phases : string list;
      (** the distinct phase names the sanitized barriers carried (empty on
          failure) *)
  failure : string option;  (** the {!Mdsp_util.Exec.Race} message, if any *)
}

type summary = {
  kernels : Kernel_check.report list;
  tables : Table_check.report list;
  sanitize : sanitize_result list;
  datapath : Fixed_check.report list;
  phases : Dataflow.report option;
      (** the phase-dataflow certificate, when requested *)
  constraints : Schedule.report list option;
      (** the constraint-schedule certificates, when requested *)
}

(** The built-in kernel surface: the restraint kernels and the double-well
    workload biases re-expressed in the kernel DSL (same functional forms
    and parameter values as [Mdsp_workload.Workloads]). *)
val builtin_kernels : unit -> Mdsp_core.Kernel.t list

(** A kernel that must fail verification — [1/x] plus [log x] over a box
    whose coordinate interval spans zero. Used by [mdsp check --seed-hazard]
    and the tests to prove the analyzer cannot be green by accident. *)
val hazardous_kernel : unit -> Mdsp_core.Kernel.t

(** The built-in datapath envelopes the certifier proves: the small water
    pipeline (same topology, cutoff and tables as the ["water.*"] table
    entries, first in the list), a 6591-atom water box and a 10^4-atom
    bead-chain polymer in LJ solvent. The macromolecule-scale envelopes pin
    [max_pairs_per_atom] by building the runtime's tiled Verlet list on the
    generated coordinates and taking the maximum per-atom degree (plus
    headroom), rather than the trivial [n_atoms - 1] budget. *)
val builtin_envelopes : unit -> Fixed_check.envelope list

(** A force format at the default resolution but too narrow for the water
    per-atom accumulator; certifying against it must fail. Used by
    [mdsp check --seed-narrow] and CI to prove the certifier cannot be
    green by accident. *)
val narrow_format : Mdsp_util.Fixed.format

(** [run ?seed_hazard ?seed_narrow ?seed_race ?phases ?slots ()] checks
    every registered kernel (interval pass over energy and gradients),
    every registered table (domain / fit / quantization pass), certifies
    every registered datapath envelope (fixed-point saturation pass), and
    drives the sanitized parallel phases at each slot count in [slots]
    (default [[1; 2; 4]]). [phases] (default false) additionally runs the
    {!Dataflow} analysis at the same slot counts — coverage, acyclicity and
    slot-count invariance of the happens-before graph. [constraints]
    (default false) additionally certifies the solver's constraint
    schedule on every registered envelope ({!Schedule.run}). [seed_hazard]
    (default false) additionally runs {!hazardous_kernel}; [seed_narrow]
    (default false) additionally certifies each envelope against
    {!narrow_format}; [seed_race] (default false) implies [phases] and
    appends the deliberately unsound dataflow window; [seed_cycle] (default
    false) implies [phases] and appends the race-free cyclic phase pair
    that must fail acyclicity; [seed_conflict] (default false) implies
    [constraints] and appends the planted same-batch conflict plan — every
    seeded report is included in the summary and makes it fail. *)
val run :
  ?seed_hazard:bool ->
  ?seed_narrow:bool ->
  ?seed_race:bool ->
  ?seed_cycle:bool ->
  ?seed_conflict:bool ->
  ?phases:bool ->
  ?constraints:bool ->
  ?slots:int list ->
  unit ->
  summary

val ok : summary -> bool
val pp_summary : Format.formatter -> summary -> unit

(** Flat JSON object in the bench-metrics style: ["verify.ok"] plus one
    0/1 verdict per ["kernel.<name>"], ["table.<name>"],
    ["sanitize.slots<n>"], ["datapath.<workload>.ok"] and
    ["datapath.<workload>.<format>"] key, plus the {!Dataflow.json_rows}
    ["phases.*"] keys when the dataflow pass ran and the
    {!Schedule.json_rows} ["constraints.*"] keys when the schedule pass
    ran. *)
val to_json : summary -> string
