(** The umbrella namespace: one [open Mdsp] (or qualified [Mdsp.X]) exposes
    the whole library with stable short names. See the README for the
    architecture overview; each module below carries its own interface
    documentation.

    {1 Foundations} *)

module Vec3 = Mdsp_util.Vec3
module Pbc = Mdsp_util.Pbc
module Exec = Mdsp_util.Exec
module Rng = Mdsp_util.Rng
module Units = Mdsp_util.Units
module Fixed = Mdsp_util.Fixed
module Stats = Mdsp_util.Stats
module Histogram = Mdsp_util.Histogram

(** {1 Spatial data structures} *)

module Cell_list = Mdsp_space.Cell_list
module Neighbor_list = Mdsp_space.Neighbor_list
module Exclusions = Mdsp_space.Exclusions
module Decomp = Mdsp_machine.Decomp

(** {1 Force field} *)

module Topology = Mdsp_ff.Topology
module Nonbonded = Mdsp_ff.Nonbonded
module Bonded = Mdsp_ff.Bonded
module Pair_interactions = Mdsp_ff.Pair_interactions
module Water = Mdsp_ff.Water

(** {1 Long-range electrostatics} *)

module Ewald = Mdsp_longrange.Ewald
module Gse = Mdsp_longrange.Gse
module Fft = Mdsp_longrange.Fft

(** {1 The MD engine} *)

module State = Mdsp_md.State
module Engine = Mdsp_md.Engine
module Force_calc = Mdsp_md.Force_calc
module Constraints = Mdsp_md.Constraints
module Virtual_sites = Mdsp_md.Virtual_sites
module Trajectory = Mdsp_md.Trajectory

(** {1 The special-purpose machine model} *)

module Machine = struct
  module Config = Mdsp_machine.Config
  module Interp_table = Mdsp_machine.Interp_table
  module Htis = Mdsp_machine.Htis
  module Perf = Mdsp_machine.Perf
  module Flex = Mdsp_machine.Flex
  module Machine_sim = Mdsp_machine.Machine_sim
end

(** {1 The generality layer (the paper's contribution)} *)

module Table = Mdsp_core.Table
module Kernel = Mdsp_core.Kernel
module Cv = Mdsp_core.Cv
module Restraints = Mdsp_core.Restraints
module Smd = Mdsp_core.Smd
module Umbrella = Mdsp_core.Umbrella
module Metadynamics = Mdsp_core.Metadynamics
module Tempering = Mdsp_core.Tempering
module Remd = Mdsp_core.Remd
module Tamd = Mdsp_core.Tamd
module Amd = Mdsp_core.Amd
module Fep = Mdsp_core.Fep
module Widom = Mdsp_core.Widom
module String_method = Mdsp_core.String_method
module Mapping = Mdsp_core.Mapping

(** {1 Baselines, workloads, analysis} *)

module Reference = Mdsp_baseline.Reference
module Cluster = Mdsp_baseline.Cluster
module Workloads = Mdsp_workload.Workloads
module Wham = Mdsp_analysis.Wham
module Free_energy = Mdsp_analysis.Free_energy
module Structure = Mdsp_analysis.Structure
module Transport = Mdsp_analysis.Transport
