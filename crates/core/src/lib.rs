//! # Harmonia — a unified framework for heterogeneous FPGA acceleration
//!
//! A full-system reproduction of *"Harmonia: A Unified Framework for
//! Heterogeneous FPGA Acceleration in the Cloud"* (ASPLOS 2025), built on a
//! cycle-level simulation substrate in place of physical FPGAs.
//!
//! Harmonia splits the shell–role architecture into two layers:
//!
//! * a **platform-specific layer** ([`platform`]) with automated device and
//!   vendor adapters plus lightweight interface wrappers over vendor IPs;
//! * a **platform-independent layer** ([`shell`]) with a unified shell of
//!   Reusable Building Blocks, hierarchical tailoring, and a command-based
//!   host interface ([`cmd`], [`host`]).
//!
//! The [`Harmonia`] entry point runs the §4 deployment lifecycle end to
//! end: adapter generation, dependency inspection, shell tailoring,
//! control-kernel attachment and module initialization.
//!
//! ## Quickstart
//!
//! ```
//! use harmonia::{Harmonia, RoleSpec, MemoryDemand};
//! use harmonia::hw::device::catalog;
//!
//! # fn main() -> Result<(), harmonia::DeployError> {
//! let device = catalog::device_a();
//! let role = RoleSpec::builder("my-accelerator")
//!     .network_gbps(100)
//!     .memory(MemoryDemand::Hbm)
//!     .queues(128)
//!     .build();
//!
//! let mut deployment = Harmonia::deploy(&device, &role)?;
//! assert!(deployment.initialized());
//! println!("shell uses {}", deployment.shell_resources());
//! # Ok(())
//! # }
//! ```
//!
//! ## Map of the repository
//!
//! Dependency order is strictly bottom-up; every workspace crate is
//! re-exported here under the alias in the first column.
//!
//! | Alias | Paper layer | Contents |
//! |---|---|---|
//! | [`sim`] | substrate | picosecond timeline, clock domains, FIFOs/CDC, pipelines, the paper sweep's ordered fan-out ([`sim::exec`]), the fault plane ([`sim::fault`]), trace collection ([`sim::trace`]), latency histograms ([`sim::histo`]) and the metrics plane ([`sim::metrics`]: registry, flight recorder, SLO evaluation) |
//! | [`hw`] | substrate | Table 2 device catalog, resource model, AXI/Avalon interface specs, register files, vendor IP models (MAC, PCIe DMA, DDR, HBM) |
//! | [`metrics`] | evaluation | workload/config/diff accounting, fleet model, report tables |
//! | [`platform`] | platform-specific (§3.2) | device + vendor adapters, lightweight interface wrappers over the six unified types |
//! | [`shell`] | platform-independent (§3.3) | Network/Memory/Host RBBs, parameterized CDC, unified shell, hierarchical tailoring, health ledger, partial reconfiguration plane ([`shell::pr`]), vFPGA time-multiplexing scheduler ([`shell::sched`]) |
//! | [`cmd`] | platform-independent (§3.3.3) | command packets (Fig. 9), command codes, the unified control kernel, batched SQ/CQ queue pairs with doorbell batching ([`cmd::queue`]) |
//! | [`host`] | platform-independent | register vs. command drivers, DMA engine with isolated control queue, retry/backoff resilience, command batching ([`host::batch`]), multi-tenant vFPGA scheduling ([`host::tenant`]), migration analysis ([`host::migration`]), irq moderation |
//! | [`workloads`] | evaluation | seeded packet/memory/matmul/vector-DB/TCP generators |
//! | [`frameworks`] | evaluation | Vitis / oneAPI / Coyote baseline models |
//! | [`apps`] | applications | the five production applications plus the storage offload |
//! | [`fleet`] | operations (§2.2) | cluster-scale control plane: device inventory, placement scheduler, diurnal traffic, failure domains, rolling upgrades |
//!
//! Beside the stack (not re-exported): `harmonia-testkit` — the hermetic
//! property-testing/bench substrate used by every crate's tests — and
//! `harmonia-bench` — one generator per paper figure/table, the
//! `harmonia` binary (`paper`, `trace`, `metrics` and `fleet`
//! subcommands), and the byte-equivalence test suites.

pub mod framework;
pub mod validation;

/// The five production applications.
pub use harmonia_apps as apps;
/// Command-based interface (packets, codes, unified control kernel).
pub use harmonia_cmd as cmd;
/// Cluster-scale control plane (inventory, placement, campaigns).
pub use harmonia_fleet as fleet;
/// Baseline framework models (Vitis, oneAPI, Coyote).
pub use harmonia_frameworks as frameworks;
/// Host software stack (drivers, DMA engine, migration analysis).
pub use harmonia_host as host;
/// Hardware substrate (devices, vendor IPs, registers, resources).
pub use harmonia_hw as hw;
/// Evaluation accounting (workloads, configs, diffs, fleet, tables).
pub use harmonia_metrics as metrics;
/// Platform-specific layer (adapters, interface wrappers).
pub use harmonia_platform as platform;
/// Platform-independent layer (RBBs, unified shell, tailoring).
pub use harmonia_shell as shell;
/// Simulation kernel (clocks, FIFOs, CDC primitives, statistics).
pub use harmonia_sim as sim;
/// Workload generators.
pub use harmonia_workloads as workloads;

pub use framework::{DeployError, Deployment, Harmonia};
pub use harmonia_shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};
pub use validation::{validate, ValidationReport};
