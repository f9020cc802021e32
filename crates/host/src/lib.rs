//! Host software stack for Harmonia.
//!
//! §2.1: host software "communicates with the FPGAs for data exchange and
//! control operations", performing initialization (table configuration,
//! task enablement) at deployment and data exchange at runtime. This crate
//! models both control-path styles the paper compares:
//!
//! * [`reg_driver`] — the legacy register interface: per-device register
//!   scripts whose addresses, lengths and op ordering change with every
//!   platform (the ad-hoc-modification source of Figures 3d and 13);
//! * [`cmd_driver`] — Harmonia's `cmd_read`/`cmd_write` interface: the one
//!   [`CommandDriver`], whose serial transport (one DMA send per command)
//!   and ring transport share one retry/ack core. The serial transport is
//!   the only single-command path: applications, deployment and the
//!   monitoring sweep all issue idempotency-tagged commands through it;
//! * [`dma`] — the DMA engine model with a separate control queue for
//!   performance isolation from the data path;
//! * [`migration`] — the Figure 13 analysis: modification counts when
//!   moving an application between devices under each interface;
//! * [`irq`] — interrupt moderation for the latency-critical `irq` unified
//!   type (coalescing windows and batch thresholds);
//! * [`resilience`] — per-command deadlines, bounded retries with
//!   deterministic backoff, and the [`resilience::DriverReport`] failure
//!   accounting the fault campaigns assert over;
//! * [`batch`] — the driver's ring transport: N commands per SQ/CQ
//!   doorbell, one DMA burst per batch, coalesced completion interrupts;
//! * [`tenant`] — the multi-tenant host driver: per-tenant SQ/CQ rings
//!   inside scheduler-pinned queue ranges, driven one budget-enforced
//!   time slice at a time. It runs the same SQ/CQ ring round as [`batch`]
//!   (the crate-private `ring` module); each keeps only its own policy.

pub mod batch;
pub mod cmd_driver;
pub mod dma;
pub mod irq;
pub mod migration;
pub mod reg_driver;
pub mod resilience;
mod ring;
pub mod tenant;

pub use batch::BatchedCommandDriver;
pub use cmd_driver::CommandDriver;
pub use dma::{CommandDelivery, DmaEngine};
pub use irq::{IrqModeration, IrqModerator};
pub use migration::{migration_report, MigrationReport};
pub use reg_driver::RegisterDriver;
pub use resilience::{DriverError, DriverReport, RetryPolicy};
pub use tenant::{TenantHostDriver, TenantStats};
