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
//!   the only single-command path: applications, deployment, the control
//!   tool and the BMC all issue idempotency-tagged commands through it;
//! * [`dma`] — the DMA engine model with a separate control queue for
//!   performance isolation from the data path;
//! * [`migration`] — the Figure 13 analysis: modification counts when
//!   moving an application between devices under each interface;
//! * [`tool`] — the standalone control tool (one of the multiple
//!   controllers production servers run concurrently);
//! * [`irq`] — interrupt moderation for the latency-critical `irq` unified
//!   type (coalescing windows and batch thresholds);
//! * [`resilience`] — per-command deadlines, bounded retries with
//!   deterministic backoff, and the [`resilience::DriverReport`] failure
//!   accounting the fault campaigns assert over;
//! * [`batch`] — the driver's ring transport: N commands per SQ/CQ
//!   doorbell, one DMA burst per batch, coalesced completion interrupts;
//! * [`tenant`] — the multi-tenant host driver: per-tenant SQ/CQ rings
//!   inside scheduler-pinned queue ranges, driven one budget-enforced
//!   time slice at a time.

pub mod batch;
pub mod bmc;
pub mod cmd_driver;
pub mod dma;
pub mod irq;
pub mod migration;
pub mod reg_driver;
pub mod resilience;
pub mod tenant;
pub mod tool;

pub use batch::BatchedCommandDriver;
pub use bmc::{BmcController, BmcPolicy, BmcStatus};
pub use cmd_driver::{CommandDriver, DEGRADED_STATUS};
pub use dma::{CommandDelivery, DmaEngine};
pub use resilience::{DriverError, DriverReport, RetryPolicy};
pub use irq::{IrqModeration, IrqModerator};
pub use migration::{migration_report, MigrationReport};
pub use reg_driver::RegisterDriver;
pub use tenant::{TenantHostDriver, TenantStats, DEFAULT_TENANT_RING_DEPTH};
pub use tool::ControlTool;
