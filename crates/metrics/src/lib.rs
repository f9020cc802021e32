//! Accounting models behind the Harmonia evaluation's non-performance
//! figures.
//!
//! * [`workload`] — development-workload accounting: every hardware module
//!   declares its code components (handcraft, script-generated, reused),
//!   and reuse ratios fall out structurally (Figures 3a, 14, 15);
//! * [`config`] — configuration-item inventories and the shell-/role-
//!   oriented split behind property-level tailoring (Figure 12);
//! * [`diff`] — generic LCS-based modification counting between operation
//!   sequences (Figure 13);
//! * [`fleet`] — the cloud fleet evolution model behind Figure 3c;
//! * [`report`] — plain-text table rendering shared by every evaluation
//!   table the bench harness prints.
//!
//! # Example
//!
//! ```
//! use harmonia_metrics::{ModuleWorkload, Origin};
//!
//! let mut m = ModuleWorkload::new("network-rbb");
//! m.add("packet-filter", 1200, Origin::Reused);
//! m.add("instance-glue", 400, Origin::Handcraft);
//! assert!((m.reuse_fraction() - 0.75).abs() < 1e-9);
//! ```

pub mod config;
pub mod diff;
pub mod fleet;
pub mod report;
pub mod workload;

pub use config::{ConfigClass, ConfigInventory};
pub use diff::lcs_diff;
pub use fleet::{FleetModel, FleetYear};
pub use report::Table;
pub use workload::{CodeComponent, ModuleWorkload, Origin};
