//! Cluster-scale control plane: one card to a simulated fleet of thousands.
//!
//! Everything below the host driver models *one* device; production
//! Harmonia runs tens of thousands of heterogeneous cards (§2.2,
//! Figure 3c). This crate connects the single-device planes into an
//! operational whole:
//!
//! * [`inventory`] — a deterministic inventory of thousands of devices
//!   drawn from the Table 2 catalog (Devices A–D), grouped into racks
//!   (the failure domains), each with a per-model service-rate model;
//! * [`catalog`] — the fleet role catalog: the production applications of
//!   `harmonia-apps` as placeable roles with tenant weights, demand
//!   shares and per-model fit computed by real shell tailoring;
//! * [`traffic`] — a seeded diurnal traffic generator modeling millions
//!   of users, byte-identical at any `HARMONIA_THREADS`;
//! * [`placement`] — the placement scheduler: capacity-aware best-fit
//!   bin-packing by resource fit and tenant weight, against a
//!   spec-blind random baseline ([`PlacementPolicy`]), with fit and
//!   migration cost read from one per-process table of tailored shells;
//! * [`control`] — the [`FleetController`] campaign loop: per-tick load
//!   dispatch, failure domains wired to the PR 4 fault plane
//!   (`FaultKind::LinkDown` per device), drain + reschedule with exact
//!   command accounting, rolling shell upgrades through the
//!   `migration.rs` cost model, and `harmonia_fleet_*` metrics.
//!
//! Determinism contract: a campaign is a pure function of its
//! [`FleetSpec`] and scheduled events. Every parallel fan-out goes
//! through the ordered `harmonia_sim::exec` pool, so rendered campaign
//! reports are byte-identical at any `HARMONIA_THREADS`.
//!
//! ```
//! use harmonia_fleet::{FleetController, FleetSpec, PlacementPolicy};
//!
//! let spec = FleetSpec::new(256, 7, PlacementPolicy::BestFit);
//! let mut fleet = FleetController::new(spec).unwrap();
//! let victim = fleet.assignments()[0].device;
//! fleet.kill_device(victim, 100); // fail one serving card mid-traffic
//! let report = fleet.run();
//! assert!(report.accounting.exact(), "no lost or doubled commands");
//! assert!(report.accounting.migrated > 0, "the dead card's work moved");
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod control;
pub mod inventory;
pub mod placement;
pub mod traffic;

pub use catalog::{standard_catalog, RoleClass};
pub use control::{
    Accounting, CampaignReport, FleetController, FleetError, FleetSpec, UpgradeReport,
};
pub use inventory::{DeviceState, FleetDevice, Inventory};
pub use placement::{Assignment, PlacementError, PlacementPolicy};
pub use traffic::{DiurnalTraffic, TickLoad};

/// A fleet environment knob set to a value the control plane cannot use.
/// Unset knobs take their defaults; set ones must parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnobError {
    /// The environment variable.
    pub knob: &'static str,
    /// The rejected value (lossily decoded if it was not UTF-8).
    pub value: String,
    /// What the knob accepts.
    pub expected: &'static str,
}

impl std::fmt::Display for KnobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}={:?}: expected {}",
            self.knob, self.value, self.expected
        )
    }
}

impl std::error::Error for KnobError {}

/// Reads a fleet knob, `None` when unset.
fn read_knob(knob: &'static str) -> Option<String> {
    std::env::var_os(knob).map(|v| v.to_string_lossy().into_owned())
}

/// Environment knob for the simulated device count
/// ([`FleetSpec::from_env`]). Default [`DEFAULT_FLEET_DEVICES`].
pub const FLEET_DEVICES_ENV: &str = "HARMONIA_FLEET_DEVICES";

/// Default fleet size: a couple of thousand cards, the "tens of
/// thousands" story at a tractable simulation scale.
pub const DEFAULT_FLEET_DEVICES: usize = 2048;

/// Environment knob selecting the placement policy
/// (`bestfit`/`random`, see [`PlacementPolicy::from_env`]).
pub const FLEET_POLICY_ENV: &str = "HARMONIA_FLEET_POLICY";

/// Simulated length of one control-plane tick: 5 minutes.
pub const TICK_PS: harmonia_sim::Picos = 300 * harmonia_sim::PS_PER_SEC;

/// Ticks in one simulated day (24 h at 5-minute ticks).
pub const TICKS_PER_DAY: u32 = 288;

/// Devices per rack — the failure-domain granularity.
pub const RACK_SIZE: usize = 32;

/// Simulated users per fleet device (the default
/// [`FleetSpec`] derives `users = devices × 1000`, so the 2048-device
/// default fleet serves ~2 million users).
pub const USERS_PER_DEVICE: u64 = 1_000;
