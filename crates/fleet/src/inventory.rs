//! The simulated device inventory: thousands of cards, racks as
//! failure domains, per-model service rates.
//!
//! Model mix is exact-proportion (largest-remainder over the catalog
//! weights) and the *positions* are then seed-shuffled, so any fleet
//! size gets the same heterogeneity (30 % A, 30 % B, 20 % C, 20 % D —
//! roughly Figure 3c's coexisting generations) while rack composition
//! varies with the seed. Feasibility of placement therefore never
//! depends on sampling luck.

use harmonia_hw::device::{catalog as hw_catalog, DeviceId};
use harmonia_sim::{LogHistogram, Picos, SplitMix64};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Model mix weights (A, B, C, D) out of [`MIX_TOTAL`].
pub const MODEL_MIX: [(DeviceId, usize); 4] = [
    (DeviceId::A, 3),
    (DeviceId::B, 3),
    (DeviceId::C, 2),
    (DeviceId::D, 2),
];

/// Sum of [`MODEL_MIX`] weights.
pub const MIX_TOTAL: usize = 10;

/// Speed of a catalog model in abstract speed-units: line rate plus
/// host-link bandwidth (`network_gbps + 4 × pcie_gen × pcie_lanes`).
/// A command of unit cost `c` takes `c / speed` picoseconds. Computed
/// once per model from the catalog, then a table lookup.
pub fn device_speed(model: DeviceId) -> u64 {
    static SPEEDS: OnceLock<[u64; 4]> = OnceLock::new();
    SPEEDS.get_or_init(|| {
        DeviceId::ALL.map(|m| {
            let d = hw_catalog::device(m);
            let (gen, lanes) = d.pcie().unwrap_or((0, 0));
            u64::from(d.network_gbps()) + 4 * u64::from(gen) * u64::from(lanes)
        })
    })[model as usize]
}

/// Lifecycle state of one fleet device.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DeviceState {
    /// Serving (or idling as a spare when unassigned).
    Live,
    /// Taken out by a fault-plane link-down; queue already drained away.
    Down,
    /// Receiving a role deployment; live again at `ready_tick`.
    Deploying {
        /// First tick the device serves on.
        ready_tick: u32,
    },
    /// In a rolling-upgrade wave; live again at `done_tick`.
    Upgrading {
        /// First tick the device serves on after the upgrade.
        done_tick: u32,
    },
}

/// One simulated card.
#[derive(Clone, Debug)]
pub struct FleetDevice {
    /// Position in the inventory (stable identifier).
    pub index: u32,
    /// Catalog model.
    pub model: DeviceId,
    /// Failure domain (`index / RACK_SIZE`).
    pub rack: u32,
    /// Shell version currently deployed.
    pub shell_version: u32,
    /// Lifecycle state.
    pub state: DeviceState,
    /// Assigned role (index into the role catalog), if any.
    pub role: Option<usize>,
    /// Queued command cohorts: `(arrival_tick, count)`, FIFO.
    pub backlog: VecDeque<(u32, u64)>,
    /// Commands executed so far.
    pub executed: u64,
    /// Per-device command-latency histogram.
    pub latency: LogHistogram,
    /// One-time stall charged before serving (redeploy/migration cost).
    pub stall_ps: Picos,
    /// Arrivals routed to this device for the current tick.
    pub incoming: u64,
}

impl FleetDevice {
    /// Total commands queued (all cohorts).
    pub fn queued(&self) -> u64 {
        self.backlog.iter().map(|&(_, n)| n).sum()
    }

    /// Whether this device can take traffic this tick.
    pub fn serving(&self) -> bool {
        self.state == DeviceState::Live && self.role.is_some()
    }
}

/// The fleet inventory: devices plus rack accounting.
#[derive(Clone, Debug)]
pub struct Inventory {
    /// All devices, in index order.
    pub devices: Vec<FleetDevice>,
    /// Number of racks.
    pub racks: u32,
}

impl Inventory {
    /// Builds an inventory of `n` devices with the exact-proportion
    /// model mix, positions shuffled by `seed`, racks of
    /// [`crate::RACK_SIZE`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn sample(n: usize, seed: u64) -> Inventory {
        assert!(n > 0, "a fleet needs at least one device");
        // Largest-remainder apportionment: exact counts per model.
        let mut counts: Vec<(DeviceId, usize, usize)> = MODEL_MIX
            .iter()
            .map(|&(m, w)| (m, n * w / MIX_TOTAL, (n * w) % MIX_TOTAL))
            .collect();
        let assigned: usize = counts.iter().map(|&(_, c, _)| c).sum();
        // Hand the leftover units to the largest remainders (ties by
        // catalog order).
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(counts[i].2), i));
        for &i in order.iter().take(n - assigned) {
            counts[i].1 += 1;
        }
        let mut models: Vec<DeviceId> = counts
            .iter()
            .flat_map(|&(m, c, _)| std::iter::repeat(m).take(c))
            .collect();
        // Seeded Fisher–Yates: rack composition varies with the seed,
        // model counts do not.
        let mut rng = SplitMix64::new(seed ^ 0x464c_4545_54_u64); // "FLEET"
        for i in (1..models.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            models.swap(i, j);
        }
        let devices: Vec<FleetDevice> = models
            .into_iter()
            .enumerate()
            .map(|(i, model)| FleetDevice {
                index: i as u32,
                model,
                rack: (i / crate::RACK_SIZE) as u32,
                shell_version: 1,
                state: DeviceState::Live,
                role: None,
                backlog: VecDeque::new(),
                executed: 0,
                latency: LogHistogram::new(),
                stall_ps: 0,
                incoming: 0,
            })
            .collect();
        let racks = devices.last().map(|d| d.rack + 1).unwrap_or(0);
        Inventory { devices, racks }
    }

    /// Device count per model, in catalog order.
    pub fn model_counts(&self) -> [(DeviceId, usize); 4] {
        let mut out = MODEL_MIX.map(|(m, _)| (m, 0usize));
        for d in &self.devices {
            for slot in out.iter_mut() {
                if slot.0 == d.model {
                    slot.1 += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_exact_at_any_size() {
        for n in [1usize, 7, 48, 100, 2048] {
            let inv = Inventory::sample(n, 1);
            let counts = inv.model_counts();
            let total: usize = counts.iter().map(|&(_, c)| c).sum();
            assert_eq!(total, n);
            for (m, c) in counts {
                let w = MODEL_MIX.iter().find(|&&(mm, _)| mm == m).unwrap().1;
                let lo = n * w / MIX_TOTAL;
                assert!(
                    c == lo || c == lo + 1,
                    "{m:?}: {c} outside largest-remainder band [{lo}, {}] at n={n}",
                    lo + 1
                );
            }
        }
    }

    #[test]
    fn seed_shuffles_positions_not_counts() {
        let a = Inventory::sample(256, 1);
        let b = Inventory::sample(256, 2);
        assert_eq!(a.model_counts(), b.model_counts());
        assert!(
            a.devices.iter().zip(&b.devices).any(|(x, y)| x.model != y.model),
            "different seeds should shuffle differently"
        );
        let a2 = Inventory::sample(256, 1);
        assert!(a.devices.iter().zip(&a2.devices).all(|(x, y)| x.model == y.model));
    }

    #[test]
    fn racks_are_contiguous_index_ranges() {
        let inv = Inventory::sample(100, 3);
        assert_eq!(inv.racks, 4); // 100 devices / 32 per rack
        for d in &inv.devices {
            assert_eq!(d.rack, d.index / crate::RACK_SIZE as u32);
        }
    }

    #[test]
    fn speed_orders_the_catalog_sensibly() {
        let a = device_speed(DeviceId::A);
        let b = device_speed(DeviceId::B);
        let c = device_speed(DeviceId::C);
        let d = device_speed(DeviceId::D);
        assert_eq!(a, 328); // 2×100G + 4×4×8
        assert_eq!(b, 392); // 2×100G + 4×3×16
        assert_eq!(c, 656); // 2×200G + 4×4×16
        assert_eq!(d, 456); // 2×100G + 4×4×16
        assert!(c > d && d > b && b > a);
    }
}
