//! Deterministic fault injection for the simulation substrate.
//!
//! Real cloud deployments are not sunny-day systems: links flap, PCIe
//! credits stall, DRAM words take ECC hits, command packets get dropped or
//! corrupted in flight, and completion interrupts go missing. A
//! [`FaultPlan`] is a *deterministic* schedule of such faults — typed
//! events at absolute [`Picos`] plus [`SplitMix64`]-seeded per-consult
//! rates — and a [`FaultInjector`] is the cheap cloneable handle the
//! hardware models (`DmaEngine`, MAC/DDR/HBM IPs, `SyncFifo`) consult on
//! each beat.
//!
//! Two contracts every consumer can rely on:
//!
//! 1. **`FaultPlan::none()` is a zero-cost no-op.** The injector holds no
//!    state, no RNG is ever advanced, and every query collapses to one
//!    branch on an `Option` — so all fault-free results are bit-identical
//!    to a build without the fault plane.
//! 2. **Same plan, same consult sequence → same faults.** All draws come
//!    from one seeded [`SplitMix64`] behind the handle; a scenario that
//!    consults in a fixed order reproduces exactly, at any host thread
//!    count (each scenario owns its own injector).

use crate::rng::SplitMix64;
use crate::time::Picos;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The fault taxonomy. Scheduled kinds arm state the next matching
/// consult observes; `LinkDown`/`LinkUp` toggle a persistent link state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The network/PCIe link goes down and stays down until `LinkUp`.
    LinkDown,
    /// The link comes back up.
    LinkUp,
    /// The PCIe credit return stalls for `beats` link beats: the next
    /// transfer pays that many extra beat times.
    PcieCreditStall {
        /// Stalled link beats to charge.
        beats: u64,
    },
    /// One memory access takes an ECC hit (corrected, but the word is
    /// re-read after a scrub penalty — or the beat is discarded).
    EccError,
    /// One command packet is dropped in flight (no response ever comes).
    CmdDrop,
    /// One command packet has a bit flipped in flight (the kernel's
    /// checksum catches it and NACKs).
    CmdCorrupt,
    /// One completion interrupt is lost (the command executed, the
    /// response never reaches the driver).
    IrqLost,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::LinkDown => f.write_str("link-down"),
            FaultKind::LinkUp => f.write_str("link-up"),
            FaultKind::PcieCreditStall { beats } => write!(f, "pcie-credit-stall({beats})"),
            FaultKind::EccError => f.write_str("ecc-error"),
            FaultKind::CmdDrop => f.write_str("cmd-drop"),
            FaultKind::CmdCorrupt => f.write_str("cmd-corrupt"),
            FaultKind::IrqLost => f.write_str("irq-lost"),
        }
    }
}

/// One scheduled fault.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Absolute simulation time the fault fires.
    pub at: Picos,
    /// What happens.
    pub kind: FaultKind,
}

/// Per-consult fault probabilities, drawn from the plan's seeded RNG.
/// All default to zero (purely scheduled plans draw nothing).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct FaultRates {
    /// Probability a command consult drops the packet.
    pub cmd_drop: f64,
    /// Probability a command consult corrupts the packet.
    pub cmd_corrupt: f64,
    /// Probability a completion consult loses the interrupt.
    pub irq_lost: f64,
    /// Probability a memory-beat consult takes an ECC hit.
    pub ecc: f64,
}

impl FaultRates {
    fn is_zero(&self) -> bool {
        self.cmd_drop == 0.0 && self.cmd_corrupt == 0.0 && self.irq_lost == 0.0 && self.ecc == 0.0
    }
}

/// A deterministic schedule of faults. Build with the `at`/`with_rates`
/// combinators, then hand [`FaultPlan::injector`] to the models.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    rates: FaultRates,
    seed: u64,
}

impl FaultPlan {
    /// The empty plan: injects nothing, costs nothing, changes nothing.
    pub const fn none() -> FaultPlan {
        FaultPlan {
            events: Vec::new(),
            rates: FaultRates {
                cmd_drop: 0.0,
                cmd_corrupt: 0.0,
                irq_lost: 0.0,
                ecc: 0.0,
            },
            seed: 0,
        }
    }

    /// An empty plan to build on.
    pub fn new() -> FaultPlan {
        FaultPlan::none()
    }

    /// Schedules `kind` at absolute time `at`.
    pub fn at(mut self, at: Picos, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Adds seeded per-consult fault rates.
    pub fn with_rates(mut self, seed: u64, rates: FaultRates) -> FaultPlan {
        self.seed = seed;
        self.rates = rates;
        self
    }

    /// Whether the plan injects anything at all.
    pub(crate) fn is_none(&self) -> bool {
        self.events.is_empty() && self.rates.is_zero()
    }

    /// Scheduled events, in schedule order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Builds the consultable handle. Empty plans yield the no-op
    /// injector regardless of seed.
    pub fn injector(self) -> FaultInjector {
        if self.is_none() {
            return FaultInjector::none();
        }
        let mut events = self.events;
        // Stable by time: equal-time events fire in insertion order.
        events.sort_by_key(|e| e.at);
        FaultInjector {
            inner: Some(Arc::new(Mutex::new(FaultState {
                schedule: events,
                next: 0,
                link_up: true,
                stall_beats: 0,
                armed_ecc: 0,
                armed_drop: 0,
                armed_corrupt: 0,
                armed_irq: 0,
                rng: SplitMix64::new(self.seed),
                rates: self.rates,
            }))),
        }
    }
}

#[derive(Debug)]
struct FaultState {
    schedule: Vec<FaultEvent>,
    next: usize,
    link_up: bool,
    stall_beats: u64,
    armed_ecc: u64,
    armed_drop: u64,
    armed_corrupt: u64,
    armed_irq: u64,
    rng: SplitMix64,
    rates: FaultRates,
}

impl FaultState {
    /// Fires every scheduled event due at or before `now`.
    fn advance(&mut self, now: Picos) {
        while let Some(ev) = self.schedule.get(self.next) {
            if ev.at > now {
                break;
            }
            match ev.kind {
                FaultKind::LinkDown => self.link_up = false,
                FaultKind::LinkUp => self.link_up = true,
                FaultKind::PcieCreditStall { beats } => self.stall_beats += beats,
                FaultKind::EccError => self.armed_ecc += 1,
                FaultKind::CmdDrop => self.armed_drop += 1,
                FaultKind::CmdCorrupt => self.armed_corrupt += 1,
                FaultKind::IrqLost => self.armed_irq += 1,
            }
            self.next += 1;
        }
    }

    fn consume(armed: &mut u64, rng: &mut SplitMix64, rate: f64) -> bool {
        if *armed > 0 {
            *armed -= 1;
            return true;
        }
        rate > 0.0 && rng.chance(rate)
    }
}

/// The handle models consult. Cloning shares the underlying plan state,
/// so one scenario's DMA engine, IPs and FIFOs all draw from the same
/// schedule and RNG stream.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Mutex<FaultState>>>,
}

impl FaultInjector {
    /// The no-op injector (what `Default` also gives).
    pub fn none() -> FaultInjector {
        FaultInjector { inner: None }
    }

    /// Whether this injector can ever fire (false for [`FaultPlan::none`]).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Link state at `now`.
    pub fn link_up(&self, now: Picos) -> bool {
        let Some(inner) = &self.inner else {
            return true;
        };
        let mut s = inner.lock().expect("fault state poisoned");
        s.advance(now);
        s.link_up
    }

    /// Takes (and clears) any pending credit-stall beats due at `now`.
    pub fn take_stall_beats(&self, now: Picos) -> u64 {
        let Some(inner) = &self.inner else {
            return 0;
        };
        let mut s = inner.lock().expect("fault state poisoned");
        s.advance(now);
        std::mem::take(&mut s.stall_beats)
    }

    /// Whether the memory beat consulted at `now` takes an ECC hit.
    pub(crate) fn ecc_error(&self, now: Picos) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let mut s = inner.lock().expect("fault state poisoned");
        s.advance(now);
        let rate = s.rates.ecc;
        let FaultState { armed_ecc, rng, .. } = &mut *s;
        FaultState::consume(armed_ecc, rng, rate)
    }

    /// Whether the command consulted at `now` is dropped in flight.
    pub fn drop_command(&self, now: Picos) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let mut s = inner.lock().expect("fault state poisoned");
        s.advance(now);
        let rate = s.rates.cmd_drop;
        let FaultState {
            armed_drop, rng, ..
        } = &mut *s;
        FaultState::consume(armed_drop, rng, rate)
    }

    /// Possibly corrupts the in-flight command bytes at `now`, flipping
    /// one deterministically chosen bit. Returns whether it fired.
    pub fn corrupt_command(&self, now: Picos, bytes: &mut [u8]) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if bytes.is_empty() {
            return false;
        }
        let mut s = inner.lock().expect("fault state poisoned");
        s.advance(now);
        let rate = s.rates.cmd_corrupt;
        let FaultState {
            armed_corrupt, rng, ..
        } = &mut *s;
        if !FaultState::consume(armed_corrupt, rng, rate) {
            return false;
        }
        let bit = s.rng.next_below(bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        true
    }

    /// Whether the completion interrupt consulted at `now` is lost.
    pub fn irq_lost(&self, now: Picos) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let mut s = inner.lock().expect("fault state poisoned");
        s.advance(now);
        let rate = s.rates.irq_lost;
        let FaultState { armed_irq, rng, .. } = &mut *s;
        FaultState::consume(armed_irq, rng, rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let inj = FaultPlan::none().injector();
        assert!(!inj.is_active());
        assert!(inj.link_up(0));
        assert_eq!(inj.take_stall_beats(1_000_000), 0);
        assert!(!inj.ecc_error(2_000_000));
        assert!(!inj.drop_command(3_000_000));
        assert!(!inj.irq_lost(4_000_000));
        let mut bytes = vec![0xAA; 16];
        assert!(!inj.corrupt_command(5_000_000, &mut bytes));
        assert_eq!(bytes, vec![0xAA; 16]);
    }

    #[test]
    fn empty_builder_collapses_to_none() {
        let plan = FaultPlan::new().with_rates(99, FaultRates::default());
        assert!(plan.is_none());
        assert!(!plan.injector().is_active());
    }

    #[test]
    fn link_flap_schedule() {
        let inj = FaultPlan::new()
            .at(100, FaultKind::LinkDown)
            .at(300, FaultKind::LinkUp)
            .injector();
        assert!(inj.link_up(0));
        assert!(!inj.link_up(100));
        assert!(!inj.link_up(299));
        assert!(inj.link_up(300));
    }

    #[test]
    fn credit_stall_is_consumed_once() {
        let inj = FaultPlan::new()
            .at(50, FaultKind::PcieCreditStall { beats: 7 })
            .injector();
        assert_eq!(inj.take_stall_beats(49), 0);
        assert_eq!(inj.take_stall_beats(50), 7);
        assert_eq!(inj.take_stall_beats(51), 0, "stall must not repeat");
    }

    #[test]
    fn scheduled_one_shots_arm_single_consults() {
        let inj = FaultPlan::new()
            .at(10, FaultKind::CmdDrop)
            .at(10, FaultKind::EccError)
            .at(10, FaultKind::IrqLost)
            .injector();
        assert!(inj.drop_command(10));
        assert!(!inj.drop_command(11));
        assert!(inj.ecc_error(12));
        assert!(!inj.ecc_error(13));
        assert!(inj.irq_lost(14));
        assert!(!inj.irq_lost(15));
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let inj = FaultPlan::new().at(0, FaultKind::CmdCorrupt).injector();
        let clean = vec![0u8; 32];
        let mut dirty = clean.clone();
        assert!(inj.corrupt_command(0, &mut dirty));
        let flipped: u32 = clean
            .iter()
            .zip(&dirty)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn seeded_rates_reproduce_exactly() {
        let run = || {
            let inj = FaultPlan::new()
                .with_rates(
                    0xFA017,
                    FaultRates {
                        cmd_drop: 0.3,
                        cmd_corrupt: 0.2,
                        irq_lost: 0.1,
                        ecc: 0.25,
                    },
                )
                .injector();
            (0..200u64)
                .map(|t| {
                    let dropped = inj.drop_command(t);
                    let ecc = inj.ecc_error(t);
                    let lost = inj.irq_lost(t);
                    let mut b = vec![0xFFu8; 8];
                    let corrupted = inj.corrupt_command(t, &mut b);
                    (dropped, ecc, lost, corrupted, b)
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|f| f.0), "a 30 % drop rate must fire");
        assert!(a.iter().any(|f| f.1), "a 25 % ECC rate must fire");
        assert!(a.iter().any(|f| f.2), "a 10 % irq-loss rate must fire");
        assert!(a.iter().any(|f| f.3), "a 20 % corruption rate must fire");
    }

    #[test]
    fn clones_share_state() {
        let inj = FaultPlan::new().at(5, FaultKind::CmdDrop).injector();
        let other = inj.clone();
        assert!(other.drop_command(5));
        assert!(!inj.drop_command(6), "clone consumed the armed drop");
    }

    #[test]
    fn events_fire_in_time_order_regardless_of_insertion() {
        let inj = FaultPlan::new()
            .at(200, FaultKind::LinkUp)
            .at(100, FaultKind::LinkDown)
            .injector();
        assert!(!inj.link_up(150));
        assert!(inj.link_up(250));
    }
}
