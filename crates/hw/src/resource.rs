//! On-chip resource accounting.
//!
//! Every module in the workspace (vendor IPs, wrappers, RBB reusable logic,
//! roles, baseline shells) declares a [`ResourceUsage`]; shells sum their
//! modules' usage; figures 11, 16 and 18a report usage as a percentage of a
//! device's capacity.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// The resource types reported in the paper's figures.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// Look-up tables (Xilinx LUT6 / Intel ALUT).
    Lut,
    /// Flip-flops / registers.
    Reg,
    /// Block RAM (36 Kb blocks on Xilinx, M20K on Intel).
    Bram,
    /// UltraRAM (Xilinx-only large SRAM blocks; zero capacity elsewhere).
    Uram,
    /// DSP slices.
    Dsp,
}

impl ResourceKind {
    /// All kinds, in reporting order.
    pub const ALL: [ResourceKind; 5] = [
        ResourceKind::Lut,
        ResourceKind::Reg,
        ResourceKind::Bram,
        ResourceKind::Uram,
        ResourceKind::Dsp,
    ];
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Lut => "LUT",
            ResourceKind::Reg => "REG",
            ResourceKind::Bram => "BRAM",
            ResourceKind::Uram => "URAM",
            ResourceKind::Dsp => "DSP",
        };
        f.write_str(s)
    }
}

/// A bundle of resource quantities.
///
/// ```
/// use harmonia_hw::ResourceUsage;
/// let a = ResourceUsage::new(1000, 2000, 4, 0, 8);
/// let b = ResourceUsage::new(500, 500, 2, 1, 0);
/// let s = a + b;
/// assert_eq!(s.lut, 1500);
/// assert_eq!(s.uram, 1);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ResourceUsage {
    /// Look-up tables.
    pub lut: u64,
    /// Registers / flip-flops.
    pub reg: u64,
    /// Block-RAM blocks.
    pub bram: u64,
    /// UltraRAM blocks.
    pub uram: u64,
    /// DSP slices.
    pub dsp: u64,
}

impl ResourceUsage {
    /// Creates a usage bundle.
    pub fn new(lut: u64, reg: u64, bram: u64, uram: u64, dsp: u64) -> Self {
        ResourceUsage {
            lut,
            reg,
            bram,
            uram,
            dsp,
        }
    }

    /// The zero bundle.
    pub(crate) fn zero() -> Self {
        Self::default()
    }

    /// Quantity of one resource kind.
    pub fn get(&self, kind: ResourceKind) -> u64 {
        match kind {
            ResourceKind::Lut => self.lut,
            ResourceKind::Reg => self.reg,
            ResourceKind::Bram => self.bram,
            ResourceKind::Uram => self.uram,
            ResourceKind::Dsp => self.dsp,
        }
    }

    /// This usage as a percentage of `capacity`, per kind. Kinds with zero
    /// capacity report 0 (e.g. URAM on Intel devices).
    pub fn percent_of(&self, capacity: &ResourceUsage, kind: ResourceKind) -> f64 {
        let cap = capacity.get(kind);
        if cap == 0 {
            return 0.0;
        }
        100.0 * self.get(kind) as f64 / cap as f64
    }

    /// Maximum utilization percentage across all kinds — the figure-16
    /// "highest resource consumption percentage" metric.
    pub fn max_percent_of(&self, capacity: &ResourceUsage) -> f64 {
        ResourceKind::ALL
            .iter()
            .map(|&k| self.percent_of(capacity, k))
            .fold(0.0, f64::max)
    }

    /// Whether this usage fits within `capacity` for every kind.
    pub fn fits_in(&self, capacity: &ResourceUsage) -> bool {
        ResourceKind::ALL
            .iter()
            .all(|&k| self.get(k) <= capacity.get(k))
    }

    /// Saturating subtraction per kind (used when computing headroom).
    pub fn saturating_sub(&self, other: &ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            lut: self.lut.saturating_sub(other.lut),
            reg: self.reg.saturating_sub(other.reg),
            bram: self.bram.saturating_sub(other.bram),
            uram: self.uram.saturating_sub(other.uram),
            dsp: self.dsp.saturating_sub(other.dsp),
        }
    }

    /// Whether every field is zero.
    pub fn is_zero(&self) -> bool {
        *self == ResourceUsage::default()
    }

    /// Re-targets URAM usage onto devices without URAM: when `capacity`
    /// has no URAM blocks (Intel dice), each URAM block is implemented as
    /// 8 block-RAM primitives instead (288 Kb ≈ 8 × 36 Kb / M20K-class).
    /// On URAM-capable devices the usage is returned unchanged.
    pub fn retargeted_for(&self, capacity: &ResourceUsage) -> ResourceUsage {
        if capacity.uram > 0 || self.uram == 0 {
            return *self;
        }
        ResourceUsage {
            bram: self.bram + self.uram * 8,
            uram: 0,
            ..*self
        }
    }
}

impl Add for ResourceUsage {
    type Output = ResourceUsage;
    fn add(self, rhs: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            lut: self.lut + rhs.lut,
            reg: self.reg + rhs.reg,
            bram: self.bram + rhs.bram,
            uram: self.uram + rhs.uram,
            dsp: self.dsp + rhs.dsp,
        }
    }
}

impl AddAssign for ResourceUsage {
    fn add_assign(&mut self, rhs: ResourceUsage) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceUsage {
    type Output = ResourceUsage;
    /// # Panics
    ///
    /// Panics in debug builds on underflow; use
    /// [`saturating_sub`](ResourceUsage::saturating_sub) for headroom math.
    fn sub(self, rhs: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            lut: self.lut - rhs.lut,
            reg: self.reg - rhs.reg,
            bram: self.bram - rhs.bram,
            uram: self.uram - rhs.uram,
            dsp: self.dsp - rhs.dsp,
        }
    }
}

impl Mul<u64> for ResourceUsage {
    type Output = ResourceUsage;
    fn mul(self, k: u64) -> ResourceUsage {
        ResourceUsage {
            lut: self.lut * k,
            reg: self.reg * k,
            bram: self.bram * k,
            uram: self.uram * k,
            dsp: self.dsp * k,
        }
    }
}

impl Sum for ResourceUsage {
    fn sum<I: Iterator<Item = ResourceUsage>>(iter: I) -> ResourceUsage {
        iter.fold(ResourceUsage::zero(), |a, b| a + b)
    }
}

impl fmt::Display for ResourceUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LUT {} / REG {} / BRAM {} / URAM {} / DSP {}",
            self.lut, self.reg, self.bram, self.uram, self.dsp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = ResourceUsage::new(10, 20, 3, 1, 2);
        let b = ResourceUsage::new(5, 10, 1, 0, 2);
        assert_eq!(a + b, ResourceUsage::new(15, 30, 4, 1, 4));
        assert_eq!(a - b, ResourceUsage::new(5, 10, 2, 1, 0));
        assert_eq!(b * 3, ResourceUsage::new(15, 30, 3, 0, 6));
    }

    #[test]
    fn sum_over_iterator() {
        let parts = [
            ResourceUsage::new(1, 1, 0, 0, 0),
            ResourceUsage::new(2, 2, 1, 0, 0),
            ResourceUsage::new(3, 3, 0, 1, 5),
        ];
        let total: ResourceUsage = parts.into_iter().sum();
        assert_eq!(total, ResourceUsage::new(6, 6, 1, 1, 5));
    }

    #[test]
    fn percentages() {
        let cap = ResourceUsage::new(1000, 2000, 100, 0, 10);
        let use_ = ResourceUsage::new(100, 100, 25, 5, 1);
        assert!((use_.percent_of(&cap, ResourceKind::Lut) - 10.0).abs() < 1e-9);
        assert!((use_.percent_of(&cap, ResourceKind::Bram) - 25.0).abs() < 1e-9);
        // Zero capacity (URAM on Intel) reports 0, not a division error.
        assert_eq!(use_.percent_of(&cap, ResourceKind::Uram), 0.0);
        assert!((use_.max_percent_of(&cap) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn fits_in_checks_every_kind() {
        let cap = ResourceUsage::new(100, 100, 10, 0, 10);
        assert!(ResourceUsage::new(100, 100, 10, 0, 10).fits_in(&cap));
        assert!(!ResourceUsage::new(1, 1, 1, 1, 1).fits_in(&cap)); // uram
    }

    #[test]
    fn saturating_sub_never_underflows() {
        let a = ResourceUsage::new(1, 1, 1, 1, 1);
        let b = ResourceUsage::new(5, 0, 5, 0, 5);
        assert_eq!(a.saturating_sub(&b), ResourceUsage::new(0, 1, 0, 1, 0));
    }

    #[test]
    fn uram_retargeting() {
        let use_ = ResourceUsage::new(10, 10, 4, 3, 0);
        let xilinx_cap = ResourceUsage::new(100, 100, 100, 100, 10);
        let intel_cap = ResourceUsage::new(100, 100, 100, 0, 10);
        assert_eq!(use_.retargeted_for(&xilinx_cap), use_);
        let spilled = use_.retargeted_for(&intel_cap);
        assert_eq!(spilled.uram, 0);
        assert_eq!(spilled.bram, 4 + 24);
        assert!(spilled.fits_in(&intel_cap));
    }

    #[test]
    fn display_mentions_every_kind() {
        let s = ResourceUsage::new(1, 2, 3, 4, 5).to_string();
        for k in ResourceKind::ALL {
            assert!(s.contains(&k.to_string()), "{s} missing {k}");
        }
    }
}
