//! Simulation time, frequencies and clock domains.
//!
//! All simulation time is expressed in integer picoseconds ([`Picos`]),
//! which keeps arithmetic exact for every clock frequency the framework
//! models (25G MAC at 390.625 MHz, PCIe user clocks, DDR controllers, …).

use std::fmt;

/// Simulation time in picoseconds.
pub type Picos = u64;

/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// A clock frequency, stored in hertz for exactness.
///
/// ```
/// use harmonia_sim::Freq;
/// let f = Freq::mhz(250);
/// assert_eq!(f.hz(), 250_000_000);
/// assert_eq!(f.period_ps(), 4_000);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Freq(u64);

impl Freq {
    /// The frequency in hertz.
    pub fn hz(self) -> u64 {
        self.0
    }

    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero: a zero-frequency clock never ticks and any
    /// component on it would silently deadlock the simulation.
    pub(crate) fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "clock frequency must be non-zero");
        Freq(hz)
    }

    /// Creates a frequency from megahertz.
    pub fn mhz(mhz: u64) -> Self {
        Self::from_hz(mhz * 1_000_000)
    }

    /// Creates a frequency from kilohertz (used for fractional-MHz clocks
    /// such as the 390.625 MHz 25G MAC core clock).
    pub fn khz(khz: u64) -> Self {
        Self::from_hz(khz * 1_000)
    }

    /// The clock period in picoseconds, rounded down.
    pub fn period_ps(self) -> Picos {
        PS_PER_SEC / self.0
    }

    /// Frequency in MHz as a float, for reporting.
    pub(crate) fn as_mhz(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.0 / 1_000_000)
        } else {
            write!(f, "{:.3} MHz", self.as_mhz())
        }
    }
}

/// A clock domain: a frequency and its period in picoseconds.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ClockDomain {
    freq: Freq,
}

impl ClockDomain {
    /// Creates a clock domain at the given frequency.
    pub fn new(freq: Freq) -> Self {
        ClockDomain { freq }
    }

    /// The domain's frequency.
    pub fn freq(&self) -> Freq {
        self.freq
    }

    /// The clock period in picoseconds.
    pub fn period_ps(&self) -> Picos {
        self.freq.period_ps()
    }
}

impl fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clock@{}", self.freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_constructors_agree() {
        assert_eq!(Freq::mhz(100), Freq::khz(100_000));
        assert_eq!(Freq::khz(1_000_000), Freq::mhz(1_000));
        assert_eq!(Freq::from_hz(322_265_625).period_ps(), 3_103);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_rejected() {
        let _ = Freq::from_hz(0);
    }

    #[test]
    fn period_of_common_clocks() {
        assert_eq!(Freq::mhz(250).period_ps(), 4_000);
        assert_eq!(Freq::mhz(322).period_ps(), 3_105);
        assert_eq!(Freq::khz(390_625).period_ps(), 2_560);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Freq::mhz(250).to_string(), "250 MHz");
        assert_eq!(Freq::khz(390_625).to_string(), "390.625 MHz");
        assert_eq!(
            ClockDomain::new(Freq::mhz(100)).to_string(),
            "clock@100 MHz"
        );
    }

    #[test]
    fn clock_domain_period_follows_its_freq() {
        let clk = ClockDomain::new(Freq::mhz(100));
        assert_eq!(clk.freq(), Freq::mhz(100));
        assert_eq!(clk.period_ps(), 10_000);
    }
}
