//! Parameterized clock-domain crossing (§3.3.1, Figure 6).
//!
//! "To synchronize an RBB at S MHz clock and M bits data width with a user
//! application at R MHz clock and U bits data width, Harmonia employs the
//! widely used asynchronous FIFO to perform cross-domain data read and
//! write. … Users can select instances that match S × M = R × U to achieve
//! lossless bandwidth." [`ParamCdc`] wires the gray-code
//! `AsyncFifo` between two clock/width domains
//! and can simulate a saturated transfer to verify exactly that condition.

use harmonia_sim::{AsyncFifo, ClockDomain, ClockEdge, Freq, MultiClock, Picos};

/// Report of a saturated CDC transfer simulation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CdcReport {
    /// Write-side beats offered (one per write edge).
    pub offered: u64,
    /// Write-side beats accepted into the FIFO.
    pub accepted: u64,
    /// Write-side edges where the FIFO back-pressured.
    pub writer_stalls: u64,
    /// Read-side beats delivered.
    pub delivered: u64,
    /// Bytes delivered.
    pub bytes_delivered: u64,
}

impl CdcReport {
    /// Delivered bandwidth over a window, in Gbps.
    #[cfg(test)]
    fn delivered_gbps(&self, window_ps: Picos) -> f64 {
        (self.bytes_delivered as f64 * 8.0) / (window_ps as f64 / 1e3) // bits/ns = Gbps
    }
}

/// A clock-domain crossing between an RBB-side domain (`S` MHz × `M` bits)
/// and a user-side domain (`R` MHz × `U` bits).
#[derive(Debug, Clone)]
pub struct ParamCdc {
    rbb_clock: ClockDomain,
    rbb_bits: u32,
    user_clock: ClockDomain,
    user_bits: u32,
    depth: usize,
}

impl ParamCdc {
    /// Creates a CDC with the given domain parameters and FIFO depth.
    ///
    /// # Panics
    ///
    /// Panics if widths are not positive multiples of 8 or `depth` is not a
    /// power of two.
    pub fn new(
        rbb_clock: Freq,
        rbb_bits: u32,
        user_clock: Freq,
        user_bits: u32,
        depth: usize,
    ) -> Self {
        assert!(rbb_bits >= 8 && rbb_bits.is_multiple_of(8), "bad RBB width");
        assert!(
            user_bits >= 8 && user_bits.is_multiple_of(8),
            "bad user width"
        );
        assert!(
            depth.is_power_of_two(),
            "async FIFO depth must be a power of two"
        );
        ParamCdc {
            rbb_clock: ClockDomain::new(rbb_clock),
            rbb_bits,
            user_clock: ClockDomain::new(user_clock),
            user_bits,
            depth,
        }
    }

    /// RBB-side bandwidth `S × M` in bits/second.
    pub(crate) fn rbb_bandwidth_bps(&self) -> u128 {
        u128::from(self.rbb_clock.freq().hz()) * u128::from(self.rbb_bits)
    }

    /// User-side bandwidth `R × U` in bits/second.
    pub(crate) fn user_bandwidth_bps(&self) -> u128 {
        u128::from(self.user_clock.freq().hz()) * u128::from(self.user_bits)
    }

    /// Whether the configuration satisfies the lossless condition
    /// `S × M ≤ R × U` (the reader drains at least as fast as the writer
    /// fills; equality is the paper's matched case).
    pub fn is_lossless(&self) -> bool {
        self.rbb_bandwidth_bps() <= self.user_bandwidth_bps()
    }

    /// Simulates a saturated transfer from the RBB domain to the user
    /// domain for `window_ps`. The writer offers one full `M`-bit beat per
    /// write edge; the reader drains one `U`-bit beat's worth per read edge.
    ///
    /// The FIFO carries words of the *wider* of the two interfaces: when
    /// the writer is narrower, the up-converting gearbox sits in the write
    /// domain (a word completes every `U/M` write beats); when the reader
    /// is narrower, the down-converting gearbox sits in the read domain.
    pub fn simulate(&self, window_ps: Picos) -> CdcReport {
        let mut run = CdcRun::new(self);
        let mut mc = MultiClock::new();
        mc.add(self.rbb_clock);
        mc.add(self.user_clock);
        for edge in mc.edges_until(window_ps) {
            run.on_edge(edge);
        }
        run.report
    }
}

/// The per-edge transfer body: clock index 0 is the write (RBB) domain,
/// index 1 the read (user) domain.
struct CdcRun {
    fifo: AsyncFifo<u32>,
    wbytes: u64,
    rbytes: u64,
    entry_bytes: u64,
    /// Write-side gearbox accumulator.
    wacc: u64,
    /// A completed word awaiting a FIFO slot (its presence back-pressures
    /// the writer).
    pending_word: bool,
    /// Read-side gearbox residue.
    reader_residue: u64,
    report: CdcReport,
}

impl CdcRun {
    fn new(cdc: &ParamCdc) -> Self {
        let wbytes = u64::from(cdc.rbb_bits / 8);
        let rbytes = u64::from(cdc.user_bits / 8);
        CdcRun {
            fifo: AsyncFifo::new(cdc.depth),
            wbytes,
            rbytes,
            entry_bytes: wbytes.max(rbytes),
            wacc: 0,
            pending_word: false,
            reader_residue: 0,
            report: CdcReport::default(),
        }
    }

    fn on_edge(&mut self, edge: ClockEdge) {
        if edge.clock == 0 {
            self.fifo.on_write_edge();
            if self.pending_word {
                if self.fifo.can_push() {
                    self.fifo
                        .try_push(self.entry_bytes as u32)
                        .expect("can_push checked");
                    self.pending_word = false;
                } else {
                    // The completed word has nowhere to go: the writer
                    // cannot accept a new beat this edge.
                    self.report.offered += 1;
                    self.report.writer_stalls += 1;
                    return;
                }
            }
            self.report.offered += 1;
            self.report.accepted += 1;
            self.wacc += self.wbytes;
            if self.wacc >= self.entry_bytes {
                self.wacc -= self.entry_bytes;
                if self.fifo.can_push() {
                    self.fifo
                        .try_push(self.entry_bytes as u32)
                        .expect("can_push checked");
                } else {
                    self.pending_word = true;
                }
            }
        } else {
            self.fifo.on_read_edge();
            if self.reader_residue < self.rbytes {
                if let Some(b) = self.fifo.try_pop() {
                    self.reader_residue += u64::from(b);
                }
            }
            let take = self.reader_residue.min(self.rbytes);
            if take > 0 {
                self.reader_residue -= take;
                self.report.delivered += 1;
                self.report.bytes_delivered += take;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: Picos = 1_000_000;

    #[test]
    fn matched_bandwidth_is_lossless() {
        // RBB: 322 MHz × 512 b; user: 322 MHz × 512 b.
        let cdc = ParamCdc::new(Freq::mhz(322), 512, Freq::mhz(322), 512, 32);
        assert!(cdc.is_lossless());
        let r = cdc.simulate(100 * US);
        assert_eq!(r.writer_stalls, 0);
        assert!(r.accepted > 0);
    }

    #[test]
    fn width_frequency_tradeoff_is_lossless() {
        // S×M = R×U with different shapes: 100 MHz × 512 b vs 400 MHz × 128 b.
        let cdc = ParamCdc::new(Freq::mhz(100), 512, Freq::mhz(400), 128, 32);
        assert!(cdc.is_lossless());
        let r = cdc.simulate(100 * US);
        assert_eq!(r.writer_stalls, 0, "stalled {} times", r.writer_stalls);
        // Delivered ≈ offered bandwidth (64 B per write edge).
        let offered_bytes = r.accepted * 64;
        assert!(r.bytes_delivered >= offered_bytes - 64 * 8);
    }

    #[test]
    fn undersized_reader_backpressures() {
        // Reader bandwidth half the writer's: S×M = 2·R×U.
        let cdc = ParamCdc::new(Freq::mhz(200), 512, Freq::mhz(200), 256, 16);
        assert!(!cdc.is_lossless());
        let r = cdc.simulate(100 * US);
        assert!(r.writer_stalls > r.accepted / 2, "expected heavy stalling");
        // Reader still runs at its own full rate.
        let reader_bw = r.delivered_gbps(100 * US);
        let expected = 200e6 * 256.0 / 1e9;
        assert!((reader_bw - expected).abs() / expected < 0.05);
    }

    #[test]
    fn oversized_reader_never_stalls_writer() {
        let cdc = ParamCdc::new(Freq::mhz(100), 128, Freq::mhz(400), 128, 16);
        assert!(cdc.is_lossless());
        let r = cdc.simulate(50 * US);
        assert_eq!(r.writer_stalls, 0);
    }

    #[test]
    fn paper_parameter_progression() {
        // The Network RBB widths/speeds of §3.3.1: 128 b / 512 b / 2048 b.
        for (bits, mhz) in [(128u32, 250u64), (512, 322), (2048, 402)] {
            let cdc = ParamCdc::new(Freq::mhz(mhz), bits, Freq::mhz(mhz), bits, 32);
            assert!(cdc.is_lossless());
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_depth_rejected() {
        let _ = ParamCdc::new(Freq::mhz(100), 64, Freq::mhz(100), 64, 12);
    }

    #[test]
    fn report_bandwidth_math() {
        let r = CdcReport {
            bytes_delivered: 1_250_000, // over 100 µs → 100 Gbps
            ..Default::default()
        };
        assert!((r.delivered_gbps(100 * US) - 100.0).abs() < 1e-9);
    }
}
