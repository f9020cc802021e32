//! HBM stack controller model (Xilinx HBM-enabled UltraScale+ parts).
//!
//! An 8 GiB HBM2 stack exposes 32 pseudo-channels behind an internal
//! crossbar; the aggregate bandwidth the paper quotes (460 GB/s, §3.3.1)
//! emerges from 32 × 14.4 GB/s channels. Only Xilinx dice in the catalog
//! carry HBM, so there is a single vendor flavour.

use crate::iface::{self, InterfaceSpec, SignalDir};
use crate::ip::dram::{DramModel, DramTiming, MemOp};
use crate::ip::{IpKind, VendorIp};
use crate::regfile::{Access, RegOp, RegisterFile};
use crate::resource::ResourceUsage;
use crate::vendor::Vendor;
use harmonia_sim::{FaultInjector, Freq, Picos, Probe};

/// An HBM controller instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HbmIp {
    vendor: Vendor,
}

impl HbmIp {
    /// Number of pseudo-channels per stack.
    pub const CHANNELS: u32 = 32;

    /// Creates an HBM controller model.
    pub fn new(vendor: Vendor) -> Self {
        HbmIp { vendor }
    }

    /// Aggregate peak bandwidth across all channels, GB/s.
    pub fn aggregate_peak_gbs(&self) -> f64 {
        DramTiming::hbm2_channel().peak_gbs() * f64::from(Self::CHANNELS)
    }

    /// Creates the per-channel timing models.
    pub fn channels(&self) -> Vec<DramModel> {
        (0..Self::CHANNELS)
            .map(|_| DramModel::new(DramTiming::hbm2_channel()))
            .collect()
    }

    /// Runs a trace where each op is steered to `(addr / stride) % 32`
    /// channels — the default (un-interleaved) static mapping. Returns
    /// `(makespan_ps, bytes)`. Each access consults `faults` and pays the
    /// ECC scrub penalty when a hit fires; `probe` is attached to every
    /// pseudo-channel, so row conflicts and ECC scrubs land on one
    /// timeline (each channel stamps its own bank id). The no-op injector
    /// gives the fault-free run, and no probe moves the result.
    pub fn run_striped_trace<I: IntoIterator<Item = MemOp>>(
        &self,
        ops: I,
        stripe_bytes: u64,
        faults: &FaultInjector,
        probe: &Probe,
    ) -> (Picos, u64) {
        assert!(stripe_bytes > 0, "stripe size must be non-zero");
        let mut channels = self.channels();
        for ch in &mut channels {
            ch.set_probe(probe.clone());
        }
        let mut now = vec![0u64; channels.len()];
        let mut bytes = 0u64;
        for op in ops {
            let ch = ((op.addr / stripe_bytes) % u64::from(Self::CHANNELS)) as usize;
            now[ch] = channels[ch].access_with_faults(now[ch], op, faults);
            bytes += u64::from(op.bytes);
        }
        (now.into_iter().max().unwrap_or(0), bytes)
    }
}

impl VendorIp for HbmIp {
    fn kind(&self) -> IpKind {
        IpKind::Hbm
    }

    fn vendor(&self) -> Vendor {
        self.vendor
    }

    fn instance_name(&self) -> String {
        format!(
            "{}-hbm2",
            self.vendor.to_string().to_lowercase().replace('-', "")
        )
    }

    fn native_interface(&self) -> InterfaceSpec {
        iface::axi4_mm("hbm_axi", 256, 33)
            .signal("apb_complete", 1, SignalDir::Out)
            .signal("dram_stat_cattrip", 1, SignalDir::Out)
            .signal("dram_stat_temp", 7, SignalDir::Out)
            .config("STACK_COUNT", "1")
            .config("CHANNEL_ENABLE", "0xFFFFFFFF")
            .config("SWITCH_ENABLE", "true")
            .config("REORDER_EN", "true")
            .config("REFRESH_MODE", "single")
            .config("CLOCK_FREQ_MHZ", "900")
            .config("ECC_BYPASS", "false")
    }

    fn register_map(&self) -> RegisterFile {
        let mut rf = RegisterFile::new(self.instance_name());
        rf.define(0x000, "apb_status", Access::ReadOnly, 0);
        rf.define(0x004, "stack_ctrl", Access::ReadWrite, 0);
        rf.define(0x008, "temp", Access::ReadOnly, 35);
        rf.define(0x00C, "cattrip", Access::ReadOnly, 0);
        rf.define_block(0x100, "ch_enable_", 32, Access::ReadWrite, 1);
        rf.define_block(0x200, "ch_stat_", 32, Access::ReadOnly, 0);
        rf
    }

    fn init_sequence(&self) -> Vec<RegOp> {
        let mut ops = vec![
            RegOp::Write {
                addr: 0x004,
                value: 0x1,
            },
            RegOp::WaitStatus {
                addr: 0x000,
                mask: 0x1,
                expect: 0x1,
            },
        ];
        for ch in 0..8u32 {
            // Channels come up in groups of four.
            ops.push(RegOp::Write {
                addr: 0x100 + 16 * ch,
                value: 0xF,
            });
        }
        ops.push(RegOp::Read { addr: 0x008 });
        ops
    }

    fn resources(&self) -> ResourceUsage {
        ResourceUsage::new(14_000, 17_500, 58, 0, 0)
    }

    fn data_width_bits(&self) -> u32 {
        256
    }

    fn core_clock(&self) -> Freq {
        Freq::mhz(450)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fault-free, unobserved run.
    fn clean<I: IntoIterator<Item = MemOp>>(hbm: &HbmIp, ops: I, stripe: u64) -> (Picos, u64) {
        hbm.run_striped_trace(ops, stripe, &FaultInjector::none(), &Probe::disabled())
    }

    #[test]
    fn aggregate_bandwidth_matches_paper() {
        let hbm = HbmIp::new(Vendor::Xilinx);
        assert!((hbm.aggregate_peak_gbs() - 460.8).abs() < 1.0);
    }

    #[test]
    fn channel_parallel_trace_beats_single_channel() {
        let hbm = HbmIp::new(Vendor::Xilinx);
        // Addresses striding across stripes hit all 32 channels.
        let spread = (0..32_000u64).map(|i| MemOp::read(i * 4096, 64));
        let (ps_spread, b) = clean(&hbm, spread, 4096);
        // All addresses in one stripe serialize on one channel.
        let narrow = (0..32_000u64).map(|i| MemOp::read((i * 64) % 4096, 64));
        let (ps_narrow, _) = clean(&hbm, narrow, 4096);
        assert_eq!(b, 32_000 * 64);
        assert!(
            ps_spread * 4 < ps_narrow,
            "parallel {ps_spread} ps vs serial {ps_narrow} ps"
        );
    }

    #[test]
    fn thirty_two_channels() {
        assert_eq!(HbmIp::new(Vendor::Xilinx).channels().len(), 32);
    }

    #[test]
    #[should_panic(expected = "stripe size")]
    fn zero_stripe_rejected() {
        let hbm = HbmIp::new(Vendor::Xilinx);
        let _ = clean(&hbm, std::iter::empty(), 0);
    }

    #[test]
    fn register_map_covers_channels() {
        let rf = HbmIp::new(Vendor::Xilinx).register_map();
        assert!(rf.addr_of("ch_enable_31").is_some());
        assert!(rf.addr_of("ch_stat_31").is_some());
    }

    #[test]
    fn ecc_hits_stretch_the_striped_trace() {
        use harmonia_sim::{FaultPlan, FaultRates};
        let hbm = HbmIp::new(Vendor::Xilinx);
        let ops = || (0..2_000u64).map(|i| MemOp::read(i * 64, 64));
        let (fault_free, bytes) = clean(&hbm, ops(), 256);
        let faulty_inj = FaultPlan::new()
            .with_rates(
                7,
                FaultRates {
                    ecc: 0.2,
                    ..FaultRates::default()
                },
            )
            .injector();
        let off = Probe::disabled();
        let (faulty, fbytes) = hbm.run_striped_trace(ops(), 256, &faulty_inj, &off);
        assert_eq!(bytes, fbytes);
        assert!(
            faulty > fault_free,
            "ECC hits must cost time: {faulty} vs {fault_free}"
        );
        assert!(faulty_inj.report().ecc_errors > 0);
    }

    #[test]
    fn striped_run_surfaces_row_conflicts_and_scrubs() {
        use harmonia_sim::{FaultPlan, FaultRates};
        let hbm = HbmIp::new(Vendor::Xilinx);
        // Two rows ping-ponging in one stripe: every access past the first
        // conflicts.
        let ops = || (0..64u64).map(|i| MemOp::read((i % 2) << 20, 64));
        let inj = || {
            FaultPlan::new()
                .with_rates(
                    11,
                    FaultRates {
                        ecc: 0.3,
                        ..FaultRates::default()
                    },
                )
                .injector()
        };
        let probe = Probe::enabled();
        let traced = hbm.run_striped_trace(ops(), 4096, &inj(), &probe);
        let trace = probe.trace.take();
        let conflicts = trace
            .events()
            .iter()
            .filter(|e| e.kind.name() == "dram-row-conflict")
            .count();
        let scrubs = trace
            .events()
            .iter()
            .filter(|e| e.kind.name() == "ecc-scrub")
            .count();
        assert!(conflicts >= 32, "only {conflicts} row conflicts traced");
        assert!(scrubs > 0, "ECC scrubs must reach the timeline");
        // Observational only: same makespan as the unobserved fault run.
        assert_eq!(
            hbm.run_striped_trace(ops(), 4096, &inj(), &Probe::disabled()),
            traced
        );
    }
}
