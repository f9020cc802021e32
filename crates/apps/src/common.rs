//! Shared application plumbing: the `App` trait, performance results and
//! the bump-in-the-wire datapath model.

use harmonia_hw::ip::MacIp;
use harmonia_metrics::workload::{ModuleWorkload, Origin};
use harmonia_shell::rbb::network::PacketMeta;
use harmonia_shell::RoleSpec;
use harmonia_sim::{Freq, Picos};
use harmonia_workloads::WorkloadPacket;

/// A throughput/latency measurement point.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AppPerf {
    /// Throughput in Gbps (BITW apps) or operations/sec (look-aside apps).
    pub throughput: f64,
    /// End-to-end latency in picoseconds.
    pub latency_ps: Picos,
}

impl AppPerf {
    /// Latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.latency_ps as f64 / 1e6
    }
}

/// Common surface of the five applications.
pub trait App {
    /// The application's display name.
    fn name(&self) -> &'static str;

    /// The role's shell demands, used for tailoring.
    fn role_spec(&self) -> RoleSpec;

    /// The role-side development workload (handcraft application logic).
    fn role_workload(&self) -> ModuleWorkload {
        let mut w = ModuleWorkload::new(format!("{}-role", self.name()));
        w.add("application-logic", self.role_loc(), Origin::Handcraft);
        w
    }

    /// Role logic size in LoC (drives the Figure 3a shell/role split).
    fn role_loc(&self) -> u64;
}

/// The bump-in-the-wire datapath: wire → MAC → role pipeline → MAC → wire,
/// optionally passing through Harmonia's interface wrappers and CDC.
#[derive(Clone, Debug)]
pub struct BitwPath {
    mac: MacIp,
    /// Role pipeline depth in cycles at the role clock.
    role_pipeline_cycles: u64,
    role_clock: Freq,
    /// Deployment-path latency outside the FPGA (cabling, ToR switch and
    /// the peer's stack) — the context that makes the wrapper's
    /// nanoseconds "negligible relative to the application end-to-end
    /// microsecond-level delay" (§5.2).
    external_path_ps: Picos,
    /// Whether Harmonia's wrapper + CDC stages are in the path.
    with_harmonia: bool,
}

impl BitwPath {
    /// Wrapper + CDC stages Harmonia inserts on each direction.
    const HARMONIA_STAGES_CYCLES: u64 = 7; // 4 wrapper + 3 CDC

    /// Creates a path through the given MAC with a role pipeline.
    pub fn new(mac: MacIp, role_pipeline_cycles: u64, role_clock: Freq) -> Self {
        BitwPath {
            mac,
            role_pipeline_cycles,
            role_clock,
            external_path_ps: 5_000_000,
            with_harmonia: true,
        }
    }

    /// Disables the Harmonia stages (the "w/o Harmonia" baseline of
    /// Figure 17: a hand-built shell with direct vendor interfaces).
    pub fn without_harmonia(mut self) -> Self {
        self.with_harmonia = false;
        self
    }

    /// Throughput for a frame size: the MAC's line-rate goodput. Identical
    /// with and without Harmonia — the wrapper/CDC pipeline is bubble-free.
    pub fn throughput_gbps(&self, frame_bytes: u32) -> f64 {
        self.mac.throughput_gbps(frame_bytes)
    }

    /// End-to-end latency for one frame.
    pub fn latency_ps(&self, frame_bytes: u32) -> Picos {
        let mac = self.mac.loopback_latency_ps(frame_bytes);
        let role = self.role_pipeline_cycles * self.role_clock.period_ps();
        let harmonia = if self.with_harmonia {
            // In + out of the role region.
            2 * Self::HARMONIA_STAGES_CYCLES * self.role_clock.period_ps()
        } else {
            0
        };
        self.external_path_ps + mac + role + harmonia
    }

    /// Measures one sweep point.
    pub fn perf(&self, frame_bytes: u32) -> AppPerf {
        AppPerf {
            throughput: self.throughput_gbps(frame_bytes),
            latency_ps: self.latency_ps(frame_bytes),
        }
    }
}

/// Converts a generated workload packet into the RBB's header view.
pub fn to_packet_meta(p: &WorkloadPacket) -> PacketMeta {
    PacketMeta {
        dst_mac: p.dst_mac,
        src_ip: p.src_ip,
        dst_ip: p.dst_ip,
        src_port: p.src_port,
        dst_port: p.dst_port,
        proto: p.proto,
        bytes: p.bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::Vendor;

    fn path() -> BitwPath {
        BitwPath::new(MacIp::new(Vendor::Xilinx, 100), 20, Freq::mhz(322))
    }

    #[test]
    fn harmonia_does_not_change_throughput() {
        let with = path();
        let without = path().without_harmonia();
        for size in [64, 256, 1024] {
            assert_eq!(with.throughput_gbps(size), without.throughput_gbps(size));
        }
    }

    #[test]
    fn harmonia_latency_increase_below_one_percent() {
        let with = path();
        let without = path().without_harmonia();
        for size in [64, 128, 256, 512, 1024] {
            let lw = with.latency_ps(size) as f64;
            let lo = without.latency_ps(size) as f64;
            let inc = (lw - lo) / lo;
            assert!(inc > 0.0, "harmonia adds some latency");
            assert!(
                inc < 0.01,
                "size {size}: +{:.2}% breaks the <1% claim",
                100.0 * inc
            );
        }
    }

    #[test]
    fn latency_monotone_in_frame_size() {
        let p = path();
        assert!(p.latency_ps(1024) > p.latency_ps(64));
    }

    #[test]
    fn packet_meta_conversion_preserves_fields() {
        let wp = WorkloadPacket {
            dst_mac: 5,
            src_ip: 6,
            dst_ip: 7,
            src_port: 8,
            dst_port: 9,
            proto: 17,
            bytes: 99,
        };
        let m = to_packet_meta(&wp);
        assert_eq!(m.dst_mac, 5);
        assert_eq!(m.proto, 17);
        assert_eq!(m.bytes, 99);
    }
}
