//! Beat-level datapath simulation: MAC → wrapper → CDC → role.
//!
//! The analytic models in `hw::ip` state the wrapper/CDC claims; this
//! module *verifies them by cycle simulation*. Packets arrive at line rate
//! on the MAC clock, cross the width converter and the gray-code async
//! FIFO into the role's clock domain, traverse the role pipeline, and are
//! counted on exit. Throughput must equal the analytic line-rate goodput
//! (no bubbles) and per-packet latency must equal serialization plus the
//! fixed pipeline depths.
//!
//! `MultiClock` walks every edge of both clocks and feeds it to the
//! per-edge body (`DatapathRun`) until the last packet is delivered. The
//! edge body allocates nothing: every packet has the same beats, so the
//! MAC's ingress is a cursor over one packet's beat list, and arrival
//! times are a product, not a stored list. Every call it makes across a
//! crate (the edge iterator, the width converter, the statistics) is
//! `#[inline]`, so an edge costs its own arithmetic: one scan picks the
//! next clock, the FIFO decodes each synchronized gray pointer once per
//! edge of the domain that reads it, and a push is tried, not checked and
//! then tried.

use crate::cdc::ParamCdc;
use harmonia_hw::ip::MacIp;
use harmonia_hw::ip::VendorIp;
use harmonia_platform::{InterfaceWrapper, WidthConverter};
use harmonia_sim::stream::{packet_to_beats, StreamBeat};
use harmonia_sim::{
    AsyncFifo, ClockDomain, ClockEdge, Freq, LatencyStats, MultiClock, Picos, Pipeline, Throughput,
};
use std::collections::VecDeque;

/// Result of a datapath simulation run.
#[derive(Debug)]
pub struct DatapathReport {
    /// Delivered throughput.
    pub throughput: Throughput,
    /// Per-packet wire-entry → role-exit latency.
    pub latency: LatencyStats,
    /// Packets fully delivered.
    pub packets_delivered: u64,
    /// Whether the ingress ever back-pressured onto the wire (a bubble).
    pub ingress_stalled: bool,
    /// Clock edges simulated: every edge of both domains visited until the
    /// last packet is delivered.
    pub edges_visited: u64,
}

/// A simulated bump-in-the-wire ingress path.
#[derive(Debug)]
pub struct DatapathSim {
    mac: MacIp,
    user_clock: Freq,
    user_width_bits: u32,
    role_pipeline_cycles: u64,
    with_harmonia: bool,
}

impl DatapathSim {
    /// Creates a simulation of `mac` feeding a role at `user_clock` ×
    /// `user_width_bits` through Harmonia's wrapper + CDC.
    pub fn new(mac: MacIp, user_clock: Freq, user_width_bits: u32) -> Self {
        DatapathSim {
            mac,
            user_clock,
            user_width_bits,
            role_pipeline_cycles: 16,
            with_harmonia: true,
        }
    }

    /// Sets the role pipeline depth.
    #[cfg(test)]
    fn with_role_pipeline(mut self, cycles: u64) -> Self {
        self.role_pipeline_cycles = cycles;
        self
    }

    /// Removes the Harmonia wrapper's translation stages (native-interface
    /// baseline). The clock-domain crossing itself remains — the role runs
    /// in its own domain either way — so the measured delta isolates the
    /// wrapper's fixed pipeline cycles.
    pub fn without_harmonia(mut self) -> Self {
        self.with_harmonia = false;
        self
    }

    /// Runs `count` back-to-back packets of `packet_bytes` at line rate.
    ///
    /// # Panics
    ///
    /// Panics if the CDC configuration would be lossy (`S×M > R×U`) — a
    /// mis-sized role domain is a design error the tailoring flow rejects.
    /// Panics if `packet_bytes` is zero (an empty packet has no beats), and
    /// if the run's deadline, four times the ideal wire time of `count`
    /// packets, does not fit the simulated clock.
    pub fn run(&self, packet_bytes: u32, count: u64) -> DatapathReport {
        let mac_clock = self.mac.core_clock();
        let mac_width = self.mac.data_width_bits();
        if self.with_harmonia {
            let cdc = ParamCdc::new(
                mac_clock,
                mac_width,
                self.user_clock,
                self.user_width_bits,
                64,
            );
            assert!(
                cdc.is_lossless(),
                "role domain {} x {}b cannot absorb the MAC",
                self.user_clock,
                self.user_width_bits
            );
        }

        let wrapper_extra = if self.with_harmonia {
            InterfaceWrapper::wrap(&self.mac, self.user_width_bits).latency_cycles()
        } else {
            0
        };
        let mut run = DatapathRun::new(
            packet_bytes,
            count,
            mac_width,
            self.user_width_bits,
            self.role_pipeline_cycles,
            wrapper_extra,
            self.mac.speed_gbps(),
        );

        // Run until everything is delivered (bounded by 4× the ideal time).
        let deadline = (4 * run.wire_ps_per_pkt)
            .checked_mul(count)
            .and_then(|ps| ps.checked_add(10_000_000))
            .unwrap_or_else(|| {
                panic!("{count} packets of {packet_bytes} B overflow the simulated clock")
            });
        let mut mc = MultiClock::new();
        let mac_clk = mc.add(ClockDomain::new(mac_clock));
        mc.add(ClockDomain::new(self.user_clock));
        for edge in mc.edges_until(deadline) {
            if run.done() {
                break;
            }
            if edge.clock == mac_clk {
                run.on_mac_edge(edge);
            } else {
                run.on_user_edge(edge);
            }
        }
        run.into_report()
    }
}

/// Per-edge simulation state.
struct DatapathRun {
    packet_bytes: u32,
    count: u64,
    wire_ps_per_pkt: Picos,
    /// One packet's beats on the MAC interface.
    beats: Vec<StreamBeat>,
    /// The MAC's ingress (store-and-forward: fully serialized packets
    /// only) is packets `send_pkt..next_ready_pkt`, from beat `send_beat`
    /// of the first.
    send_pkt: u64,
    send_beat: usize,
    next_ready_pkt: u64,
    fifo: AsyncFifo<(StreamBeat, u64)>,
    converter: WidthConverter,
    /// Tags for packets whose eop has entered the converter, in order.
    conv_tags: VecDeque<u64>,
    role_pipe: Pipeline<u64>,
    delivery_pipe: Pipeline<u64>,
    latency: LatencyStats,
    throughput: Throughput,
    delivered: u64,
    ingress_stalled: bool,
    last_exit_ps: Picos,
    edges_visited: u64,
}

impl DatapathRun {
    #[allow(clippy::too_many_arguments)]
    fn new(
        packet_bytes: u32,
        count: u64,
        mac_width: u32,
        user_width_bits: u32,
        role_pipeline_cycles: u64,
        wrapper_extra: u64,
        speed_gbps: u32,
    ) -> Self {
        // Wire model: packet n's first bit arrives at n × (wire time of one
        // packet + overhead); serialization finishes a packet later.
        let wire_ps_per_pkt = (u64::from(packet_bytes) + 20) * 8 * 1000 / u64::from(speed_gbps);
        DatapathRun {
            packet_bytes,
            count,
            wire_ps_per_pkt,
            beats: packet_to_beats(packet_bytes, mac_width),
            send_pkt: 0,
            send_beat: 0,
            next_ready_pkt: 0,
            fifo: AsyncFifo::new(64),
            converter: WidthConverter::new(mac_width, user_width_bits),
            conv_tags: VecDeque::new(),
            role_pipe: Pipeline::new(role_pipeline_cycles),
            delivery_pipe: Pipeline::new(wrapper_extra),
            latency: LatencyStats::new(),
            throughput: Throughput::new(),
            delivered: 0,
            ingress_stalled: false,
            last_exit_ps: 0,
            edges_visited: 0,
        }
    }

    fn done(&self) -> bool {
        self.delivered == self.count
    }

    fn on_mac_edge(&mut self, edge: ClockEdge) {
        self.edges_visited += 1;
        // Wire: packet n fully received at (n+1) × wire time.
        while self.next_ready_pkt < self.count
            && edge.at_ps >= (self.next_ready_pkt + 1) * self.wire_ps_per_pkt
        {
            self.next_ready_pkt += 1;
        }
        self.fifo.on_write_edge();
        if self.send_pkt < self.next_ready_pkt {
            let beat = (self.beats[self.send_beat], self.send_pkt);
            if self.fifo.try_push(beat).is_ok() {
                self.send_beat += 1;
                if self.send_beat == self.beats.len() {
                    self.send_beat = 0;
                    self.send_pkt += 1;
                }
            } else if self.ingress_backlog() > 256 {
                // Sustained backlog = the path cannot keep line rate.
                self.ingress_stalled = true;
            }
        }
    }

    /// Beats received off the wire and not yet in the FIFO.
    fn ingress_backlog(&self) -> u64 {
        (self.next_ready_pkt - self.send_pkt) * self.beats.len() as u64 - self.send_beat as u64
    }

    fn on_user_edge(&mut self, edge: ClockEdge) {
        self.edges_visited += 1;
        // User domain: pop one MAC-width beat, convert, advance the role
        // pipeline one cycle.
        self.fifo.on_read_edge();
        if let Some((beat, tag)) = self.fifo.try_pop() {
            if beat.eop {
                self.conv_tags.push_back(tag);
            }
            self.converter.push(beat);
        }
        // Drain converted beats; packet completion enters the role
        // pipeline at its eop beat.
        while let Some(out) = self.converter.pop() {
            if out.eop {
                let tag = self.conv_tags.pop_front().expect("tag per packet");
                let _ = self.role_pipe.push(edge.cycle, tag);
            }
        }
        if let Some(tag) = self.role_pipe.pop(edge.cycle) {
            let _ = self.delivery_pipe.push(edge.cycle, tag);
        }
        if let Some(tag) = self.delivery_pipe.pop(edge.cycle) {
            let exit_ps = edge.at_ps;
            // Packet n's first bit arrives at n × wire time.
            self.latency.record(exit_ps - tag * self.wire_ps_per_pkt);
            self.throughput.record(u64::from(self.packet_bytes), 1);
            self.delivered += 1;
            self.last_exit_ps = exit_ps;
        }
    }

    fn into_report(mut self) -> DatapathReport {
        self.throughput.close(self.last_exit_ps.max(1));
        DatapathReport {
            throughput: self.throughput,
            latency: self.latency,
            packets_delivered: self.delivered,
            ingress_stalled: self.ingress_stalled,
            edges_visited: self.edges_visited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::Vendor;

    fn sim() -> DatapathSim {
        DatapathSim::new(MacIp::new(Vendor::Xilinx, 100), Freq::khz(322_265), 512)
    }

    #[test]
    fn line_rate_sustained_without_bubbles() {
        for size in [64u32, 256, 1024] {
            let report = sim().run(size, 2_000);
            assert_eq!(report.packets_delivered, 2_000, "size {size}");
            assert!(!report.ingress_stalled, "size {size}: path stalled");
            let analytic = MacIp::new(Vendor::Xilinx, 100).throughput_gbps(size);
            let measured = report.throughput.gbps();
            let err = (measured - analytic).abs() / analytic;
            assert!(
                err < 0.03,
                "size {size}: simulated {measured:.2} vs analytic {analytic:.2} Gbps"
            );
        }
    }

    #[test]
    fn harmonia_latency_delta_is_fixed_cycles() {
        let with = sim().run(256, 500);
        let without = sim().without_harmonia().run(256, 500);
        assert_eq!(without.packets_delivered, 500);
        let delta = with.latency.mean_ps() - without.latency.mean_ps();
        // 4 wrapper cycles at ~322 MHz ≈ 12.4 ns.
        assert!(
            (8_000.0..20_000.0).contains(&delta),
            "wrapper delta {delta:.0} ps"
        );
    }

    #[test]
    fn latency_composition_is_sane() {
        let report = sim().with_role_pipeline(32).run(512, 300);
        let mean = report.latency.mean_ps();
        // Lower bound: one wire serialization (~42.6 µs? no — 512 B at
        // 100G ≈ 42.6 ns) plus 32 role cycles (~99 ns).
        assert!(mean > 100_000.0, "mean {mean:.0} ps too low");
        assert!(mean < 1_000_000.0, "mean {mean:.0} ps too high");
    }

    #[test]
    fn wider_role_domain_also_lossless() {
        // Role at 250 MHz × 1024 b absorbs the 322 MHz × 512 b MAC.
        let s = DatapathSim::new(MacIp::new(Vendor::Intel, 100), Freq::mhz(250), 1024);
        let report = s.run(128, 1_000);
        assert_eq!(report.packets_delivered, 1_000);
        assert!(!report.ingress_stalled);
    }

    /// The role domains of the recorded grid: Xilinx 322 MHz x 512 b,
    /// Intel 250 MHz x 1024 b, and an undersized 100 MHz x 128 b domain
    /// that only the native baseline accepts, which stalls the ingress.
    fn domain(which: u8) -> DatapathSim {
        match which {
            0 => sim(),
            1 => DatapathSim::new(MacIp::new(Vendor::Intel, 100), Freq::mhz(250), 1024),
            _ => DatapathSim::new(MacIp::new(Vendor::Xilinx, 100), Freq::mhz(100), 128),
        }
    }

    /// One recorded run: packet size, Harmonia wrapper on, role pipeline
    /// depth, [`domain`]; then delivered, edges visited, stalled, latency
    /// min / max / mean (ps), throughput bytes and window (ps).
    type Recorded = (u32, bool, u64, u8, u64, u64, bool, u64, u64, f64, u64, u64);

    const RECORDED: &[Recorded] = &[
        (
            64, true, 16, 0, 200, 910, false, 68798, 71882, 70308.42, 12800, 1408762,
        ),
        (
            64, true, 32, 0, 200, 942, false, 118446, 121530, 119956.42, 12800, 1458410,
        ),
        (
            64, false, 16, 0, 200, 904, false, 59489, 62573, 60999.42, 12800, 1399453,
        ),
        (
            64, false, 32, 0, 200, 936, false, 109137, 112221, 110647.42, 12800, 1449101,
        ),
        (
            256, true, 16, 0, 200, 2896, false, 93452, 96530, 95008.89, 51200, 4490041,
        ),
        (
            256, true, 32, 0, 200, 2928, false, 143100, 146178, 144656.89, 51200, 4539689,
        ),
        (
            256, false, 16, 0, 200, 2890, false, 84143, 87221, 85699.89, 51200, 4480732,
        ),
        (
            256, false, 32, 0, 200, 2922, false, 133791, 136869, 135347.89, 51200, 4530380,
        ),
        (
            1024, true, 16, 0, 200, 10840, false, 192125, 195199, 193655.62, 204800, 16815157,
        ),
        (
            1024, true, 32, 0, 200, 10872, false, 241773, 244847, 243303.62, 204800, 16864805,
        ),
        (
            1024, false, 16, 0, 200, 10834, false, 182816, 185890, 184346.62, 204800, 16805848,
        ),
        (
            1024, false, 32, 0, 200, 10866, false, 232464, 235538, 233994.62, 204800, 16855496,
        ),
        (
            1500, true, 16, 0, 200, 15764, false, 255046, 258130, 256604.67, 300000, 24454743,
        ),
        (
            1500, true, 32, 0, 200, 15796, false, 304694, 307778, 306252.67, 300000, 24504391,
        ),
        (
            1500, false, 16, 0, 200, 15758, false, 245737, 248821, 247295.67, 300000, 24445434,
        ),
        (
            1500, false, 32, 0, 200, 15790, false, 295385, 298469, 296943.67, 300000, 24495082,
        ),
        (
            64, true, 16, 1, 200, 821, false, 91040, 97600, 94280.0, 12800, 1432000,
        ),
        (
            64, true, 32, 1, 200, 858, false, 155040, 161600, 158280.0, 12800, 1496000,
        ),
        (
            64, false, 16, 1, 200, 812, false, 75040, 81600, 78280.0, 12800, 1416000,
        ),
        (
            64, false, 32, 1, 200, 848, false, 139040, 145600, 142280.0, 12800, 1480000,
        ),
        (
            256, true, 16, 1, 200, 2586, false, 118400, 124800, 121660.0, 51200, 4516000,
        ),
        (
            256, true, 32, 1, 200, 2622, false, 182400, 188800, 185660.0, 51200, 4580000,
        ),
        (
            256, false, 16, 1, 200, 2577, false, 102400, 108800, 105660.0, 51200, 4500000,
        ),
        (
            256, false, 32, 1, 200, 2613, false, 166400, 172800, 169660.0, 51200, 4564000,
        ),
        (
            1024, true, 16, 1, 200, 9645, false, 227680, 234240, 231000.0, 204800, 16852000,
        ),
        (
            1024, true, 32, 1, 200, 9682, false, 291680, 298240, 295000.0, 204800, 16916000,
        ),
        (
            1024, false, 16, 1, 200, 9636, false, 211680, 218240, 215000.0, 204800, 16836000,
        ),
        (
            1024, false, 32, 1, 200, 9673, false, 275680, 282240, 279000.0, 204800, 16900000,
        ),
        (
            1500, true, 16, 1, 200, 14022, false, 298400, 304000, 301240.0, 300000, 24500000,
        ),
        (
            1500, true, 32, 1, 200, 14059, false, 362400, 368000, 365240.0, 300000, 24564000,
        ),
        (
            1500, false, 16, 1, 200, 14013, false, 282400, 288000, 285240.0, 300000, 24484000,
        ),
        (
            1500, false, 32, 1, 200, 14050, false, 346400, 352000, 349240.0, 300000, 24548000,
        ),
        (
            64, false, 16, 2, 200, 918, false, 180000, 832720, 506360.0, 12800, 2170000,
        ),
        (
            64, false, 32, 2, 200, 985, false, 340000, 992720, 666360.0, 12800, 2330000,
        ),
        (
            256, false, 16, 2, 200, 3460, true, 230000, 3796080, 2013040.0, 51200, 8190000,
        ),
        (
            256, false, 32, 2, 200, 3527, true, 390000, 3956080, 2173040.0, 51200, 8350000,
        ),
        (
            1024, false, 16, 2, 200, 13620, true, 410000, 15629520, 8019760.0, 204800, 32250000,
        ),
        (
            1024, false, 32, 2, 200, 13687, true, 570000, 15789520, 8179760.0, 204800, 32410000,
        ),
        (
            1500, false, 16, 2, 200, 20393, true, 530000, 24091600, 12310800.0, 300000, 48290000,
        ),
        (
            1500, false, 32, 2, 200, 20460, true, 690000, 24251600, 12470800.0, 300000, 48450000,
        ),
    ];

    /// Pins every field of the report, to the edge: the paper tables round
    /// these to two decimals and cannot catch a one-edge slip.
    #[test]
    fn datapath_reports_match_recorded_values() {
        let mut got = Vec::new();
        for which in 0..3u8 {
            for size in [64u32, 256, 1024, 1500] {
                for harmonia in [true, false] {
                    for pipeline in [16u64, 32] {
                        if which == 2 && harmonia {
                            continue;
                        }
                        let s = domain(which).with_role_pipeline(pipeline);
                        let s = if harmonia { s } else { s.without_harmonia() };
                        let r = s.run(size, 200);
                        got.push((
                            size,
                            harmonia,
                            pipeline,
                            which,
                            r.packets_delivered,
                            r.edges_visited,
                            r.ingress_stalled,
                            r.latency.min().expect("delivered"),
                            r.latency.max().expect("delivered"),
                            r.latency.mean_ps(),
                            r.throughput.bytes(),
                            r.throughput.window_ps(),
                        ));
                    }
                }
            }
        }
        assert_eq!(got, RECORDED);
    }

    /// A count whose deadline overflows `Picos` is refused: a wrapped
    /// deadline would end the run early (here after 1 480 packets) with
    /// no error.
    #[test]
    #[should_panic(expected = "overflow the simulated clock")]
    fn deadline_overflow_rejected() {
        let _ = sim().run(64, 686_262_800_361_219);
    }

    #[test]
    #[should_panic(expected = "empty packets are not representable")]
    fn empty_packets_rejected() {
        let _ = sim().run(0, 10);
    }

    #[test]
    #[should_panic(expected = "cannot absorb")]
    fn undersized_role_domain_rejected() {
        let s = DatapathSim::new(MacIp::new(Vendor::Xilinx, 100), Freq::mhz(100), 128);
        let _ = s.run(64, 10);
    }
}
