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
//! per-edge body (`DatapathRun`) until the last packet is delivered.

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
    pub fn with_role_pipeline(mut self, cycles: u64) -> Self {
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
        let deadline = 4 * run.wire_ps_per_pkt * count + 10_000_000;
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
    mac_width: u32,
    wire_ps_per_pkt: Picos,
    /// Ingress queue of (beat, packet index) the MAC has received off the
    /// wire (fully serialized packets only: store-and-forward MAC).
    ingress: VecDeque<(StreamBeat, u64)>,
    next_ready_pkt: u64,
    fifo: AsyncFifo<(StreamBeat, u64)>,
    converter: WidthConverter,
    /// Tags for packets whose eop has entered the converter, in order.
    conv_tags: VecDeque<u64>,
    role_pipe: Pipeline<u64>,
    delivery_pipe: Pipeline<u64>,
    arrivals: Vec<Picos>,
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
        let wire_ps_per_pkt =
            (u64::from(packet_bytes) + 20) * 8 * 1000 / u64::from(speed_gbps);
        DatapathRun {
            packet_bytes,
            count,
            mac_width,
            wire_ps_per_pkt,
            ingress: VecDeque::new(),
            next_ready_pkt: 0,
            fifo: AsyncFifo::new(64),
            converter: WidthConverter::new(mac_width, user_width_bits),
            conv_tags: VecDeque::new(),
            role_pipe: Pipeline::new(role_pipeline_cycles),
            delivery_pipe: Pipeline::new(wrapper_extra),
            arrivals: Vec::with_capacity(count as usize),
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
            self.arrivals.push(self.next_ready_pkt * self.wire_ps_per_pkt);
            for beat in packet_to_beats(self.packet_bytes, self.mac_width) {
                self.ingress.push_back((beat, self.next_ready_pkt));
            }
            self.next_ready_pkt += 1;
        }
        self.fifo.on_write_edge();
        if let Some(&(beat, tag)) = self.ingress.front() {
            if self.fifo.can_push() {
                self.fifo.try_push((beat, tag)).expect("can_push checked");
                self.ingress.pop_front();
            } else if self.ingress.len() > 256 {
                // Sustained backlog = the path cannot keep line rate.
                self.ingress_stalled = true;
            }
        }
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
        for out in self.converter.drain() {
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
            self.latency.record(exit_ps - self.arrivals[tag as usize]);
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

    #[test]
    #[should_panic(expected = "cannot absorb")]
    fn undersized_role_domain_rejected() {
        let s = DatapathSim::new(MacIp::new(Vendor::Xilinx, 100), Freq::mhz(100), 128);
        let _ = s.run(64, 10);
    }
}
