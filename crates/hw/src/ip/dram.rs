//! Bank-aware DRAM timing model shared by the DDR and HBM controllers.
//!
//! The Memory RBB's ex-functions (address interleaving across bank groups,
//! hot cache) only pay off if the substrate actually models row-buffer
//! locality, bank-group timing and activation limits — so this model tracks
//! an open row per bank, pipelines column commands against the data bus
//! (CAS latency does not consume bus time), charges the same-bank-group
//! burst gap (tCCD_L vs tCCD_S) and enforces the four-activate window
//! (tFAW). That is enough to reproduce the paper's qualitative memory
//! results: sequential ≫ random throughput (Figs 10c, 18c) and the benefit
//! of interleaving (ablation benches).

use harmonia_sim::{FaultInjector, Picos, Probe, TraceEventKind};
use std::collections::VecDeque;

/// One memory operation presented to the controller.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemOp {
    /// Byte address.
    pub addr: u64,
    /// Transfer size in bytes.
    pub bytes: u32,
    /// Whether this is a write (vs read).
    pub is_write: bool,
}

impl MemOp {
    /// A read of `bytes` at `addr`.
    pub fn read(addr: u64, bytes: u32) -> Self {
        MemOp {
            addr,
            bytes,
            is_write: false,
        }
    }

    /// A write of `bytes` at `addr`.
    pub fn write(addr: u64, bytes: u32) -> Self {
        MemOp {
            addr,
            bytes,
            is_write: true,
        }
    }
}

/// Timing parameters of a DRAM channel.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DramTiming {
    /// CAS latency (column command → first data), ps. Pure latency; does
    /// not occupy the data bus.
    pub cas_ps: Picos,
    /// Precharge + activate penalty on a row miss, ps.
    pub row_miss_extra_ps: Picos,
    /// Data-bus time for one burst, ps.
    pub burst_ps: Picos,
    /// Burst length in bytes.
    pub burst_bytes: u32,
    /// Number of banks in the channel.
    pub banks: u32,
    /// Number of bank groups (back-to-back bursts to the *same* group pay
    /// [`same_group_gap_ps`](Self::same_group_gap_ps)).
    pub bank_groups: u32,
    /// Extra bus gap for consecutive bursts to the same bank group, ps.
    pub same_group_gap_ps: Picos,
    /// Read↔write bus turnaround penalty, ps.
    pub turnaround_ps: Picos,
    /// Row (page) size in bytes.
    pub row_bytes: u32,
    /// Four-activate window (tFAW): at most 4 row activations may start in
    /// any window of this many ps.
    pub faw_ps: Picos,
}

impl DramTiming {
    /// DDR4-2400 on a 64-bit channel: 19.2 GB/s peak, 64 B per burst.
    pub fn ddr4_2400() -> Self {
        DramTiming {
            cas_ps: 13_500,
            row_miss_extra_ps: 27_000,
            burst_ps: 3_333, // 64 B / 19.2 GB/s
            burst_bytes: 64,
            banks: 16,
            bank_groups: 4,
            same_group_gap_ps: 1_666,
            turnaround_ps: 7_500,
            row_bytes: 8192,
            faw_ps: 30_000,
        }
    }

    /// DDR3-1600 on a 64-bit channel: 12.8 GB/s peak, no bank groups.
    pub fn ddr3_1600() -> Self {
        DramTiming {
            cas_ps: 13_750,
            row_miss_extra_ps: 27_500,
            burst_ps: 5_000, // 64 B / 12.8 GB/s
            burst_bytes: 64,
            banks: 8,
            bank_groups: 1,
            same_group_gap_ps: 0,
            turnaround_ps: 7_500,
            row_bytes: 8192,
            faw_ps: 40_000,
        }
    }

    /// One HBM2 pseudo-channel: ≈14.4 GB/s, 32 B bursts. An 8 GiB stack
    /// exposes 32 such channels (460 GB/s aggregate).
    pub fn hbm2_channel() -> Self {
        DramTiming {
            cas_ps: 14_000,
            row_miss_extra_ps: 28_000,
            burst_ps: 2_222, // 32 B / 14.4 GB/s
            burst_bytes: 32,
            banks: 16,
            bank_groups: 4,
            same_group_gap_ps: 1_111,
            turnaround_ps: 6_000,
            row_bytes: 2048,
            faw_ps: 30_000,
        }
    }

    /// Theoretical peak bandwidth in GB/s.
    pub fn peak_gbs(&self) -> f64 {
        self.burst_bytes as f64 / (self.burst_ps as f64 / 1e3) // B/ns == GB/s
    }

    /// Latency cost of one corrected ECC hit: scrub the word and replay
    /// the column access (CAS + re-activated row + one burst).
    pub fn ecc_scrub_penalty_ps(&self) -> Picos {
        self.cas_ps + self.row_miss_extra_ps + self.burst_ps
    }
}

/// A single in-order DRAM channel with per-bank open-row state.
///
/// The default physical address mapping interleaves banks on burst
/// granularity (bank-group bits in the low address bits), the mapping
/// production controllers use so that sequential streams alternate bank
/// groups and reach full bandwidth.
#[derive(Clone, Debug)]
pub struct DramModel {
    timing: DramTiming,
    open_rows: Vec<Option<u64>>,
    /// Next time each bank can accept a command.
    bank_cmd_free_ps: Vec<Picos>,
    /// Next time the data bus is free.
    bus_free_ps: Picos,
    last_group: Option<u32>,
    last_was_write: Option<bool>,
    /// Start times of recent row activations, for the tFAW window.
    recent_activates: VecDeque<Picos>,
    hits: u64,
    misses: u64,
    probe: Probe,
}

impl DramModel {
    /// Creates a channel with the given timing.
    pub fn new(timing: DramTiming) -> Self {
        DramModel {
            open_rows: vec![None; timing.banks as usize],
            bank_cmd_free_ps: vec![0; timing.banks as usize],
            bus_free_ps: 0,
            last_group: None,
            last_was_write: None,
            recent_activates: VecDeque::with_capacity(4),
            timing,
            hits: 0,
            misses: 0,
            probe: Probe::disabled(),
        }
    }

    /// Attaches an observability probe: row-buffer conflicts emit
    /// [`TraceEventKind::DramRowConflict`] instants and corrected ECC
    /// hits emit [`TraceEventKind::EccScrub`] spans on its timeline.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The channel's timing parameters.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    fn bank_of(&self, addr: u64) -> u32 {
        ((addr / u64::from(self.timing.burst_bytes)) % u64::from(self.timing.banks)) as u32
    }

    fn row_of(&self, addr: u64) -> u64 {
        addr / (u64::from(self.timing.row_bytes) * u64::from(self.timing.banks))
    }

    fn group_of(&self, bank: u32) -> u32 {
        bank % self.timing.bank_groups
    }

    /// Reserves a slot in the four-activate window at or after `t`; returns
    /// the actual activation time.
    fn reserve_activate(&mut self, mut t: Picos) -> Picos {
        while let Some(&oldest) = self.recent_activates.front() {
            if self.recent_activates.len() < 4 {
                break;
            }
            if t >= oldest + self.timing.faw_ps {
                self.recent_activates.pop_front();
            } else {
                t = oldest + self.timing.faw_ps;
                self.recent_activates.pop_front();
            }
        }
        self.recent_activates.push_back(t);
        t
    }

    /// Issues one operation whose command may start at `issue_ps`; returns
    /// the completion time (last data beat plus CAS latency).
    ///
    /// Pass the enqueue time for latency studies, or a constant 0 to model
    /// a saturated in-order request queue for throughput studies.
    pub fn access(&mut self, issue_ps: Picos, op: MemOp) -> Picos {
        let bank = self.bank_of(op.addr) as usize;
        let row = self.row_of(op.addr);
        let group = self.group_of(bank as u32);

        let mut t = issue_ps.max(self.bank_cmd_free_ps[bank]);
        if self.open_rows[bank] == Some(row) {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.open_rows[bank] = Some(row);
            self.probe
                .trace
                .instant(t, TraceEventKind::DramRowConflict { bank: bank as u32 });
            t = self.reserve_activate(t) + self.timing.row_miss_extra_ps;
        }

        let group_gap = if self.last_group == Some(group) {
            self.timing.same_group_gap_ps
        } else {
            0
        };
        let turnaround = match self.last_was_write {
            Some(w) if w != op.is_write => self.timing.turnaround_ps,
            _ => 0,
        };

        let bursts = u64::from(op.bytes.div_ceil(self.timing.burst_bytes));
        // Data appears CAS after the column command, but the bus is only
        // occupied for the burst itself — commands pipeline underneath.
        let data_start = (t + self.timing.cas_ps).max(self.bus_free_ps + group_gap + turnaround);
        let done = data_start + bursts * self.timing.burst_ps;

        self.bus_free_ps = done;
        // The bank can take its next column command once this burst is on
        // the wire (tCCD spacing is enforced by the bus occupancy).
        self.bank_cmd_free_ps[bank] = data_start - self.timing.cas_ps + self.timing.burst_ps;
        self.last_group = Some(group);
        self.last_was_write = Some(op.is_write);
        done
    }

    /// [`DramModel::access`] through the fault plane: if the injector
    /// fires an ECC hit for this access, completion is delayed by the
    /// scrub-and-replay penalty (the data is corrected, not lost). With
    /// the no-op injector this is exactly `access`.
    pub fn access_with_faults(
        &mut self,
        issue_ps: Picos,
        op: MemOp,
        faults: &FaultInjector,
    ) -> Picos {
        let done = self.access(issue_ps, op);
        if faults.ecc_error(done) {
            let scrubbed = done + self.timing.ecc_scrub_penalty_ps();
            self.bus_free_ps = self.bus_free_ps.max(scrubbed);
            self.probe
                .trace
                .span(done, scrubbed - done, TraceEventKind::EccScrub);
            scrubbed
        } else {
            done
        }
    }

    /// Runs a whole trace as a saturated in-order queue; returns
    /// `(makespan_ps, bytes)`.
    pub fn run_trace<I: IntoIterator<Item = MemOp>>(&mut self, ops: I) -> (Picos, u64) {
        let mut last_done = 0;
        let mut bytes = 0u64;
        for op in ops {
            last_done = self.access(0, op);
            bytes += u64::from(op.bytes);
        }
        (last_done, bytes)
    }

    /// Achieved bandwidth of a trace in GB/s.
    pub fn trace_bandwidth_gbs<I: IntoIterator<Item = MemOp>>(&mut self, ops: I) -> f64 {
        let (ps, bytes) = self.run_trace(ops);
        if ps == 0 {
            return 0.0;
        }
        bytes as f64 / (ps as f64 / 1e3)
    }

    /// The time the data bus is busy until — the channel's "current time"
    /// for back-to-back trace runs.
    pub fn busy_until(&self) -> Picos {
        self.bus_free_ps
    }

    /// Row-buffer hits so far.
    pub fn row_hits(&self) -> u64 {
        self.hits
    }

    /// Row-buffer misses so far.
    pub fn row_misses(&self) -> u64 {
        self.misses
    }

    /// Row-hit ratio in `[0, 1]`; 0 when no accesses occurred.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_bandwidths_match_datasheets() {
        assert!((DramTiming::ddr4_2400().peak_gbs() - 19.2).abs() < 0.1);
        assert!((DramTiming::ddr3_1600().peak_gbs() - 12.8).abs() < 0.1);
        assert!((DramTiming::hbm2_channel().peak_gbs() - 14.4).abs() < 0.1);
    }

    #[test]
    fn busy_until_tracks_bus_occupancy() {
        let mut m = DramModel::new(DramTiming::ddr4_2400());
        assert_eq!(m.busy_until(), 0, "an idle channel's bus is free");
        let done = m.access(0, MemOp::read(0, 64));
        assert!(m.busy_until() > 0, "an access occupies the bus");
        assert!(m.busy_until() <= done, "bus frees when the access retires");
    }

    #[test]
    fn sequential_reads_approach_peak() {
        let mut m = DramModel::new(DramTiming::ddr4_2400());
        let ops = (0..40_000u64).map(|i| MemOp::read(i * 64, 64));
        let bw = m.trace_bandwidth_gbs(ops);
        assert!(bw > 0.85 * 19.2, "sequential bw {bw:.2} GB/s too low");
        assert!(m.hit_ratio() > 0.95);
    }

    #[test]
    fn random_reads_are_much_slower() {
        let mut m = DramModel::new(DramTiming::ddr4_2400());
        // Pseudo-random 64 B reads over 1 GiB: nearly every access opens a
        // new row, so throughput is activation-limited.
        let mut addr = 0x1234_5678u64;
        let ops = (0..20_000u64).map(move |_| {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
            MemOp::read((addr >> 8) % (1 << 30), 64)
        });
        let bw = DramModel::new(DramTiming::ddr4_2400()).trace_bandwidth_gbs(ops.clone());
        let _ = &mut m;
        assert!(
            bw < 0.6 * 19.2,
            "random bw {bw:.2} GB/s unexpectedly close to peak"
        );
        assert!(bw > 1.0, "random bw {bw:.2} GB/s collapsed");
    }

    #[test]
    fn same_bank_row_thrash_is_worst_case() {
        let mut m = DramModel::new(DramTiming::ddr4_2400());
        // Stride keeps the bank fixed and changes the row every access.
        let stride = 8192u64 * 16 * 7;
        let bw = m.trace_bandwidth_gbs((0..5_000u64).map(|i| MemOp::read(i * stride, 64)));
        assert!(bw < 3.0, "row-thrash bw {bw:.2} GB/s too high");
        assert!(m.hit_ratio() < 0.01);
    }

    #[test]
    fn writes_and_reads_cost_the_same_bus_time() {
        let mut mr = DramModel::new(DramTiming::ddr4_2400());
        let mut mw = DramModel::new(DramTiming::ddr4_2400());
        let (pr, _) = mr.run_trace((0..1000u64).map(|i| MemOp::read(i * 64, 64)));
        let (pw, _) = mw.run_trace((0..1000u64).map(|i| MemOp::write(i * 64, 64)));
        assert_eq!(pr, pw);
    }

    #[test]
    fn read_write_interleave_pays_turnaround() {
        let mut alt = DramModel::new(DramTiming::ddr4_2400());
        let (p_alt, _) = alt.run_trace((0..1000u64).map(|i| {
            if i % 2 == 0 {
                MemOp::read(i * 64, 64)
            } else {
                MemOp::write(i * 64, 64)
            }
        }));
        let mut uni = DramModel::new(DramTiming::ddr4_2400());
        let (p_uni, _) = uni.run_trace((0..1000u64).map(|i| MemOp::read(i * 64, 64)));
        assert!(p_alt > p_uni);
    }

    #[test]
    fn larger_bursts_amortize_row_misses() {
        // Random placement: large requests pay one row activation per
        // kilobyte of data, small requests pay one per 64 B.
        let rand_addrs = |n: u64| {
            let mut a = 0x9E37u64;
            (0..n).map(move |_| {
                a = a.wrapping_mul(6364136223846793005).wrapping_add(1);
                (a >> 8) % (1 << 30)
            })
        };
        let mut small = DramModel::new(DramTiming::ddr4_2400());
        let mut large = DramModel::new(DramTiming::ddr4_2400());
        let (ps_s, b_s) = small.run_trace(rand_addrs(4096).map(|a| MemOp::read(a, 64)));
        let (ps_l, b_l) = large.run_trace(rand_addrs(256).map(|a| MemOp::read(a, 1024)));
        assert_eq!(b_s, b_l);
        assert!(ps_l < ps_s, "large {ps_l} ps vs small {ps_s} ps");
    }

    #[test]
    fn bank_state_tracks_hits() {
        let mut m = DramModel::new(DramTiming::ddr4_2400());
        m.access(0, MemOp::read(0, 64));
        // Same bank (16 bursts later), same row → hit.
        m.access(0, MemOp::read(64 * 16, 64));
        assert_eq!(m.row_hits(), 1);
        assert_eq!(m.row_misses(), 1);
    }

    #[test]
    fn completion_times_are_monotonic() {
        let mut m = DramModel::new(DramTiming::hbm2_channel());
        let mut last = 0;
        let mut addr = 7u64;
        for i in 0..1000 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(i);
            let done = m.access(0, MemOp::read(addr % (1 << 30), 64));
            assert!(done >= last);
            last = done;
        }
    }

    #[test]
    fn latency_includes_cas() {
        let mut m = DramModel::new(DramTiming::ddr4_2400());
        let done = m.access(0, MemOp::read(0, 64));
        let t = DramTiming::ddr4_2400();
        assert_eq!(done, t.row_miss_extra_ps + t.cas_ps + t.burst_ps);
    }

    #[test]
    fn faultless_access_is_bit_identical_to_plain() {
        use harmonia_sim::FaultInjector;
        let none = FaultInjector::none();
        let mut plain = DramModel::new(DramTiming::ddr4_2400());
        let mut faulty = DramModel::new(DramTiming::ddr4_2400());
        let mut addr = 3u64;
        for i in 0..500 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(i);
            let op = MemOp::read(addr % (1 << 30), 64);
            assert_eq!(plain.access(0, op), faulty.access_with_faults(0, op, &none));
        }
    }

    #[test]
    fn row_conflicts_and_scrubs_show_on_the_timeline() {
        use harmonia_sim::{FaultKind, FaultPlan, TraceEventKind};
        let probe = Probe::enabled();
        let mut m = DramModel::new(DramTiming::ddr4_2400());
        m.set_probe(probe.clone());
        let inj = FaultPlan::new().at(0, FaultKind::EccError).injector();
        m.access_with_faults(0, MemOp::read(0, 64), &inj); // miss + ECC
        m.access(0, MemOp::read(64 * 16, 64)); // same row → hit, no event
        let trace = probe.trace.take();
        let names: Vec<&str> = trace.events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, vec!["dram-row-conflict", "ecc-scrub"]);
        let scrub = &trace.events()[1];
        assert_eq!(
            scrub.dur,
            DramTiming::ddr4_2400().ecc_scrub_penalty_ps(),
            "scrub span covers the replay penalty"
        );
        assert!(matches!(
            trace.events()[0].kind,
            TraceEventKind::DramRowConflict { bank: 0 }
        ));
    }

    #[test]
    fn scheduled_ecc_hit_pays_scrub_penalty() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let t = DramTiming::ddr4_2400();
        // Fire the ECC event at time 0 so the first completing access eats it.
        let inj = FaultPlan::new().at(0, FaultKind::EccError).injector();
        let mut m = DramModel::new(DramTiming::ddr4_2400());
        let clean = t.row_miss_extra_ps + t.cas_ps + t.burst_ps;
        let done = m.access_with_faults(0, MemOp::read(0, 64), &inj);
        assert_eq!(done, clean + t.ecc_scrub_penalty_ps());
        assert_eq!(inj.report().ecc_errors, 1);
        // The event is one-shot: the next access is clean again.
        let next = m.access_with_faults(done, MemOp::read(0, 64), &inj);
        assert!(next < done + clean + t.ecc_scrub_penalty_ps());
    }
}
