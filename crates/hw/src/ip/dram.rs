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

use harmonia_sim::{Picos, Probe, TraceEventKind};

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
}

/// A divisor fixed at construction. `x / d` and `x % d` are a shift and a
/// mask when it is a power of two and a `u64` division otherwise.
///
/// Address mapping runs once per memory op, and every catalog geometry is
/// a power of two, so the DRAM model and the Memory RBB build their
/// divisors once in their constructors.
#[derive(Copy, Clone, Debug)]
pub struct Divisor {
    d: u64,
    /// `log2(d)` when `d` is a power of two.
    shift: Option<u32>,
}

impl Divisor {
    /// A divisor of `d`. A zero divisor panics on first use, as `/` does.
    pub fn new(d: u64) -> Self {
        Divisor {
            d,
            shift: d.is_power_of_two().then(|| d.trailing_zeros()),
        }
    }
}

impl std::ops::Div<Divisor> for u64 {
    type Output = u64;

    #[inline]
    fn div(self, d: Divisor) -> u64 {
        match d.shift {
            Some(s) => self >> s,
            None => self / d.d,
        }
    }
}

impl std::ops::Rem<Divisor> for u64 {
    type Output = u64;

    #[inline]
    fn rem(self, d: Divisor) -> u64 {
        match d.shift {
            Some(_) => self & (d.d - 1),
            None => self % d.d,
        }
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
    /// Address-mapping divisors from `timing`: burst size, bank count,
    /// row span across all banks, bank-group count.
    burst: Divisor,
    banks: Divisor,
    row_span: Divisor,
    groups: Divisor,
    open_rows: Vec<Option<u64>>,
    /// Next time each bank can accept a command.
    bank_cmd_free_ps: Vec<Picos>,
    /// Next time the data bus is free.
    bus_free_ps: Picos,
    last_group: Option<u32>,
    last_was_write: Option<bool>,
    /// The tFAW window as a ring over the last four row activations:
    /// slot `faw_next` holds the oldest one's start plus `faw_ps`, the
    /// earliest the next activation may start (0 until four have run).
    faw_ends: [Picos; 4],
    faw_next: usize,
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
            faw_ends: [0; 4],
            faw_next: 0,
            burst: Divisor::new(u64::from(timing.burst_bytes)),
            banks: Divisor::new(u64::from(timing.banks)),
            row_span: Divisor::new(u64::from(timing.row_bytes) * u64::from(timing.banks)),
            groups: Divisor::new(u64::from(timing.bank_groups)),
            timing,
            hits: 0,
            misses: 0,
            probe: Probe::disabled(),
        }
    }

    /// Attaches an observability probe: row-buffer conflicts emit
    /// [`TraceEventKind::DramRowConflict`] instants on its timeline.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The channel's timing parameters.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    fn bank_of(&self, addr: u64) -> u32 {
        ((addr / self.burst) % self.banks) as u32
    }

    fn row_of(&self, addr: u64) -> u64 {
        addr / self.row_span
    }

    fn group_of(&self, bank: u32) -> u32 {
        (u64::from(bank) % self.groups) as u32
    }

    /// Reserves a slot in the four-activate window at or after `t`; returns
    /// the actual activation time.
    fn reserve_activate(&mut self, t: Picos) -> Picos {
        let t = t.max(self.faw_ends[self.faw_next]);
        self.faw_ends[self.faw_next] = t + self.timing.faw_ps;
        self.faw_next = (self.faw_next + 1) % 4;
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

        let bursts = (u64::from(op.bytes) + u64::from(self.timing.burst_bytes) - 1) / self.burst;
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
    use harmonia_testkit::prelude::*;

    /// The catalog timings, whose divisors are all powers of two, and two
    /// geometries whose divisors are not (12 banks in 3 groups, 3000-byte
    /// rows, then also 48-byte bursts), which must take the division path.
    fn mapping_geometries() -> [DramTiming; 5] {
        let odd = DramTiming {
            banks: 12,
            bank_groups: 3,
            row_bytes: 3000,
            ..DramTiming::ddr4_2400()
        };
        [
            DramTiming::ddr4_2400(),
            DramTiming::ddr3_1600(),
            DramTiming::hbm2_channel(),
            odd,
            DramTiming {
                burst_bytes: 48,
                ..odd
            },
        ]
    }

    /// Folds `access(0, op)` over `ops`, a saturated in-order queue:
    /// `(last completion, bytes)`.
    fn replay(m: &mut DramModel, ops: impl IntoIterator<Item = MemOp>) -> (Picos, u64) {
        ops.into_iter().fold((0, 0), |(_, bytes), op| {
            (m.access(0, op), bytes + u64::from(op.bytes))
        })
    }

    /// The tFAW window as a queue of activation start times, as the model
    /// kept it before the ring: the oracle for `reserve_activate`.
    fn reserve_activate_queue(
        recent: &mut std::collections::VecDeque<Picos>,
        faw_ps: Picos,
        mut t: Picos,
    ) -> Picos {
        while let Some(&oldest) = recent.front() {
            if recent.len() < 4 {
                break;
            }
            if t >= oldest + faw_ps {
                recent.pop_front();
            } else {
                t = oldest + faw_ps;
                recent.pop_front();
            }
        }
        recent.push_back(t);
        t
    }

    /// Achieved bandwidth of [`replay`] in GB/s.
    fn bandwidth_gbs(m: &mut DramModel, ops: impl IntoIterator<Item = MemOp>) -> f64 {
        let (ps, bytes) = replay(m, ops);
        bytes as f64 / (ps as f64 / 1e3)
    }

    forall! {
        /// `Divisor` equals `/` and `%` for powers of two and for any other
        /// non-zero divisor.
        #[test]
        fn divisor_matches_division(
            x in any::<u64>(),
            log2 in 0u32..64,
            other in 1u64..=u64::MAX,
            pow2 in any::<bool>(),
        ) {
            let d = if pow2 { 1u64 << log2 } else { other };
            let div = Divisor::new(d);
            prop_assert_eq!(x / div, x / d, "{x} / {d}");
            prop_assert_eq!(x % div, x % d, "{x} % {d}");
        }

        /// Bank, row and bank-group mapping equal the division mapping on
        /// random addresses, for every geometry.
        #[test]
        fn address_mapping_matches_division(
            addr in any::<u64>(),
            bank in any::<u32>(),
            which in 0usize..5,
        ) {
            let t = mapping_geometries()[which];
            let m = DramModel::new(t);
            let (burst, banks) = (u64::from(t.burst_bytes), u64::from(t.banks));
            prop_assert_eq!(m.bank_of(addr), ((addr / burst) % banks) as u32);
            prop_assert_eq!(m.row_of(addr), addr / (u64::from(t.row_bytes) * banks));
            prop_assert_eq!(m.group_of(bank), bank % t.bank_groups);
        }
    }

    forall! {
        /// The tFAW ring grants every activation the same start time as
        /// the queue it replaced, for random non-decreasing request times
        /// and random window lengths.
        #[test]
        fn faw_ring_matches_queue(
            faw_ps in 0u64..100_000,
            steps in collection::vec(0u64..40_000, 0..64),
        ) {
            let mut m = DramModel::new(DramTiming { faw_ps, ..DramTiming::ddr4_2400() });
            let mut queue = std::collections::VecDeque::new();
            let mut t = 0;
            for (i, step) in steps.into_iter().enumerate() {
                t += step;
                let want = reserve_activate_queue(&mut queue, faw_ps, t);
                prop_assert_eq!(m.reserve_activate(t), want, "activation {i} at {t}");
            }
        }
    }

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
        let bw = bandwidth_gbs(&mut m, ops);
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
        let bw = bandwidth_gbs(&mut m, ops);
        assert!(
            m.hit_ratio() < 0.01,
            "random reads hit an open row {:.4} of the time",
            m.hit_ratio()
        );
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
        let bw = bandwidth_gbs(&mut m, (0..5_000u64).map(|i| MemOp::read(i * stride, 64)));
        assert!(bw < 3.0, "row-thrash bw {bw:.2} GB/s too high");
        assert!(m.hit_ratio() < 0.01);
    }

    #[test]
    fn writes_and_reads_cost_the_same_bus_time() {
        let mut mr = DramModel::new(DramTiming::ddr4_2400());
        let mut mw = DramModel::new(DramTiming::ddr4_2400());
        let (pr, _) = replay(&mut mr, (0..1000u64).map(|i| MemOp::read(i * 64, 64)));
        let (pw, _) = replay(&mut mw, (0..1000u64).map(|i| MemOp::write(i * 64, 64)));
        assert_eq!(pr, pw);
    }

    #[test]
    fn read_write_interleave_pays_turnaround() {
        let mut alt = DramModel::new(DramTiming::ddr4_2400());
        let (p_alt, _) = replay(
            &mut alt,
            (0..1000u64).map(|i| {
                if i % 2 == 0 {
                    MemOp::read(i * 64, 64)
                } else {
                    MemOp::write(i * 64, 64)
                }
            }),
        );
        let mut uni = DramModel::new(DramTiming::ddr4_2400());
        let (p_uni, _) = replay(&mut uni, (0..1000u64).map(|i| MemOp::read(i * 64, 64)));
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
        let (ps_s, b_s) = replay(&mut small, rand_addrs(4096).map(|a| MemOp::read(a, 64)));
        let (ps_l, b_l) = replay(&mut large, rand_addrs(256).map(|a| MemOp::read(a, 1024)));
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
}
