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

use harmonia_sim::{Picos, Probe, TraceCollector, TraceEventKind};

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

/// A divisor fixed at construction. A replay decides once per call whether
/// it divides by [`ShiftMask`] (every divisor it uses is a power of two)
/// or by [`Division`], so the per-op mapping carries no branch on it.
///
/// Address mapping runs once per memory op, and every catalog geometry is
/// a power of two, so the DRAM model and the Memory RBB build their
/// divisors once in their constructors.
#[derive(Copy, Clone, Debug)]
pub struct Divisor {
    d: u64,
    /// `log2(d)` when `d` is a power of two, else 0.
    shift: u32,
}

impl Divisor {
    /// A divisor of `d`. A zero divisor panics on first use, as `/` does.
    pub fn new(d: u64) -> Self {
        Divisor {
            d,
            shift: if d.is_power_of_two() {
                d.trailing_zeros()
            } else {
                0
            },
        }
    }

    /// Whether [`ShiftMask`] may divide by this divisor.
    pub fn is_power_of_two(self) -> bool {
        self.d.is_power_of_two()
    }
}

/// How a replay computes `x / d` and `x % d` for its [`Divisor`]s.
pub trait DivMode {
    /// `x / d`.
    fn div(x: u64, d: Divisor) -> u64;
    /// `x % d`.
    fn rem(x: u64, d: Divisor) -> u64;
}

/// A shift and a mask; only for divisors that are powers of two.
#[derive(Debug)]
pub enum ShiftMask {}

/// A `u64` division; for any non-zero divisor.
#[derive(Debug)]
pub enum Division {}

impl DivMode for ShiftMask {
    #[inline(always)]
    fn div(x: u64, d: Divisor) -> u64 {
        x >> d.shift
    }

    #[inline(always)]
    fn rem(x: u64, d: Divisor) -> u64 {
        x & (d.d - 1)
    }
}

impl DivMode for Division {
    #[inline(always)]
    fn div(x: u64, d: Divisor) -> u64 {
        x / d.d
    }

    #[inline(always)]
    fn rem(x: u64, d: Divisor) -> u64 {
        x % d.d
    }
}

/// A channel's address mapping: burst size, bank count, row span across
/// all banks and bank-group count, as divisors.
#[derive(Copy, Clone, Debug)]
struct Mapping {
    burst: Divisor,
    banks: Divisor,
    row_span: Divisor,
    groups: Divisor,
    /// Every divisor is a power of two, so [`ShiftMask`] maps.
    shifts: bool,
}

impl Mapping {
    fn new(timing: &DramTiming) -> Self {
        let burst = Divisor::new(u64::from(timing.burst_bytes));
        let banks = Divisor::new(u64::from(timing.banks));
        let row_span = Divisor::new(u64::from(timing.row_bytes) * u64::from(timing.banks));
        let groups = Divisor::new(u64::from(timing.bank_groups));
        Mapping {
            shifts: [burst, banks, row_span, groups]
                .iter()
                .all(|d| d.is_power_of_two()),
            burst,
            banks,
            row_span,
            groups,
        }
    }

    #[inline(always)]
    fn bank_of<M: DivMode>(&self, addr: u64) -> u64 {
        M::rem(M::div(addr, self.burst), self.banks)
    }

    #[inline(always)]
    fn row_of<M: DivMode>(&self, addr: u64) -> u64 {
        M::div(addr, self.row_span)
    }

    #[inline(always)]
    fn group_of<M: DivMode>(&self, bank: u64) -> u64 {
        M::rem(bank, self.groups)
    }
}

/// One bank: its open row and the next time it can accept a command.
#[derive(Copy, Clone, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    cmd_free_ps: Picos,
}

/// `last_group` before the first burst: no bank group matches it.
const NO_GROUP: u64 = u64::MAX;
/// `last_dir` before the first burst: `NO_DIR ^ d` is never 1.
const NO_DIR: u64 = 2;

/// `x` when `cond` holds, else 0, without a branch.
#[inline(always)]
fn gate(cond: bool, x: Picos) -> Picos {
    u64::from(cond).wrapping_neg() & x
}

/// A channel's scalar state. A replay copies it into locals, steps every
/// op on the copy and writes it back once.
#[derive(Copy, Clone, Debug)]
struct ChannelRegs {
    /// Next time the data bus is free.
    bus_free_ps: Picos,
    /// Bank group of the last burst, or [`NO_GROUP`].
    last_group: u64,
    /// Direction of the last burst (1 for a write), or [`NO_DIR`].
    last_dir: u64,
    /// The tFAW window over the last four row activations, oldest first:
    /// each one's start plus `faw_ps`. The first is the earliest the next
    /// activation may start (0 until four have run).
    faw_ends: [Picos; 4],
    hits: u64,
    misses: u64,
}

impl ChannelRegs {
    const IDLE: ChannelRegs = ChannelRegs {
        bus_free_ps: 0,
        last_group: NO_GROUP,
        last_dir: NO_DIR,
        faw_ends: [0; 4],
        hits: 0,
        misses: 0,
    };

    /// Reserves a slot in the four-activate window at or after `t`; returns
    /// the actual activation time. The window shifts by one slot, so every
    /// index is a constant and the window can live in registers.
    #[inline(always)]
    fn reserve_activate(&mut self, t: Picos, faw_ps: Picos) -> Picos {
        let [oldest, b, c, d] = self.faw_ends;
        let t = t.max(oldest);
        self.faw_ends = [b, c, d, t + faw_ps];
        t
    }

    /// Issues `op` with its command no earlier than `issue_ps`; returns the
    /// completion time. The one place a channel's timing is computed:
    /// [`DramModel::access`] and [`DramModel::replay`] both run it. With
    /// `TRACE` false, row conflicts never reach `trace`; a replay sets it
    /// once per call from whether a probe is attached.
    #[inline(always)]
    fn step<M: DivMode, const TRACE: bool>(
        &mut self,
        timing: &DramTiming,
        map: &Mapping,
        banks: &mut [Bank],
        trace: &TraceCollector,
        issue_ps: Picos,
        op: MemOp,
    ) -> Picos {
        let bank_no = map.bank_of::<M>(op.addr);
        let row = map.row_of::<M>(op.addr);
        let group = map.group_of::<M>(bank_no);
        let bank = &mut banks[bank_no as usize];

        let mut t = issue_ps.max(bank.cmd_free_ps);
        if bank.open_row == Some(row) {
            self.hits += 1;
        } else {
            self.misses += 1;
            bank.open_row = Some(row);
            if TRACE && trace.is_enabled() {
                trace.instant(
                    t,
                    TraceEventKind::DramRowConflict {
                        bank: bank_no as u32,
                    },
                );
            }
            t = self.reserve_activate(t, timing.faw_ps) + timing.row_miss_extra_ps;
        }

        let dir = u64::from(op.is_write);
        let group_gap = gate(self.last_group == group, timing.same_group_gap_ps);
        let turnaround = gate(self.last_dir ^ dir == 1, timing.turnaround_ps);
        let bursts = M::div(
            u64::from(op.bytes) + u64::from(timing.burst_bytes) - 1,
            map.burst,
        );
        // Data appears CAS after the column command, but the bus is only
        // occupied for the burst itself — commands pipeline underneath.
        let data_start = (t + timing.cas_ps).max(self.bus_free_ps + group_gap + turnaround);
        let done = data_start + bursts * timing.burst_ps;

        self.bus_free_ps = done;
        // The bank can take its next column command once this burst is on
        // the wire (tCCD spacing is enforced by the bus occupancy).
        bank.cmd_free_ps = data_start - timing.cas_ps + timing.burst_ps;
        self.last_group = group;
        self.last_dir = dir;
        done
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
    map: Mapping,
    banks: Vec<Bank>,
    regs: ChannelRegs,
    probe: Probe,
}

impl DramModel {
    /// Creates a channel with the given timing.
    pub fn new(timing: DramTiming) -> Self {
        DramModel {
            map: Mapping::new(&timing),
            banks: vec![Bank::default(); timing.banks as usize],
            regs: ChannelRegs::IDLE,
            timing,
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

    /// Issues one operation whose command may start at `issue_ps`; returns
    /// the completion time (last data beat plus CAS latency).
    ///
    /// Pass the enqueue time for latency studies, or a constant 0 to model
    /// a saturated in-order request queue for throughput studies.
    pub fn access(&mut self, issue_ps: Picos, op: MemOp) -> Picos {
        if self.map.shifts {
            self.access_in::<ShiftMask>(issue_ps, op)
        } else {
            self.access_in::<Division>(issue_ps, op)
        }
    }

    fn access_in<M: DivMode>(&mut self, issue_ps: Picos, op: MemOp) -> Picos {
        let DramModel {
            timing,
            map,
            banks,
            regs,
            probe,
        } = self;
        regs.step::<M, true>(timing, map, banks, &probe.trace, issue_ps, op)
    }

    /// Issues `ops` in order on a saturated queue, as folding
    /// [`access`](Self::access)`(0, op)` over them would; returns the last
    /// completion, which is [`busy_until`](Self::busy_until) afterwards.
    ///
    /// The mapping and whether a probe is attached are decided once for
    /// the slice, and the channel's state is held in locals throughout and
    /// written back once.
    pub fn replay(&mut self, ops: &[MemOp]) -> Picos {
        match (self.map.shifts, self.probe.trace.is_enabled()) {
            (true, false) => self.replay_in::<ShiftMask, false>(ops),
            (true, true) => self.replay_in::<ShiftMask, true>(ops),
            (false, false) => self.replay_in::<Division, false>(ops),
            (false, true) => self.replay_in::<Division, true>(ops),
        }
    }

    fn replay_in<M: DivMode, const TRACE: bool>(&mut self, ops: &[MemOp]) -> Picos {
        let DramModel {
            timing,
            map,
            banks,
            regs,
            probe,
        } = self;
        let banks = banks.as_mut_slice();
        let mut r = *regs;
        for &op in ops {
            r.step::<M, TRACE>(timing, map, banks, &probe.trace, 0, op);
        }
        *regs = r;
        r.bus_free_ps
    }

    /// The time the data bus is busy until — the channel's "current time"
    /// for back-to-back trace runs.
    pub fn busy_until(&self) -> Picos {
        self.regs.bus_free_ps
    }

    /// Row-buffer hits so far.
    pub fn row_hits(&self) -> u64 {
        self.regs.hits
    }

    /// Row-buffer misses so far.
    pub fn row_misses(&self) -> u64 {
        self.regs.misses
    }

    /// Row-hit ratio in `[0, 1]`; 0 when no accesses occurred.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.regs.hits + self.regs.misses;
        if total == 0 {
            0.0
        } else {
            self.regs.hits as f64 / total as f64
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
        /// Both division modes equal `/` and `%`: `Division` for any
        /// non-zero divisor, `ShiftMask` for powers of two.
        #[test]
        fn divisor_matches_division(
            x in any::<u64>(),
            log2 in 0u32..64,
            other in 1u64..=u64::MAX,
            pow2 in any::<bool>(),
        ) {
            let d = if pow2 { 1u64 << log2 } else { other };
            let div = Divisor::new(d);
            prop_assert_eq!(div.is_power_of_two(), d.is_power_of_two());
            prop_assert_eq!(Division::div(x, div), x / d, "{x} / {d}");
            prop_assert_eq!(Division::rem(x, div), x % d, "{x} % {d}");
            if pow2 {
                prop_assert_eq!(ShiftMask::div(x, div), x / d, "{x} >> log2 {d}");
                prop_assert_eq!(ShiftMask::rem(x, div), x % d, "{x} & {d} - 1");
            }
        }

        /// Bank, row and bank-group mapping equal the division mapping on
        /// random addresses, for every geometry, in the mode the channel
        /// picks for it: shifts for the catalog, division for the others.
        #[test]
        fn address_mapping_matches_division(
            addr in any::<u64>(),
            bank in any::<u32>(),
            which in 0usize..5,
        ) {
            let t = mapping_geometries()[which];
            let map = DramModel::new(t).map;
            prop_assert_eq!(map.shifts, which < 3, "geometry {which}");
            let (burst, banks) = (u64::from(t.burst_bytes), u64::from(t.banks));
            let want = (
                (addr / burst) % banks,
                addr / (u64::from(t.row_bytes) * banks),
                u64::from(bank % t.bank_groups),
            );
            let bank = u64::from(bank);
            let got = if map.shifts {
                (map.bank_of::<ShiftMask>(addr), map.row_of::<ShiftMask>(addr), map.group_of::<ShiftMask>(bank))
            } else {
                (map.bank_of::<Division>(addr), map.row_of::<Division>(addr), map.group_of::<Division>(bank))
            };
            prop_assert_eq!(got, want);
        }
    }

    forall! {
        /// `replay` leaves a channel exactly where folding `access` over
        /// the same ops leaves it, for every geometry (the odd ones take
        /// the division path). The ops, of random sizes and directions,
        /// are split into several `replay` calls mixed with single
        /// `access` calls at non-zero issue times; each call's completion,
        /// the bus time, the row counts and, with a probe attached, the
        /// row-conflict events must agree. For tFAW to bind, the addresses
        /// may walk the banks, opening a new row each time, and the ops may
        /// all be short enough (at most 128 bytes) to leave the bus room.
        #[test]
        fn replay_matches_access_fold(
            which in 0usize..5,
            calls in collection::vec(
                (
                    collection::vec((any::<u64>(), 0u32..=4096, any::<bool>()), 0..48),
                    any::<bool>(),
                    1u64..2_000_000,
                ),
                1..8,
            ),
            walk in any::<bool>(),
            short in any::<bool>(),
            probed in any::<bool>(),
        ) {
            let t = mapping_geometries()[which];
            let (mut replayed, mut folded) = (DramModel::new(t), DramModel::new(t));
            let probes = probed.then(|| (Probe::enabled(), Probe::enabled()));
            if let Some((a, b)) = &probes {
                replayed.set_probe(a.clone());
                folded.set_probe(b.clone());
            }
            // One burst plus one row of every bank: the next bank, a new row.
            let walk_stride = u64::from(t.burst_bytes) + u64::from(t.row_bytes) * u64::from(t.banks);
            for (i, (ops, single, issue_ps)) in calls.into_iter().enumerate() {
                let base = ops.first().map_or(0, |op| op.0);
                let ops: Vec<MemOp> = ops
                    .into_iter()
                    .enumerate()
                    .map(|(j, (addr, bytes, is_write))| MemOp {
                        addr: if walk { base.wrapping_add(j as u64 * walk_stride) } else { addr },
                        bytes: if short { bytes % 129 } else { bytes },
                        is_write,
                    })
                    .collect();
                if single {
                    for (j, &op) in ops.iter().enumerate() {
                        let want = folded.access(issue_ps, op);
                        prop_assert_eq!(replayed.access(issue_ps, op), want, "call {i}, op {j}");
                    }
                } else {
                    let start = folded.busy_until();
                    let want = ops.iter().fold(start, |_, &op| folded.access(0, op));
                    prop_assert_eq!(replayed.replay(&ops), want, "call {i}");
                }
                prop_assert_eq!(replayed.busy_until(), folded.busy_until(), "call {i}");
                prop_assert_eq!(replayed.row_hits(), folded.row_hits(), "call {i}");
                prop_assert_eq!(replayed.row_misses(), folded.row_misses(), "call {i}");
            }
            if let Some((a, b)) = probes {
                let (a, b) = (a.trace.take(), b.trace.take());
                prop_assert_eq!(a.len() as u64, replayed.row_misses());
                prop_assert_eq!(a.events(), b.events());
            }
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
            let mut regs = ChannelRegs::IDLE;
            let mut queue = std::collections::VecDeque::new();
            let mut t = 0;
            for (i, step) in steps.into_iter().enumerate() {
                t += step;
                let want = reserve_activate_queue(&mut queue, faw_ps, t);
                prop_assert_eq!(regs.reserve_activate(t, faw_ps), want, "activation {i} at {t}");
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
