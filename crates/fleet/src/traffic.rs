//! Seeded diurnal traffic generation: millions of users, reproducible
//! from the seed alone.
//!
//! The generator models a day of user demand as a 24-point diurnal
//! curve (trough before dawn, evening peak) interpolated per 5-minute
//! tick, with ±1 % seeded jitter. Each tick's load is a *pure function*
//! of `(spec, tick)`, so the whole day is reproducible from the seed
//! alone.

use crate::catalog::RoleClass;
use harmonia_sim::SplitMix64;

/// Hourly demand curve in per-mille of peak: trough of 300 ‰ around
/// 04:00, peak of 1000 ‰ at 21:00 (the classic consumer diurnal).
pub(crate) const DIURNAL_PER_MILLE: [u64; 24] = [
    550, 450, 380, 320, 300, 320, 380, 480, 580, 650, 700, 730, //
    750, 740, 720, 700, 720, 760, 820, 900, 970, 1000, 880, 700,
];

/// Peak per-user request rate: requests per user per tick at the
/// 1000 ‰ point of the diurnal curve.
pub const PEAK_REQS_PER_USER_PER_TICK: u64 = 3;

/// Jitter amplitude in parts-per-million (±1 %).
pub const JITTER_PPM: u64 = 10_000;

/// One tick of generated load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TickLoad {
    /// Tick index within the campaign.
    pub tick: u32,
    /// User requests this tick, before the per-role split.
    pub requests: u64,
    /// Commands per role (catalog order). Sums to the exact command
    /// fan-out of `requests` — nothing is lost to integer splitting.
    pub per_role: Vec<u64>,
}

/// The seeded diurnal traffic generator.
#[derive(Clone, Debug)]
pub struct DiurnalTraffic {
    /// Simulated user count.
    pub users: u64,
    /// Generator seed.
    pub seed: u64,
}

impl DiurnalTraffic {
    /// A generator for `users` users with the given seed.
    pub fn new(users: u64, seed: u64) -> DiurnalTraffic {
        DiurnalTraffic { users, seed }
    }

    /// Demand level at `tick` in per-mille of peak, linearly
    /// interpolated between the hourly curve points (ticks wrap
    /// modulo [`crate::TICKS_PER_DAY`]).
    pub fn level_per_mille(tick: u32) -> u64 {
        let tick = tick % crate::TICKS_PER_DAY;
        let ticks_per_hour = crate::TICKS_PER_DAY / 24; // 12
        let hour = (tick / ticks_per_hour) as usize;
        let frac = u64::from(tick % ticks_per_hour);
        let a = DIURNAL_PER_MILLE[hour];
        let b = DIURNAL_PER_MILLE[(hour + 1) % 24];
        // Linear interpolation in integer arithmetic.
        (a * (u64::from(ticks_per_hour) - frac) + b * frac) / u64::from(ticks_per_hour)
    }

    /// The load of one tick: a pure function of `(self, tick, roles)`.
    ///
    /// Requests = `users × peak_rate × level(tick) / 1000`, jittered by
    /// ±[`JITTER_PPM`] with a per-tick RNG seeded from
    /// `seed ^ tick`, then split across roles by `share_ppm` with the
    /// integer remainder credited to the first role so the split
    /// conserves the total command count exactly.
    pub fn tick_load(&self, tick: u32, roles: &[RoleClass]) -> TickLoad {
        let base = self.users * PEAK_REQS_PER_USER_PER_TICK * Self::level_per_mille(tick) / 1000;
        let mut rng = SplitMix64::new(self.seed ^ (u64::from(tick) << 20) ^ 0x5452_4146);
        let jitter = rng.next_below(2 * JITTER_PPM + 1); // 0 ..= 2%
        let requests = base * (1_000_000 - JITTER_PPM + jitter) / 1_000_000;
        // Split by share, remainder to the first role: the per-role
        // command totals must sum to the exact fan-out.
        let mut per_role: Vec<u64> = roles
            .iter()
            .map(|r| (requests * r.share_ppm / 1_000_000) * r.cmds_per_req)
            .collect();
        let split_reqs: u64 = roles
            .iter()
            .map(|r| requests * r.share_ppm / 1_000_000)
            .sum();
        if let (Some(first), Some(role0)) = (per_role.first_mut(), roles.first()) {
            *first += (requests - split_reqs) * role0.cmds_per_req;
        }
        TickLoad {
            tick,
            requests,
            per_role,
        }
    }

    /// The full schedule for `ticks` ticks, in tick order.
    pub fn schedule(&self, ticks: u32, roles: &[RoleClass]) -> Vec<TickLoad> {
        (0..ticks).map(|t| self.tick_load(t, roles)).collect()
    }

    /// Peak per-tick command demand per role over a schedule — what the
    /// placement scheduler must provision for.
    pub fn peak_per_role(schedule: &[TickLoad], roles: &[RoleClass]) -> Vec<u64> {
        let mut peaks = vec![0u64; roles.len()];
        for load in schedule {
            for (p, &n) in peaks.iter_mut().zip(&load.per_role) {
                *p = (*p).max(n);
            }
        }
        peaks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::standard_catalog;

    #[test]
    fn split_conserves_the_command_fanout() {
        let roles = standard_catalog();
        let gen = DiurnalTraffic::new(1_000_000, 9);
        for tick in [0u32, 17, 100, 287] {
            let load = gen.tick_load(tick, &roles);
            // Expected fan-out: each request goes to exactly one role
            // and fans out by that role's cmds_per_req; reconstruct by
            // re-deriving the per-role request split.
            let reqs: u64 = load.requests;
            let mut req_split: Vec<u64> = roles
                .iter()
                .map(|r| reqs * r.share_ppm / 1_000_000)
                .collect();
            req_split[0] += reqs - req_split.iter().sum::<u64>();
            let want: u64 = req_split
                .iter()
                .zip(&roles)
                .map(|(&q, r)| q * r.cmds_per_req)
                .sum();
            assert_eq!(load.per_role.iter().sum::<u64>(), want, "tick {tick}");
        }
    }

    #[test]
    fn curve_peaks_in_the_evening_and_troughs_before_dawn() {
        let peak = (0..crate::TICKS_PER_DAY)
            .max_by_key(|&t| DiurnalTraffic::level_per_mille(t))
            .unwrap();
        let trough = (0..crate::TICKS_PER_DAY)
            .min_by_key(|&t| DiurnalTraffic::level_per_mille(t))
            .unwrap();
        assert_eq!(peak / 12, 21, "peak hour");
        assert_eq!(trough / 12, 4, "trough hour");
        assert_eq!(DiurnalTraffic::level_per_mille(21 * 12), 1000);
        assert_eq!(DiurnalTraffic::level_per_mille(4 * 12), 300);
    }

    #[test]
    fn schedule_is_reproducible_from_the_seed() {
        let roles = standard_catalog();
        let a = DiurnalTraffic::new(500_000, 3).schedule(crate::TICKS_PER_DAY, &roles);
        let b = DiurnalTraffic::new(500_000, 3).schedule(crate::TICKS_PER_DAY, &roles);
        assert_eq!(a, b);
        let c = DiurnalTraffic::new(500_000, 4).schedule(crate::TICKS_PER_DAY, &roles);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn jitter_stays_within_one_percent() {
        let roles = standard_catalog();
        let gen = DiurnalTraffic::new(2_000_000, 11);
        for tick in 0..crate::TICKS_PER_DAY {
            let base =
                gen.users * PEAK_REQS_PER_USER_PER_TICK * DiurnalTraffic::level_per_mille(tick)
                    / 1000;
            let got = gen.tick_load(tick, &roles).requests;
            let lo = base * (1_000_000 - JITTER_PPM) / 1_000_000;
            let hi = base * (1_000_000 + JITTER_PPM) / 1_000_000;
            assert!(
                got >= lo && got <= hi,
                "tick {tick}: {got} outside [{lo}, {hi}]"
            );
        }
    }
}
