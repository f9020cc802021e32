//! Property suite for the diurnal traffic generator: conservation of
//! injected load and seed reproducibility. Counterexample tapes are
//! committed under `tests/regressions/`.

use harmonia_fleet::catalog::standard_catalog;
use harmonia_fleet::traffic::{DiurnalTraffic, JITTER_PPM, PEAK_REQS_PER_USER_PER_TICK};
use harmonia_fleet::TICKS_PER_DAY;
use harmonia_testkit::prelude::*;

forall! {
    /// Conservation: the per-role command split always sums to the
    /// exact fan-out of the tick's requests — the integer split loses
    /// nothing — and the jittered request count stays inside the ±1 %
    /// band around the diurnal baseline.
    #[test]
    fn tick_load_conserves_the_fanout(
        users in 0u64..3_000_000,
        seed in 0u64..u64::MAX,
        tick in 0u32..TICKS_PER_DAY,
    ) {
        let roles = standard_catalog();
        let load = DiurnalTraffic::new(users, seed).tick_load(tick, &roles);
        // Reconstruct the per-role request split the generator used.
        let mut req_split: Vec<u64> = roles
            .iter()
            .map(|r| load.requests * r.share_ppm / 1_000_000)
            .collect();
        req_split[0] += load.requests - req_split.iter().sum::<u64>();
        let want: u64 = req_split
            .iter()
            .zip(&roles)
            .map(|(&q, r)| q * r.cmds_per_req)
            .sum();
        prop_assert_eq!(load.per_role.iter().sum::<u64>(), want);
        let base =
            users * PEAK_REQS_PER_USER_PER_TICK * DiurnalTraffic::level_per_mille(tick) / 1000;
        let lo = base * (1_000_000 - JITTER_PPM) / 1_000_000;
        let hi = base * (1_000_000 + JITTER_PPM) / 1_000_000;
        prop_assert!(
            load.requests >= lo && load.requests <= hi,
            "requests {} outside jitter band [{lo}, {hi}]",
            load.requests
        );
    }

    /// Seed reproducibility: the whole day is a pure function of
    /// `(users, seed)`, and each schedule entry equals the pure
    /// per-tick function — history never leaks between ticks.
    #[test]
    fn schedule_is_a_pure_function_of_the_seed(
        users in 1u64..2_000_000,
        seed in 0u64..u64::MAX,
    ) {
        let roles = standard_catalog();
        let gen = DiurnalTraffic::new(users, seed);
        let a = gen.schedule(TICKS_PER_DAY, &roles);
        let b = DiurnalTraffic::new(users, seed).schedule(TICKS_PER_DAY, &roles);
        prop_assert_eq!(&a, &b);
        for (t, load) in a.iter().enumerate() {
            prop_assert_eq!(load, &gen.tick_load(t as u32, &roles), "tick {}", t);
        }
    }

    /// The diurnal level is bounded by the curve's trough and peak and
    /// wraps cleanly at the day boundary.
    #[test]
    fn level_is_bounded_and_periodic(tick in 0u32..10 * TICKS_PER_DAY) {
        let level = DiurnalTraffic::level_per_mille(tick);
        prop_assert!((300..=1000).contains(&level), "level {level}");
        prop_assert_eq!(level, DiurnalTraffic::level_per_mille(tick % TICKS_PER_DAY));
    }
}
