//! Pins the exact latency histograms of the benchmark's fleet day: 256
//! devices at seed 7 under best-fit, the first assigned device killed at
//! the peak-hour tick and a 16-device rolling upgrade to shell 2 from
//! tick 100. Every bucket of the fleet histogram and of each role
//! histogram is pinned, with `count`, `sum`, `min` and `max`, so a change
//! to how cohorts are recorded that moves any of them (the Prometheus
//! `_sum` and the mean included) fails here, not only in the benchmark's
//! fingerprint check.

use harmonia_fleet::{FleetController, FleetSpec, PlacementPolicy};
use harmonia_sim::histo::{LogHistogram, BUCKETS};

/// Tick of the peak-hour kill (`harmonia_bench::fleet::KILL_TICK`).
const KILL_TICK: u32 = 252;

/// One histogram's pinned state: its occupied buckets, starting at
/// bucket `first`, and its summary fields.
struct Pin {
    name: &'static str,
    first: usize,
    buckets: &'static [u64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// The fleet histogram, then each role's, in catalog order.
const PINS: [Pin; 7] = [
    Pin {
        name: "fleet",
        first: 33,
        buckets: &[
            1_989, 8_813, 16_770, 39_274, 79_865, 162_910, 331_716, 657_547, 1_309_739, 2_611_416,
            5_230_771, 10_457_867, 20_918_624, 40_889_814, 58_620_996, 15_343_670, 304_840, 94_723,
        ],
        count: 157_081_344,
        sum: 14_803_625_627_014_865_202_357,
        min: 7_621_951_219,
        max: 812_786_842_103_774,
    },
    Pin {
        name: "l4lb",
        first: 34,
        buckets: &[
            3_698, 3_698, 11_106, 18_550, 37_112, 77_898, 155_820, 311_640, 619_570, 1_239_140,
            2_481_990, 4_960_927, 9_611_935, 13_584_126, 2_502_656, 55_911, 25_245,
        ],
        count: 35_701_022,
        sum: 3_237_243_729_799_938_269_344,
        min: 13_157_894_736,
        max: 792_889_473_671_872,
    },
    Pin {
        name: "edge-filter",
        first: 33,
        buckets: &[
            1_989, 1_989, 3_978, 9_957, 17_955, 35_910, 71_820, 143_640, 287_280, 576_756,
            1_151_692, 2_303_384, 4_606_768, 9_077_133, 13_322_058, 3_979_988, 107_967,
        ],
        count: 35_700_264,
        sum: 3_447_503_413_507_357_052_278,
        min: 7_621_951_219,
        max: 507_012_195_108_040,
    },
    Pin {
        name: "sec-gateway",
        first: 34,
        buckets: &[
            3_126, 3_126, 6_263, 12_548, 28_233, 56_466, 112_932, 225_948, 448_888, 901_108,
            1_799_793, 3_600_565, 7_128_895, 10_539_282, 3_647_132, 45_870,
        ],
        count: 28_560_175,
        sum: 2_806_391_916_799_957_307_328,
        min: 15_350_877_192,
        max: 445_910_087_709_960,
    },
    Pin {
        name: "host-network",
        first: 35,
        buckets: &[
            3_700, 7_412, 14_836, 29_696, 59_392, 115_072, 233_856, 464_000, 931_712, 1_859_712,
            3_723_921, 7_325_098, 10_668_514, 3_047_520, 43_434, 32_300,
        ],
        count: 28_560_175,
        sum: 2_743_768_033_273_105_841_970,
        min: 17_543_859_649,
        max: 812_786_842_103_774,
    },
    Pin {
        name: "retrieval",
        first: 37,
        buckets: &[
            9_151, 18_302, 36_572, 73_208, 137_265, 274_530, 549_060, 1_098_120, 2_196_272,
            4_135_397, 5_216_380, 533_621, 1_976,
        ],
        count: 14_279_854,
        sum: 1_154_982_664_266_948_546_269,
        min: 73_170_731_707,
        max: 425_999_999_999_454,
    },
    Pin {
        name: "storage-offload",
        first: 35,
        buckets: &[
            2_268, 4_536, 6_825, 13_657, 29_568, 56_875, 113_750, 227_672, 458_059, 914_868,
            1_830_171, 3_611_356, 5_290_636, 1_632_753, 49_682, 37_178,
        ],
        count: 14_279_854,
        sum: 1_413_735_869_367_558_185_168,
        min: 21_929_824_561,
        max: 759_188_596_488_299,
    },
];

/// All bucket counts, read from the histogram's `Debug` form (the type
/// keeps its buckets private).
fn buckets(h: &LogHistogram) -> Vec<u64> {
    let debug = format!("{h:?}");
    let list = debug
        .split_once("buckets: [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("Debug lists the buckets")
        .0;
    let out: Vec<u64> = list
        .split(", ")
        .map(|n| n.parse().expect("bucket count"))
        .collect();
    assert_eq!(out.len(), BUCKETS);
    out
}

fn check(h: &LogHistogram, pin: &Pin) {
    let mut want = vec![0u64; BUCKETS];
    want[pin.first..pin.first + pin.buckets.len()].copy_from_slice(pin.buckets);
    assert_eq!(buckets(h), want, "{}: buckets", pin.name);
    assert_eq!(h.count(), pin.count, "{}: count", pin.name);
    assert_eq!(h.sum(), pin.sum, "{}: sum", pin.name);
    assert_eq!(h.min(), pin.min, "{}: min", pin.name);
    assert_eq!(h.max(), pin.max, "{}: max", pin.name);
}

#[test]
fn fleet_day_latency_histograms_are_pinned() {
    let spec = FleetSpec::new(256, 7, PlacementPolicy::BestFit);
    let mut fleet = FleetController::new(spec).expect("placement feasible");
    let victim = fleet.assignments()[0].device;
    fleet.kill_device(victim, KILL_TICK);
    fleet.schedule_upgrade(100, 2, 16);
    let report = fleet.run();
    let (fleet_pin, role_pins) = PINS.split_first().expect("fleet pin");
    check(&report.fleet_latency, fleet_pin);
    assert_eq!(report.roles.len(), role_pins.len());
    for (role, pin) in report.roles.iter().zip(role_pins) {
        assert_eq!(role.name, pin.name);
        check(&role.latency, pin);
    }
}
