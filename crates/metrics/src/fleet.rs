//! Cloud FPGA fleet evolution model (Figure 3c).
//!
//! §2.2 motivates heterogeneity with three facts: servers live ≥4 years,
//! new FPGA devices arrive every 1–2 years, and deployment volume grows.
//! This model derives Figure 3c's two curves — new FPGA devices introduced
//! per year and the total (coexisting) fleet — from those assumptions
//! instead of hard-coding the chart.

use std::fmt;

/// A device model introduced into the fleet.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Introduction {
    year: u32,
    /// Units deployed in each year of this model's deployment window.
    yearly_units: u32,
    /// How many years this model keeps being deployed before a successor
    /// replaces it in new rollouts.
    deploy_years: u32,
}

/// Fleet evolution simulator.
#[derive(Clone, Debug)]
pub struct FleetModel {
    start_year: u32,
    /// Hardware lifecycle: units retire this many years after deployment.
    lifecycle_years: u32,
    introductions: Vec<Introduction>,
}

/// One simulated year of the fleet.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FleetYear {
    /// Calendar year.
    pub year: u32,
    /// Distinct new device models introduced this year.
    pub new_models: u32,
    /// Units deployed this year.
    pub new_units: u64,
    /// Units alive at year end (deployed within the lifecycle window).
    pub total_units: u64,
    /// Distinct device models with live units.
    pub live_models: u32,
}

impl FleetModel {
    /// Creates an empty model starting at `start_year` with the given
    /// hardware lifecycle.
    ///
    /// # Panics
    ///
    /// Panics if `lifecycle_years` is zero.
    pub fn new(start_year: u32, lifecycle_years: u32) -> Self {
        assert!(lifecycle_years > 0, "lifecycle must be at least one year");
        FleetModel {
            start_year,
            lifecycle_years,
            introductions: Vec::new(),
        }
    }

    /// Registers a device model introduced in `year`, deployed at
    /// `yearly_units` per year for `deploy_years` years.
    pub fn introduce(&mut self, year: u32, yearly_units: u32, deploy_years: u32) -> &mut Self {
        self.introductions.push(Introduction {
            year,
            yearly_units,
            deploy_years,
        });
        self
    }

    /// The production-like default: growth from 2018 to 2024 with new
    /// models every 1–2 years per acceleration architecture, a 4-year
    /// lifecycle, and unit volumes growing into the tens of thousands —
    /// matching the paper's "tens of thousands of FPGA accelerators".
    pub fn douyin_like() -> Self {
        let mut m = FleetModel::new(2018, 4);
        // (intro year, units/yr, deploy years) per architecture generation.
        m.introduce(2018, 800, 2) // first SmartNIC generation
            .introduce(2019, 1_200, 2) // sec-gateway boards
            .introduce(2020, 2_000, 2) // 100G SmartNIC gen2
            .introduce(2020, 1_000, 2) // retrieval (HBM) boards
            .introduce(2021, 2_500, 2) // in-house VU9P boards
            .introduce(2021, 1_500, 2) // storage offload boards
            .introduce(2022, 3_500, 2) // Agilex in-house gen
            .introduce(2022, 2_000, 2) // Intel commercial cards
            .introduce(2023, 4_500, 2) // 200G boards
            .introduce(2023, 2_500, 2) // compute cards
            .introduce(2024, 6_000, 2) // 400G boards
            .introduce(2024, 3_000, 2); // next-gen retrieval
        m
    }

    /// One simulated year. Pure in `year`, so years can be computed in
    /// any order — or concurrently.
    pub(crate) fn year(&self, year: u32) -> FleetYear {
        let new_models = self.introductions.iter().filter(|i| i.year == year).count() as u32;
        let deployed_in = |y: u32| -> u64 {
            self.introductions
                .iter()
                .filter(|i| y >= i.year && y < i.year + i.deploy_years)
                .map(|i| u64::from(i.yearly_units))
                .sum()
        };
        let new_units = deployed_in(year);
        let oldest_alive = year.saturating_sub(self.lifecycle_years - 1);
        let total_units: u64 = (oldest_alive..=year).map(deployed_in).sum();
        let live_models = self
            .introductions
            .iter()
            .filter(|i| {
                // Any deployment year within the lifecycle window?
                let last_deploy = i.year + i.deploy_years - 1;
                last_deploy >= oldest_alive && i.year <= year
            })
            .count() as u32;
        FleetYear {
            year,
            new_models,
            new_units,
            total_units,
            live_models,
        }
    }

    /// Simulates through `end_year` inclusive, one [`FleetYear`] per year
    /// in order.
    ///
    /// ```
    /// use harmonia_metrics::fleet::FleetModel;
    ///
    /// let mut model = FleetModel::new(2020, 4);
    /// model.introduce(2020, 1_000, 2).introduce(2022, 2_000, 2);
    /// let years = model.run(2023);
    /// assert_eq!(years.len(), 4); // 2020..=2023, in order
    /// assert_eq!(years[0].new_units, 1_000);
    /// // 2023: gen-1 aged out of deployment, gen-2 still rolling out;
    /// // everything deployed since 2020 is within the 4-year lifecycle.
    /// assert_eq!(years[3].new_units, 2_000);
    /// assert_eq!(years[3].total_units, 6_000);
    /// ```
    pub fn run(&self, end_year: u32) -> Vec<FleetYear> {
        (self.start_year..=end_year)
            .map(|year| self.year(year))
            .collect()
    }

    /// Fleet-wide aggregation over the simulated window: a fold of the
    /// per-year summaries with [`FleetSummary::merge`].
    pub fn summarize(&self, end_year: u32) -> FleetSummary {
        (self.start_year..=end_year)
            .map(|year| FleetSummary::of(&self.year(year)))
            .reduce(FleetSummary::merge)
            .unwrap_or_default()
    }

    /// Publishes the window aggregate into a metrics registry as
    /// `harmonia_fleet_*` gauges, plus one `harmonia_fleet_total_units`
    /// gauge per simulated year (labelled by `year`), and returns the
    /// summary it published.
    ///
    /// The published aggregate is the one `FleetModel::summarize`
    /// returns.
    pub fn publish_metrics(
        &self,
        end_year: u32,
        metrics: &harmonia_sim::MetricsRegistry,
    ) -> FleetSummary {
        let s = self.summarize(end_year);
        metrics.gauge_set("harmonia_fleet_peak_units", &[], s.peak_units);
        metrics.gauge_set("harmonia_fleet_peak_year", &[], u64::from(s.peak_year));
        metrics.gauge_set("harmonia_fleet_unit_years", &[], s.unit_years);
        metrics.gauge_set("harmonia_fleet_units_deployed", &[], s.units_deployed);
        metrics.gauge_set(
            "harmonia_fleet_max_live_models",
            &[],
            u64::from(s.max_live_models),
        );
        for y in self.run(end_year) {
            metrics.gauge_set(
                "harmonia_fleet_total_units",
                &[("year", &y.year.to_string())],
                y.total_units,
            );
        }
        s
    }
}

/// Fleet-wide aggregate of a simulated window (Figure 3c's headline
/// numbers: how big the fleet peaks and how heterogeneous it gets).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetSummary {
    /// Years aggregated.
    pub years: u32,
    /// Largest year-end fleet across the window.
    pub peak_units: u64,
    /// Year of `peak_units` (earliest on ties).
    pub peak_year: u32,
    /// Sum of year-end unit counts (unit-years of operation).
    pub unit_years: u64,
    /// Total units deployed across the window.
    pub units_deployed: u64,
    /// Most device models live at once.
    pub max_live_models: u32,
}

impl FleetSummary {
    /// The single-year summary `FleetModel::summarize` reduces over.
    pub(crate) fn of(y: &FleetYear) -> Self {
        FleetSummary {
            years: 1,
            peak_units: y.total_units,
            peak_year: y.year,
            unit_years: y.total_units,
            units_deployed: y.new_units,
            max_live_models: y.live_models,
        }
    }

    /// Merges two summaries. Commutative and associative (peak ties
    /// resolve to the earlier year), so a parallel reduce yields the
    /// same result in any merge order.
    pub fn merge(a: Self, b: Self) -> Self {
        let (peak_units, peak_year) = match (a.peak_units, b.peak_units) {
            (x, y) if x > y => (a.peak_units, a.peak_year),
            (x, y) if y > x => (b.peak_units, b.peak_year),
            _ => (a.peak_units, a.peak_year.min(b.peak_year)),
        };
        FleetSummary {
            years: a.years + b.years,
            peak_units,
            peak_year,
            unit_years: a.unit_years + b.unit_years,
            units_deployed: a.units_deployed + b.units_deployed,
            max_live_models: a.max_live_models.max(b.max_live_models),
        }
    }
}

impl fmt::Display for FleetYear {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: +{} models, +{} units, {} total ({} live models)",
            self.year, self.new_models, self.new_units, self.total_units, self.live_models
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate_then_lifecycle_retires() {
        let mut m = FleetModel::new(2020, 2);
        m.introduce(2020, 100, 1);
        let years = m.run(2023);
        assert_eq!(years[0].total_units, 100); // 2020
        assert_eq!(years[1].total_units, 100); // 2021 (still alive)
        assert_eq!(years[2].total_units, 0); // 2022 (retired)
    }

    #[test]
    fn multi_year_deployment_windows() {
        let mut m = FleetModel::new(2020, 4);
        m.introduce(2020, 10, 3);
        let years = m.run(2024);
        assert_eq!(years[0].new_units, 10);
        assert_eq!(years[2].new_units, 10);
        assert_eq!(years[3].new_units, 0);
        assert_eq!(years[2].total_units, 30);
    }

    #[test]
    fn douyin_like_fleet_grows_every_year() {
        let years = FleetModel::douyin_like().run(2024);
        let recent: Vec<_> = years.iter().filter(|y| y.year >= 2020).collect();
        for w in recent.windows(2) {
            assert!(
                w[1].total_units >= w[0].total_units,
                "fleet shrank {} → {}",
                w[0].year,
                w[1].year
            );
        }
        let last = recent.last().unwrap();
        assert!(
            last.total_units > 10_000,
            "expected tens of thousands, got {}",
            last.total_units
        );
        assert!(last.live_models >= 6, "heterogeneity too low");
    }

    #[test]
    fn new_model_cadence_is_one_to_two_years() {
        let years = FleetModel::douyin_like().run(2024);
        // At least one new model every year from 2020 on (Figure 3c).
        for y in years.iter().filter(|y| y.year >= 2020) {
            assert!(y.new_models >= 1, "no new models in {}", y.year);
        }
    }

    #[test]
    #[should_panic(expected = "lifecycle")]
    fn zero_lifecycle_rejected() {
        let _ = FleetModel::new(2020, 0);
    }

    #[test]
    fn display_nonempty() {
        let y = FleetModel::douyin_like().run(2020).pop().unwrap();
        assert!(y.to_string().contains("2020"));
    }

    #[test]
    fn summary_matches_serial_fold() {
        let m = FleetModel::douyin_like();
        let years = m.run(2024);
        let serial = years
            .iter()
            .map(FleetSummary::of)
            .fold(FleetSummary::default(), FleetSummary::merge);
        assert_eq!(m.summarize(2024), serial);
        assert_eq!(serial.years, years.len() as u32);
        assert!(serial.peak_units > 10_000);
        assert_eq!(serial.peak_year, 2024);
    }

    #[test]
    fn summary_merge_is_order_independent() {
        let m = FleetModel::douyin_like();
        let per_year: Vec<_> = m.run(2024).iter().map(FleetSummary::of).collect();
        let forward = per_year
            .iter()
            .copied()
            .fold(FleetSummary::default(), FleetSummary::merge);
        let backward = per_year
            .iter()
            .rev()
            .copied()
            .fold(FleetSummary::default(), FleetSummary::merge);
        // Pairwise tree reduce, as a parallel reduce would produce.
        let mut tree = per_year.clone();
        while tree.len() > 1 {
            tree = tree
                .chunks(2)
                .map(|c| {
                    if c.len() == 2 {
                        FleetSummary::merge(c[0], c[1])
                    } else {
                        c[0]
                    }
                })
                .collect();
        }
        assert_eq!(forward, backward);
        assert_eq!(forward, tree[0]);
    }

    #[test]
    fn publish_metrics_mirrors_the_summary() {
        let m = FleetModel::douyin_like();
        let reg = harmonia_sim::MetricsRegistry::enabled();
        let s = m.publish_metrics(2024, &reg);
        assert_eq!(s, m.summarize(2024));
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("harmonia_fleet_peak_units"), s.peak_units);
        assert_eq!(snap.gauge("harmonia_fleet_peak_year"), 2024);
        // One labelled total-units gauge per simulated year.
        let prom = snap.export_prometheus();
        assert!(prom.contains("harmonia_fleet_total_units{year=\"2018\"}"));
        assert!(prom.contains("harmonia_fleet_total_units{year=\"2024\"}"));
    }

    #[test]
    fn publish_metrics_to_disabled_registry_is_a_no_op() {
        let reg = harmonia_sim::MetricsRegistry::disabled();
        let s = FleetModel::douyin_like().publish_metrics(2024, &reg);
        assert!(s.peak_units > 10_000);
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn summary_peak_tie_takes_earlier_year() {
        let a = FleetSummary {
            years: 1,
            peak_units: 500,
            peak_year: 2021,
            unit_years: 500,
            units_deployed: 0,
            max_live_models: 2,
        };
        let b = FleetSummary {
            peak_year: 2019,
            ..a
        };
        assert_eq!(FleetSummary::merge(a, b).peak_year, 2019);
        assert_eq!(FleetSummary::merge(b, a).peak_year, 2019);
    }
}
