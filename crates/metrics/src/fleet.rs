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
    fn year(&self, year: u32) -> FleetYear {
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
}
