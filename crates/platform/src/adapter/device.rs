//! Device adapters: hardware-resource configuration management.
//!
//! §3.2 separates resource configurations into a **static group** — "all
//! the inherent resource properties of FPGA chips and peripherals (e.g.,
//! channel numbers, virtual functions, etc.), which only need to be
//! configured once and reused anywhere" — and a **dynamic group» of
//! "mapping constraints between the logic and the device, such as I/O pins
//! and clock mappings configured on-demand".

use harmonia_hw::device::{FpgaDevice, Peripheral};
use harmonia_sim::Freq;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// The static resource group: inherent, configure-once properties.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticResourceConfig {
    /// Network channel count (QSFP/DSFP cages).
    pub network_channels: u32,
    /// DDR channel count.
    pub ddr_channels: u32,
    /// HBM pseudo-channel count (0 without HBM).
    pub hbm_channels: u32,
    /// PCIe virtual functions.
    pub virtual_functions: u16,
    /// PCIe generation and lanes, if a host link exists.
    pub pcie: Option<(u8, u8)>,
    /// Board reference clocks, indexable by the dynamic group.
    pub clock_inventory: Vec<Freq>,
    /// User I/O pins available.
    pub io_pins: u32,
}

impl StaticResourceConfig {
    /// Derives the static group from a device description — the automated
    /// part the production flow scripts out of board files.
    pub fn generate(device: &FpgaDevice) -> Self {
        let mut network_channels = 0;
        let mut ddr_channels = 0;
        let mut hbm_channels = 0;
        for p in device.peripherals() {
            match p {
                Peripheral::Qsfp { .. } | Peripheral::Dsfp { .. } => network_channels += 1,
                Peripheral::Ddr { .. } => ddr_channels += 1,
                Peripheral::Hbm { .. } => hbm_channels += 32,
                Peripheral::Pcie { .. } => {}
            }
        }
        StaticResourceConfig {
            network_channels,
            ddr_channels,
            hbm_channels,
            virtual_functions: device.virtual_functions(),
            pcie: device.pcie(),
            clock_inventory: device.clock_sources().to_vec(),
            io_pins: device.io_pins(),
        }
    }
}

/// Errors produced when validating the dynamic group against the device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MappingError {
    /// A logical pin was mapped to a physical pin the device lacks.
    PinOutOfRange {
        /// Logical signal name.
        logical: String,
        /// Requested physical pin.
        pin: u32,
        /// Number of pins the device has.
        available: u32,
    },
    /// Two logical signals were mapped to the same physical pin.
    PinConflict {
        /// First signal.
        a: String,
        /// Second signal.
        b: String,
        /// The contested pin.
        pin: u32,
    },
    /// A clock mapping referenced a non-existent clock-inventory index.
    ClockOutOfRange {
        /// Consumer name.
        consumer: String,
        /// Requested inventory index.
        index: usize,
        /// Inventory size.
        available: usize,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::PinOutOfRange {
                logical,
                pin,
                available,
            } => write!(
                f,
                "signal '{logical}' mapped to pin {pin}, device has {available} pins"
            ),
            MappingError::PinConflict { a, b, pin } => {
                write!(f, "signals '{a}' and '{b}' both mapped to pin {pin}")
            }
            MappingError::ClockOutOfRange {
                consumer,
                index,
                available,
            } => write!(
                f,
                "consumer '{consumer}' references clock {index}, inventory has {available}"
            ),
        }
    }
}

impl Error for MappingError {}

/// The dynamic resource group: on-demand logic↔device mapping constraints.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DynamicMapping {
    pins: BTreeMap<String, u32>,
    clocks: BTreeMap<String, usize>,
}

impl DynamicMapping {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps a logical signal to a physical pin.
    pub fn map_pin(&mut self, logical: impl Into<String>, pin: u32) -> &mut Self {
        self.pins.insert(logical.into(), pin);
        self
    }

    /// Maps a clock consumer to a clock-inventory index.
    pub fn map_clock(&mut self, consumer: impl Into<String>, index: usize) -> &mut Self {
        self.clocks.insert(consumer.into(), index);
        self
    }
}

/// A device adapter: the static group generated from the device plus the
/// user-supplied dynamic group, with rigid validation.
#[derive(Clone, Debug)]
pub struct DeviceAdapter {
    static_cfg: StaticResourceConfig,
    dynamic: DynamicMapping,
}

impl DeviceAdapter {
    /// Generates an adapter for a device with an empty dynamic group.
    pub fn generate(device: &FpgaDevice) -> Self {
        DeviceAdapter {
            static_cfg: StaticResourceConfig::generate(device),
            dynamic: DynamicMapping::new(),
        }
    }

    /// The static resource group.
    #[cfg(test)]
    fn static_config(&self) -> &StaticResourceConfig {
        &self.static_cfg
    }

    /// Mutable access to the dynamic group for on-demand configuration.
    pub fn dynamic_mut(&mut self) -> &mut DynamicMapping {
        &mut self.dynamic
    }

    /// Resolves a consumer's clock, if mapped.
    #[cfg(test)]
    fn clock_for(&self, consumer: &str) -> Option<Freq> {
        let idx = *self.dynamic.clocks.get(consumer)?;
        self.static_cfg.clock_inventory.get(idx).copied()
    }

    /// Validates the dynamic group against the static group: pins in
    /// range and conflict-free, clock indices valid.
    ///
    /// # Errors
    ///
    /// Returns every violation found (not just the first), so deployment
    /// tooling can report them all at once.
    pub fn validate(&self) -> Result<(), Vec<MappingError>> {
        let mut errors = Vec::new();
        let mut seen: BTreeMap<u32, &str> = BTreeMap::new();
        for (logical, &pin) in &self.dynamic.pins {
            if pin >= self.static_cfg.io_pins {
                errors.push(MappingError::PinOutOfRange {
                    logical: logical.clone(),
                    pin,
                    available: self.static_cfg.io_pins,
                });
            }
            if let Some(prev) = seen.insert(pin, logical) {
                errors.push(MappingError::PinConflict {
                    a: prev.to_string(),
                    b: logical.clone(),
                    pin,
                });
            }
        }
        for (consumer, &index) in &self.dynamic.clocks {
            if index >= self.static_cfg.clock_inventory.len() {
                errors.push(MappingError::ClockOutOfRange {
                    consumer: consumer.clone(),
                    index,
                    available: self.static_cfg.clock_inventory.len(),
                });
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;

    #[test]
    fn static_group_generated_from_table2_devices() {
        let a = DeviceAdapter::generate(&catalog::device_a());
        let s = a.static_config();
        assert_eq!(s.network_channels, 2);
        assert_eq!(s.ddr_channels, 1);
        assert_eq!(s.hbm_channels, 32);
        assert_eq!(s.pcie, Some((4, 8)));

        let c = DeviceAdapter::generate(&catalog::device_c());
        assert_eq!(c.static_config().ddr_channels, 0);
        assert_eq!(c.static_config().hbm_channels, 0);
    }

    #[test]
    fn valid_dynamic_mapping_passes() {
        let mut ad = DeviceAdapter::generate(&catalog::device_a());
        ad.dynamic_mut()
            .map_pin("qsfp0_refclk_p", 10)
            .map_pin("qsfp0_refclk_n", 11)
            .map_clock("mac0", 1);
        assert!(ad.validate().is_ok());
        assert_eq!(ad.clock_for("mac0"), Some(Freq::khz(322_265)));
        assert_eq!(ad.clock_for("unmapped"), None);
    }

    #[test]
    fn pin_out_of_range_detected() {
        let mut ad = DeviceAdapter::generate(&catalog::device_a());
        ad.dynamic_mut().map_pin("x", 99_999);
        let errs = ad.validate().unwrap_err();
        assert!(matches!(errs[0], MappingError::PinOutOfRange { .. }));
    }

    #[test]
    fn pin_conflicts_detected() {
        let mut ad = DeviceAdapter::generate(&catalog::device_b());
        ad.dynamic_mut().map_pin("a", 5).map_pin("b", 5);
        let errs = ad.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, MappingError::PinConflict { pin: 5, .. })));
    }

    #[test]
    fn clock_index_validated() {
        let mut ad = DeviceAdapter::generate(&catalog::device_d());
        ad.dynamic_mut().map_clock("dma", 17);
        let errs = ad.validate().unwrap_err();
        assert!(matches!(errs[0], MappingError::ClockOutOfRange { .. }));
    }

    #[test]
    fn all_errors_reported_together() {
        let mut ad = DeviceAdapter::generate(&catalog::device_a());
        ad.dynamic_mut()
            .map_pin("a", 99_999)
            .map_pin("b", 3)
            .map_pin("c", 3)
            .map_clock("m", 42);
        let errs = ad.validate().unwrap_err();
        assert_eq!(errs.len(), 3);
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = MappingError::PinConflict {
            a: "x".into(),
            b: "y".into(),
            pin: 7,
        };
        assert!(e.to_string().contains("pin 7"));
    }
}
