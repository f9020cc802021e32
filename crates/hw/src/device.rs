//! The heterogeneous FPGA device catalog.
//!
//! Table 2 of the paper evaluates four devices with distinct vendors, chip
//! families and peripherals. [`catalog`] reproduces that table; arbitrary
//! additional devices can be described with [`FpgaDevice::builder`].

use crate::resource::ResourceUsage;
use crate::vendor::{ChipFamily, Vendor};
use harmonia_sim::Freq;
use std::fmt;

/// Identifier of a device in the evaluation catalog.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceId {
    /// Device A — Xilinx XCVU35P: HBM, DDR, QSFP×2, PCIe Gen4×8.
    A,
    /// Device B — in-house XCVU9P: DDR×2, QSFP×2, PCIe Gen3×16.
    B,
    /// Device C — in-house Agilex 7: DSFP×2, PCIe Gen4×16.
    C,
    /// Device D — Intel Agilex 7: QSFP×2, PCIe Gen4×16, DDR.
    D,
}

impl DeviceId {
    /// All catalog devices.
    pub const ALL: [DeviceId; 4] = [DeviceId::A, DeviceId::B, DeviceId::C, DeviceId::D];
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceId::A => "Device A",
            DeviceId::B => "Device B",
            DeviceId::C => "Device C",
            DeviceId::D => "Device D",
        };
        f.write_str(s)
    }
}

/// An off-chip peripheral attached to an FPGA card.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Peripheral {
    /// QSFP network cage; the number is the supported line rate in Gbps
    /// (QSFP28 = 100, QSFP56 = 200, QSFP112 = 400).
    Qsfp { gbps: u32 },
    /// DSFP network cage at the given line rate.
    Dsfp { gbps: u32 },
    /// DDR3/DDR4 channel with capacity in GiB; `gen` is 3 or 4.
    Ddr { gen: u8, gib: u32 },
    /// High-bandwidth memory stack with capacity in GiB.
    Hbm { gib: u32 },
    /// PCIe endpoint: generation (3/4/5) and lane count.
    Pcie { gen: u8, lanes: u8 },
}

impl Peripheral {
    /// Whether this peripheral provides a network port.
    pub fn is_network(&self) -> bool {
        matches!(self, Peripheral::Qsfp { .. } | Peripheral::Dsfp { .. })
    }

    /// Whether this peripheral provides external memory.
    #[cfg(test)]
    fn is_memory(&self) -> bool {
        matches!(self, Peripheral::Ddr { .. } | Peripheral::Hbm { .. })
    }
}

impl fmt::Display for Peripheral {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Peripheral::Qsfp { gbps } => write!(f, "QSFP{}G", gbps),
            Peripheral::Dsfp { gbps } => write!(f, "DSFP{}G", gbps),
            Peripheral::Ddr { gen, gib } => write!(f, "DDR{gen}-{gib}GiB"),
            Peripheral::Hbm { gib } => write!(f, "HBM-{gib}GiB"),
            Peripheral::Pcie { gen, lanes } => write!(f, "PCIe Gen{gen}x{lanes}"),
        }
    }
}

/// A concrete FPGA card: chip, resources, peripherals and clocking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FpgaDevice {
    name: String,
    vendor: Vendor,
    family: ChipFamily,
    part: String,
    capacity: ResourceUsage,
    peripherals: Vec<Peripheral>,
    /// Reference clock sources available on the board.
    clock_sources: Vec<Freq>,
    /// Number of PCIe virtual functions the device exposes.
    virtual_functions: u16,
    /// Number of user I/O pins available for constraint mapping.
    io_pins: u32,
}

impl FpgaDevice {
    /// Starts building a device description.
    pub fn builder(name: impl Into<String>) -> FpgaDeviceBuilder {
        FpgaDeviceBuilder {
            name: name.into(),
            vendor: None,
            family: None,
            part: String::new(),
            capacity: ResourceUsage::zero(),
            peripherals: Vec::new(),
            clock_sources: Vec::new(),
            virtual_functions: 4,
            io_pins: 200,
        }
    }

    /// Human-readable device name ("Device A", board code, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Board vendor (may be [`Vendor::InHouse`] on a commercial die).
    pub fn vendor(&self) -> Vendor {
        self.vendor
    }

    /// Silicon family of the die.
    pub fn family(&self) -> ChipFamily {
        self.family
    }

    /// Die vendor — the vendor whose toolchain compiles for this device.
    /// For in-house boards this is the family's vendor, not `InHouse`.
    pub fn die_vendor(&self) -> Vendor {
        self.family.vendor()
    }

    /// Part number (e.g. "XCVU35P").
    pub fn part(&self) -> &str {
        &self.part
    }

    /// Total on-chip resources.
    pub fn capacity(&self) -> &ResourceUsage {
        &self.capacity
    }

    /// Attached peripherals.
    pub fn peripherals(&self) -> &[Peripheral] {
        &self.peripherals
    }

    /// Board reference clocks.
    pub fn clock_sources(&self) -> &[Freq] {
        &self.clock_sources
    }

    /// PCIe virtual functions exposed.
    pub fn virtual_functions(&self) -> u16 {
        self.virtual_functions
    }

    /// User I/O pins available for constraint mapping.
    pub fn io_pins(&self) -> u32 {
        self.io_pins
    }

    /// The device's PCIe endpoint, if present.
    pub fn pcie(&self) -> Option<(u8, u8)> {
        self.peripherals.iter().find_map(|p| match p {
            Peripheral::Pcie { gen, lanes } => Some((*gen, *lanes)),
            _ => None,
        })
    }

    /// Aggregate network bandwidth across all cages, in Gbps.
    pub fn network_gbps(&self) -> u32 {
        self.peripherals
            .iter()
            .map(|p| match p {
                Peripheral::Qsfp { gbps } | Peripheral::Dsfp { gbps } => *gbps,
                _ => 0,
            })
            .sum()
    }

    /// Whether the board has any HBM stack.
    pub fn has_hbm(&self) -> bool {
        self.peripherals
            .iter()
            .any(|p| matches!(p, Peripheral::Hbm { .. }))
    }

    /// Whether the board has any DDR channel.
    pub fn has_ddr(&self) -> bool {
        self.peripherals
            .iter()
            .any(|p| matches!(p, Peripheral::Ddr { .. }))
    }
}

impl fmt::Display for FpgaDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} {})", self.name, self.vendor, self.part)
    }
}

/// Builder for [`FpgaDevice`]; see [`FpgaDevice::builder`].
#[derive(Debug, Clone)]
pub struct FpgaDeviceBuilder {
    name: String,
    vendor: Option<Vendor>,
    family: Option<ChipFamily>,
    part: String,
    capacity: ResourceUsage,
    peripherals: Vec<Peripheral>,
    clock_sources: Vec<Freq>,
    virtual_functions: u16,
    io_pins: u32,
}

impl FpgaDeviceBuilder {
    /// Sets the board vendor.
    pub fn vendor(mut self, vendor: Vendor) -> Self {
        self.vendor = Some(vendor);
        self
    }

    /// Sets the chip family.
    pub fn family(mut self, family: ChipFamily) -> Self {
        self.family = Some(family);
        self
    }

    /// Sets the part number.
    pub fn part(mut self, part: impl Into<String>) -> Self {
        self.part = part.into();
        self
    }

    /// Sets the resource capacity.
    pub fn capacity(mut self, capacity: ResourceUsage) -> Self {
        self.capacity = capacity;
        self
    }

    /// Adds a peripheral.
    pub fn peripheral(mut self, p: Peripheral) -> Self {
        self.peripherals.push(p);
        self
    }

    /// Adds a board reference clock.
    pub fn clock_source(mut self, f: Freq) -> Self {
        self.clock_sources.push(f);
        self
    }

    /// Sets the PCIe virtual-function count.
    pub fn virtual_functions(mut self, vf: u16) -> Self {
        self.virtual_functions = vf;
        self
    }

    /// Sets the user I/O pin count.
    pub fn io_pins(mut self, pins: u32) -> Self {
        self.io_pins = pins;
        self
    }

    /// Finalizes the device.
    ///
    /// # Panics
    ///
    /// Panics if vendor or family were not set, or the capacity is zero —
    /// a device nothing can be placed on is always a description bug.
    pub fn build(self) -> FpgaDevice {
        let vendor = self.vendor.expect("device vendor must be set");
        let family = self.family.expect("device chip family must be set");
        assert!(!self.capacity.is_zero(), "device capacity must be non-zero");
        FpgaDevice {
            name: self.name,
            vendor,
            family,
            part: self.part,
            capacity: self.capacity,
            peripherals: self.peripherals,
            clock_sources: self.clock_sources,
            virtual_functions: self.virtual_functions,
            io_pins: self.io_pins,
        }
    }
}

/// The four-device evaluation catalog of Table 2.
pub mod catalog {
    use super::*;

    /// Device A — Xilinx XCVU35P with HBM, DDR4, 2×QSFP, PCIe Gen4×8.
    ///
    /// Capacity from the Virtex UltraScale+ VU35P datasheet.
    pub fn device_a() -> FpgaDevice {
        FpgaDevice::builder("Device A")
            .vendor(Vendor::Xilinx)
            .family(ChipFamily::VirtexUltraScalePlus)
            .part("XCVU35P")
            .capacity(ResourceUsage::new(872_160, 1_744_320, 1_344, 320, 5_952))
            .peripheral(Peripheral::Hbm { gib: 8 })
            .peripheral(Peripheral::Ddr { gen: 4, gib: 32 })
            .peripheral(Peripheral::Qsfp { gbps: 100 })
            .peripheral(Peripheral::Qsfp { gbps: 100 })
            .peripheral(Peripheral::Pcie { gen: 4, lanes: 8 })
            .clock_source(Freq::mhz(100))
            .clock_source(Freq::khz(322_265))
            .virtual_functions(16)
            .io_pins(416)
            .build()
    }

    /// Device B — in-house board around a Xilinx XCVU9P: 2×DDR4, 2×QSFP,
    /// PCIe Gen3×16.
    pub fn device_b() -> FpgaDevice {
        FpgaDevice::builder("Device B")
            .vendor(Vendor::InHouse)
            .family(ChipFamily::VirtexUltraScalePlus)
            .part("XCVU9P")
            .capacity(ResourceUsage::new(1_182_240, 2_364_480, 2_160, 960, 6_840))
            .peripheral(Peripheral::Ddr { gen: 4, gib: 32 })
            .peripheral(Peripheral::Ddr { gen: 4, gib: 32 })
            .peripheral(Peripheral::Qsfp { gbps: 100 })
            .peripheral(Peripheral::Qsfp { gbps: 100 })
            .peripheral(Peripheral::Pcie { gen: 3, lanes: 16 })
            .clock_source(Freq::mhz(100))
            .clock_source(Freq::mhz(300))
            .virtual_functions(8)
            .io_pins(832)
            .build()
    }

    /// Device C — in-house board around an Intel Agilex 7: 2×DSFP,
    /// PCIe Gen4×16, no external DRAM.
    pub fn device_c() -> FpgaDevice {
        FpgaDevice::builder("Device C")
            .vendor(Vendor::InHouse)
            .family(ChipFamily::Agilex)
            .part("AGF014")
            .capacity(ResourceUsage::new(974_400, 1_948_800, 7_110, 0, 4_510))
            .peripheral(Peripheral::Dsfp { gbps: 200 })
            .peripheral(Peripheral::Dsfp { gbps: 200 })
            .peripheral(Peripheral::Pcie { gen: 4, lanes: 16 })
            .clock_source(Freq::mhz(100))
            .clock_source(Freq::mhz(250))
            .virtual_functions(8)
            .io_pins(624)
            .build()
    }

    /// Device D — Intel Agilex 7 dev card: 2×QSFP, PCIe Gen4×16, DDR4.
    pub fn device_d() -> FpgaDevice {
        FpgaDevice::builder("Device D")
            .vendor(Vendor::Intel)
            .family(ChipFamily::Agilex)
            .part("AGF014")
            .capacity(ResourceUsage::new(974_400, 1_948_800, 7_110, 0, 4_510))
            .peripheral(Peripheral::Qsfp { gbps: 100 })
            .peripheral(Peripheral::Qsfp { gbps: 100 })
            .peripheral(Peripheral::Pcie { gen: 4, lanes: 16 })
            .peripheral(Peripheral::Ddr { gen: 4, gib: 16 })
            .clock_source(Freq::mhz(100))
            .clock_source(Freq::mhz(250))
            .virtual_functions(16)
            .io_pins(624)
            .build()
    }

    /// Device E — a legacy Stratix 10 generation still alive in the fleet
    /// (§2.2: server lifecycles stretch four-plus years, so old
    /// generations coexist with new ones). Not part of Table 2's
    /// evaluation set, but exercised by the multi-generation tests:
    /// 2×25G, PCIe Gen3×8, DDR3.
    pub fn device_e_legacy() -> FpgaDevice {
        FpgaDevice::builder("Device E")
            .vendor(Vendor::Intel)
            .family(ChipFamily::Stratix10)
            .part("1SX280")
            .capacity(ResourceUsage::new(933_120, 1_866_240, 11_721, 0, 5_760))
            .peripheral(Peripheral::Qsfp { gbps: 25 })
            .peripheral(Peripheral::Qsfp { gbps: 25 })
            .peripheral(Peripheral::Pcie { gen: 3, lanes: 8 })
            .peripheral(Peripheral::Ddr { gen: 3, gib: 16 })
            .clock_source(Freq::mhz(100))
            .clock_source(Freq::mhz(125))
            .virtual_functions(4)
            .io_pins(480)
            .build()
    }

    /// Looks a catalog device up by id.
    pub fn device(id: DeviceId) -> FpgaDevice {
        match id {
            DeviceId::A => device_a(),
            DeviceId::B => device_b(),
            DeviceId::C => device_c(),
            DeviceId::D => device_d(),
        }
    }

    /// All four catalog devices.
    pub fn all() -> Vec<FpgaDevice> {
        DeviceId::ALL.iter().map(|&id| device(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table_2() {
        let a = catalog::device_a();
        assert_eq!(a.vendor(), Vendor::Xilinx);
        assert_eq!(a.part(), "XCVU35P");
        assert!(a.has_hbm() && a.has_ddr());
        assert_eq!(a.pcie(), Some((4, 8)));

        let b = catalog::device_b();
        assert_eq!(b.vendor(), Vendor::InHouse);
        assert_eq!(b.die_vendor(), Vendor::Xilinx);
        assert_eq!(b.pcie(), Some((3, 16)));
        assert_eq!(b.peripherals().iter().filter(|p| p.is_memory()).count(), 2);

        let c = catalog::device_c();
        assert_eq!(c.die_vendor(), Vendor::Intel);
        assert!(!c.has_ddr() && !c.has_hbm());
        assert_eq!(c.network_gbps(), 400);

        let d = catalog::device_d();
        assert_eq!(d.vendor(), Vendor::Intel);
        assert!(d.has_ddr());
    }

    #[test]
    fn uram_only_on_xilinx_dice() {
        for dev in catalog::all() {
            if dev.die_vendor() == Vendor::Intel {
                assert_eq!(dev.capacity().uram, 0, "{dev} should not have URAM");
            }
        }
    }

    #[test]
    fn peripheral_categories() {
        assert!(Peripheral::Qsfp { gbps: 100 }.is_network());
        assert!(Peripheral::Hbm { gib: 8 }.is_memory());
        assert!(!Peripheral::Ddr { gen: 4, gib: 16 }.is_network());
    }

    #[test]
    #[should_panic(expected = "vendor must be set")]
    fn builder_requires_vendor() {
        let _ = FpgaDevice::builder("x")
            .family(ChipFamily::Agilex)
            .capacity(ResourceUsage::new(1, 1, 1, 0, 1))
            .build();
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn builder_requires_capacity() {
        let _ = FpgaDevice::builder("x")
            .vendor(Vendor::Intel)
            .family(ChipFamily::Agilex)
            .build();
    }

    #[test]
    fn display_includes_part() {
        let a = catalog::device_a();
        let s = a.to_string();
        assert!(s.contains("XCVU35P") && s.contains("Device A"));
    }

    #[test]
    fn legacy_device_is_an_older_generation() {
        let e = catalog::device_e_legacy();
        assert_eq!(e.family(), ChipFamily::Stratix10);
        assert_eq!(e.network_gbps(), 50);
        assert_eq!(e.pcie(), Some((3, 8)));
        assert!(e
            .peripherals()
            .iter()
            .any(|p| matches!(p, Peripheral::Ddr { gen: 3, .. })));
    }

    #[test]
    fn catalog_lookup_consistent() {
        for id in DeviceId::ALL {
            assert_eq!(catalog::device(id).name(), id.to_string());
        }
        assert_eq!(catalog::all().len(), 4);
    }
}
