//! Signal-level interface specifications.
//!
//! Vendor IPs "follow distinct interface protocols (e.g., AXI and Avalon)"
//! (§3.2), and Figure 3b quantifies the disparities between common modules
//! as counts of differing interfaces and configurations. This module
//! describes interfaces at the granularity needed for that analysis — named
//! signals with widths/directions plus configuration parameters — and
//! provides the difference metric.

use std::collections::BTreeMap;
use std::fmt;

/// An interface protocol family.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// AXI4-Stream (Xilinx streaming).
    Axi4Stream,
    /// Full AXI4 memory-mapped.
    Axi4MemoryMapped,
    /// AXI4-Lite (control registers).
    Axi4Lite,
    /// Avalon Streaming (Intel).
    AvalonStreaming,
    /// Avalon Memory-Mapped (Intel).
    AvalonMemoryMapped,
    /// A proprietary or IP-specific interface.
    Proprietary,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Protocol::Axi4Stream => "AXI4-Stream",
            Protocol::Axi4MemoryMapped => "AXI4-MM",
            Protocol::Axi4Lite => "AXI4-Lite",
            Protocol::AvalonStreaming => "Avalon-ST",
            Protocol::AvalonMemoryMapped => "Avalon-MM",
            Protocol::Proprietary => "proprietary",
        };
        f.write_str(s)
    }
}

/// Direction of a signal from the IP's perspective.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SignalDir {
    /// Input to the IP.
    In,
    /// Output from the IP.
    Out,
    /// Bidirectional (e.g. DDR DQ pins).
    InOut,
}

/// One named signal of an interface.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SignalSpec {
    /// Signal name, e.g. `s_axis_tdata`.
    pub name: String,
    /// Bit width.
    pub width: u32,
    /// Direction.
    pub dir: SignalDir,
}

impl SignalSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, width: u32, dir: SignalDir) -> Self {
        SignalSpec {
            name: name.into(),
            width,
            dir,
        }
    }
}

/// A configuration parameter exposed by a vendor IP (generics, GUI options,
/// constraint attributes).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ConfigParam {
    /// Parameter name.
    pub name: String,
    /// Default value as text.
    pub default: String,
}

impl ConfigParam {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, default: impl Into<String>) -> Self {
        ConfigParam {
            name: name.into(),
            default: default.into(),
        }
    }
}

/// A complete interface description of one module: protocol, signals and
/// configuration parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterfaceSpec {
    name: String,
    protocol: Protocol,
    signals: Vec<SignalSpec>,
    configs: Vec<ConfigParam>,
}

impl InterfaceSpec {
    /// Creates an interface spec.
    pub fn new(name: impl Into<String>, protocol: Protocol) -> Self {
        InterfaceSpec {
            name: name.into(),
            protocol,
            signals: Vec::new(),
            configs: Vec::new(),
        }
    }

    /// Adds a signal (builder style).
    pub(crate) fn signal(mut self, name: impl Into<String>, width: u32, dir: SignalDir) -> Self {
        self.signals.push(SignalSpec::new(name, width, dir));
        self
    }

    /// Adds several indexed signals `prefix0..prefixN-1`.
    pub(crate) fn signal_array(
        mut self,
        prefix: &str,
        count: u32,
        width: u32,
        dir: SignalDir,
    ) -> Self {
        for i in 0..count {
            self.signals
                .push(SignalSpec::new(format!("{prefix}{i}"), width, dir));
        }
        self
    }

    /// Adds a configuration parameter (builder style).
    pub(crate) fn config(mut self, name: impl Into<String>, default: impl Into<String>) -> Self {
        self.configs.push(ConfigParam::new(name, default));
        self
    }

    /// Interface name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The signal list.
    pub fn signals(&self) -> &[SignalSpec] {
        &self.signals
    }

    /// The configuration parameters.
    pub fn configs(&self) -> &[ConfigParam] {
        &self.configs
    }

    /// Number of interface signals.
    #[cfg(test)]
    fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Computes the property differences between two specs — the Figure 3b
    /// metric. A signal counts as different when it exists on only one side
    /// or exists on both with a different width or direction; likewise for
    /// configuration parameters (by name / default value).
    pub fn diff(&self, other: &InterfaceSpec) -> InterfaceDiff {
        let mine: BTreeMap<&str, (u32, SignalDir)> = self
            .signals
            .iter()
            .map(|s| (s.name.as_str(), (s.width, s.dir)))
            .collect();
        let theirs: BTreeMap<&str, (u32, SignalDir)> = other
            .signals
            .iter()
            .map(|s| (s.name.as_str(), (s.width, s.dir)))
            .collect();
        let mut interface = 0usize;
        for (name, props) in &mine {
            match theirs.get(name) {
                None => interface += 1,
                Some(p) if p != props => interface += 1,
                _ => {}
            }
        }
        interface += theirs.keys().filter(|k| !mine.contains_key(*k)).count();

        let mcfg: BTreeMap<&str, &str> = self
            .configs
            .iter()
            .map(|c| (c.name.as_str(), c.default.as_str()))
            .collect();
        let tcfg: BTreeMap<&str, &str> = other
            .configs
            .iter()
            .map(|c| (c.name.as_str(), c.default.as_str()))
            .collect();
        let mut configuration = 0usize;
        for (name, val) in &mcfg {
            match tcfg.get(name) {
                None => configuration += 1,
                Some(v) if v != val => configuration += 1,
                _ => {}
            }
        }
        configuration += tcfg.keys().filter(|k| !mcfg.contains_key(*k)).count();

        InterfaceDiff {
            interface,
            configuration,
        }
    }
}

impl fmt::Display for InterfaceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: {} signals, {} configs",
            self.name,
            self.protocol,
            self.signals.len(),
            self.configs.len()
        )
    }
}

/// Property-difference counts between two interface specs (Figure 3b bars).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InterfaceDiff {
    /// Number of differing interface signals.
    pub interface: usize,
    /// Number of differing configuration parameters.
    pub configuration: usize,
}

impl InterfaceDiff {
    /// Total differing properties.
    pub fn total(&self) -> usize {
        self.interface + self.configuration
    }
}

/// Canonical AXI4-Stream signal set at a given data width.
pub(crate) fn axi4_stream(name: &str, width_bits: u32) -> InterfaceSpec {
    InterfaceSpec::new(name, Protocol::Axi4Stream)
        .signal("tdata", width_bits, SignalDir::Out)
        .signal("tkeep", width_bits / 8, SignalDir::Out)
        .signal("tvalid", 1, SignalDir::Out)
        .signal("tready", 1, SignalDir::In)
        .signal("tlast", 1, SignalDir::Out)
        .signal("tuser", 1, SignalDir::Out)
}

/// Canonical Avalon-ST signal set at a given data width.
pub(crate) fn avalon_st(name: &str, width_bits: u32) -> InterfaceSpec {
    InterfaceSpec::new(name, Protocol::AvalonStreaming)
        .signal("data", width_bits, SignalDir::Out)
        .signal("valid", 1, SignalDir::Out)
        .signal("ready", 1, SignalDir::In)
        .signal("startofpacket", 1, SignalDir::Out)
        .signal("endofpacket", 1, SignalDir::Out)
        .signal("empty", (width_bits / 8).ilog2(), SignalDir::Out)
        .signal("error", 1, SignalDir::Out)
        .signal("channel", 1, SignalDir::Out)
}

/// Canonical AXI4 memory-mapped signal set (read+write channels).
pub(crate) fn axi4_mm(name: &str, data_bits: u32, addr_bits: u32) -> InterfaceSpec {
    InterfaceSpec::new(name, Protocol::Axi4MemoryMapped)
        .signal("awaddr", addr_bits, SignalDir::Out)
        .signal("awlen", 8, SignalDir::Out)
        .signal("awsize", 3, SignalDir::Out)
        .signal("awburst", 2, SignalDir::Out)
        .signal("awvalid", 1, SignalDir::Out)
        .signal("awready", 1, SignalDir::In)
        .signal("wdata", data_bits, SignalDir::Out)
        .signal("wstrb", data_bits / 8, SignalDir::Out)
        .signal("wlast", 1, SignalDir::Out)
        .signal("wvalid", 1, SignalDir::Out)
        .signal("wready", 1, SignalDir::In)
        .signal("bresp", 2, SignalDir::In)
        .signal("bvalid", 1, SignalDir::In)
        .signal("bready", 1, SignalDir::Out)
        .signal("araddr", addr_bits, SignalDir::Out)
        .signal("arlen", 8, SignalDir::Out)
        .signal("arsize", 3, SignalDir::Out)
        .signal("arburst", 2, SignalDir::Out)
        .signal("arvalid", 1, SignalDir::Out)
        .signal("arready", 1, SignalDir::In)
        .signal("rdata", data_bits, SignalDir::In)
        .signal("rresp", 2, SignalDir::In)
        .signal("rlast", 1, SignalDir::In)
        .signal("rvalid", 1, SignalDir::In)
        .signal("rready", 1, SignalDir::Out)
}

/// Canonical Avalon memory-mapped signal set.
pub(crate) fn avalon_mm(name: &str, data_bits: u32, addr_bits: u32) -> InterfaceSpec {
    InterfaceSpec::new(name, Protocol::AvalonMemoryMapped)
        .signal("address", addr_bits, SignalDir::Out)
        .signal("read", 1, SignalDir::Out)
        .signal("readdata", data_bits, SignalDir::In)
        .signal("readdatavalid", 1, SignalDir::In)
        .signal("write", 1, SignalDir::Out)
        .signal("writedata", data_bits, SignalDir::Out)
        .signal("byteenable", data_bits / 8, SignalDir::Out)
        .signal("burstcount", 8, SignalDir::Out)
        .signal("waitrequest", 1, SignalDir::In)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_of_identical_specs_is_zero() {
        let a = axi4_stream("s", 512);
        assert_eq!(a.diff(&a), InterfaceDiff::default());
    }

    #[test]
    fn diff_counts_missing_and_changed_signals() {
        let a = InterfaceSpec::new("a", Protocol::Proprietary)
            .signal("x", 8, SignalDir::In)
            .signal("y", 8, SignalDir::In);
        let b = InterfaceSpec::new("b", Protocol::Proprietary)
            .signal("x", 16, SignalDir::In) // width changed
            .signal("z", 8, SignalDir::In); // y missing, z extra
        let d = a.diff(&b);
        assert_eq!(d.interface, 3); // x changed + y only-left + z only-right
    }

    #[test]
    fn diff_counts_config_changes() {
        let a = InterfaceSpec::new("a", Protocol::Proprietary)
            .config("SPEED", "100G")
            .config("FEC", "rs544");
        let b = InterfaceSpec::new("b", Protocol::Proprietary)
            .config("SPEED", "100G")
            .config("FEC", "none")
            .config("LANES", "4");
        let d = a.diff(&b);
        assert_eq!(d.configuration, 2); // FEC changed + LANES extra
        assert_eq!(d.total(), 2);
    }

    #[test]
    fn axi_and_avalon_streams_differ_substantially() {
        let d = axi4_stream("tx", 512).diff(&avalon_st("tx", 512));
        // No shared signal names at all.
        assert_eq!(d.interface, 6 + 8);
    }

    #[test]
    fn canonical_mm_interfaces_have_expected_shape() {
        assert_eq!(axi4_mm("m", 512, 34).signal_count(), 25);
        assert_eq!(avalon_mm("m", 512, 34).signal_count(), 9);
    }

    #[test]
    fn signal_array_builder() {
        let s = InterfaceSpec::new("clk", Protocol::Proprietary).signal_array(
            "refclk",
            4,
            1,
            SignalDir::In,
        );
        assert_eq!(s.signal_count(), 4);
        assert_eq!(s.signals()[3].name, "refclk3");
    }

    #[test]
    fn display_mentions_counts() {
        let s = axi4_stream("rx", 256).to_string();
        assert!(s.contains("6 signals"));
    }
}
