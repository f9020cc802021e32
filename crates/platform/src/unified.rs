//! The unified interface types of the platform-specific layer.
//!
//! §3.2: "along with the basic clock and reset signals, Harmonia provides
//! five basic types: clock, reset, streaming, mem map, and reg", plus the
//! special `irq` type that exposes raw latency-critical signals. Every
//! wrapped module and every RBB speaks these types upward, which is what
//! makes the shell, roles and host software platform-independent.

use std::fmt;

/// The kind of a unified port.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum UnifiedPortKind {
    /// A clock-array entry; modules select entries by index.
    Clock,
    /// A reset-array entry (sync/soft resets included).
    Reset,
    /// Streaming data with start/end-of-stream delimiters.
    Stream {
        /// Data width in bits.
        width_bits: u32,
    },
    /// Memory-mapped data with address + size semantics.
    MemMap {
        /// Data width in bits.
        width_bits: u32,
        /// Address width in bits.
        addr_bits: u32,
    },
    /// 32-bit register control access.
    Reg,
    /// Raw latency-critical signal exposed unwrapped.
    Irq,
}

impl UnifiedPortKind {
    /// Whether this kind carries bulk data (stream or mem-map).
    pub(crate) fn is_data(self) -> bool {
        matches!(
            self,
            UnifiedPortKind::Stream { .. } | UnifiedPortKind::MemMap { .. }
        )
    }

    /// The signals that make up one port of this kind, in Harmonia's
    /// uniform format.
    pub fn signals(self) -> Vec<(&'static str, u32)> {
        match self {
            UnifiedPortKind::Clock => vec![("clk", 1)],
            UnifiedPortKind::Reset => vec![("rst_n", 1)],
            UnifiedPortKind::Stream { width_bits } => vec![
                ("data", width_bits),
                ("keep", width_bits / 8),
                ("valid", 1),
                ("ready", 1),
                ("sos", 1),
                ("eos", 1),
            ],
            UnifiedPortKind::MemMap {
                width_bits,
                addr_bits,
            } => vec![
                ("addr", addr_bits),
                ("size", 16),
                ("wdata", width_bits),
                ("rdata", width_bits),
                ("we", 1),
                ("re", 1),
                ("valid", 1),
                ("ready", 1),
            ],
            UnifiedPortKind::Reg => vec![
                ("addr", 32),
                ("wdata", 32),
                ("rdata", 32),
                ("we", 1),
                ("re", 1),
                ("ack", 1),
            ],
            UnifiedPortKind::Irq => vec![("irq", 1)],
        }
    }
}

impl fmt::Display for UnifiedPortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnifiedPortKind::Clock => write!(f, "clock"),
            UnifiedPortKind::Reset => write!(f, "reset"),
            UnifiedPortKind::Stream { width_bits } => write!(f, "stream[{width_bits}b]"),
            UnifiedPortKind::MemMap { width_bits, .. } => write!(f, "mem-map[{width_bits}b]"),
            UnifiedPortKind::Reg => write!(f, "reg[32b]"),
            UnifiedPortKind::Irq => write!(f, "irq"),
        }
    }
}

/// A named unified port on a wrapped module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnifiedPort {
    /// Port name.
    pub name: String,
    /// Port kind.
    pub kind: UnifiedPortKind,
}

impl UnifiedPort {
    /// Creates a unified port.
    pub fn new(name: impl Into<String>, kind: UnifiedPortKind) -> Self {
        UnifiedPort {
            name: name.into(),
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_signals_carry_delimiters() {
        let sigs = UnifiedPortKind::Stream { width_bits: 512 }.signals();
        let names: Vec<_> = sigs.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"sos") && names.contains(&"eos"));
        assert_eq!(sigs.iter().find(|(n, _)| *n == "data").unwrap().1, 512);
    }

    #[test]
    fn memmap_specifies_addr_and_size() {
        let sigs = UnifiedPortKind::MemMap {
            width_bits: 512,
            addr_bits: 34,
        }
        .signals();
        let names: Vec<_> = sigs.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"addr") && names.contains(&"size"));
    }

    #[test]
    fn reg_is_32_bit() {
        let sigs = UnifiedPortKind::Reg.signals();
        assert_eq!(sigs.iter().find(|(n, _)| *n == "wdata").unwrap().1, 32);
    }

    #[test]
    fn irq_is_raw_single_wire() {
        assert_eq!(UnifiedPortKind::Irq.signals(), vec![("irq", 1)]);
        assert!(!UnifiedPortKind::Irq.is_data());
        assert!(UnifiedPortKind::Stream { width_bits: 64 }.is_data());
    }

    #[test]
    fn same_kind_same_signals_regardless_of_vendor_origin() {
        // The whole point of the unified format: two ports of the same kind
        // have identical specs, so upper layers never see vendor variance.
        let a = UnifiedPort::new("rx", UnifiedPortKind::Stream { width_bits: 512 });
        let b = UnifiedPort::new("rx", UnifiedPortKind::Stream { width_bits: 512 });
        assert_eq!(a.kind.signals(), b.kind.signals());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            UnifiedPortKind::Stream { width_bits: 128 }.to_string(),
            "stream[128b]"
        );
        assert_eq!(UnifiedPortKind::Reg.to_string(), "reg[32b]");
    }
}
