//! Harmonia's platform-specific layer (§3.2).
//!
//! This layer "acts as a unifying bridge, ensuring seamless migration of
//! upper layers across heterogeneous FPGA platforms". It has two halves:
//!
//! * **Automated platform adapters** ([`adapter`]) — a [`DeviceAdapter`]
//!   managing hardware-resource configurations (a *static* group of
//!   inherent chip/peripheral properties configured once, and a *dynamic*
//!   group of logic↔device mapping constraints like I/O pins and clock
//!   assignments), and a [`VendorAdapter`] structuring vendor deployment
//!   dependencies (CAD tools, IP catalogs, packaging formats) as key-value
//!   pairs with rigid version inspection;
//! * **Lightweight interface wrappers** ([`wrapper`]) — converting
//!   vendor-native interfaces (AXI4, Avalon) into the six unified types
//!   (`clock`, `reset`, `stream`, `mem map`, `reg`, `irq`) with fully
//!   pipelined width conversion that adds a few fixed cycles of latency and
//!   no throughput bubbles.

pub mod adapter;
pub mod unified;
pub mod wrapper;

pub use adapter::device::{DeviceAdapter, DynamicMapping, MappingError, StaticResourceConfig};
pub use adapter::vendor::{CompatError, ModuleDeps, VendorAdapter, Version};
pub use unified::{UnifiedPort, UnifiedPortKind};
pub use wrapper::{InterfaceWrapper, WidthConverter};
