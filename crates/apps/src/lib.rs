//! The five production FPGA applications of Table 2.
//!
//! | Application | Architecture | Function |
//! |---|---|---|
//! | [`sec_gateway`] | bump-in-the-wire | DCI access control |
//! | [`l4lb`] | bump-in-the-wire | stateful layer-4 load balancing |
//! | [`host_network`] | bump-in-the-wire | network offloading (checksum, OVS) |
//! | [`retrieval`] | look-aside | embedding retrieval (top-K) |
//! | [`board_test`] | diverse | custom board testing |
//! | [`storage`] | SmartSSD | near-storage LZ compression (§2.2 scenario) |
//!
//! Each application provides its role logic (actually executed in tests and
//! benches), its [`RoleSpec`](harmonia_shell::RoleSpec) for shell
//! tailoring, its role-side development workload (Figure 3a), and
//! performance models for the with/without-Harmonia comparison
//! (Figure 17).

pub mod board_test;
pub mod common;
pub mod host_network;
pub mod l4lb;
pub mod retrieval;
pub mod sec_gateway;
pub mod storage;

pub use board_test::{BoardTest, TestReport};
pub use common::{App, AppPerf, BitwPath};
pub use host_network::HostNetwork;
pub use l4lb::Layer4Lb;
pub use retrieval::RetrievalEngine;
pub use sec_gateway::SecGateway;
pub use storage::StorageOffload;
