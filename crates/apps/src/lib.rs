//! The five production FPGA applications of Table 2.
//!
//! | Application | Architecture | Function |
//! |---|---|---|
//! | [`sec_gateway`] | bump-in-the-wire | DCI access control (role spec, datapath) |
//! | [`l4lb`] | bump-in-the-wire | stateful layer-4 load balancing |
//! | [`host_network`] | bump-in-the-wire | network offloading (role spec, datapath) |
//! | [`retrieval`] | look-aside | embedding retrieval (top-K) |
//! | [`board_test`] | diverse | custom board testing |
//! | [`storage`] | SmartSSD | near-storage compression (role spec; §2.2 scenario) |
//!
//! Each application is what the evaluation reads of it: its
//! [`RoleSpec`](harmonia_shell::RoleSpec) for shell tailoring, its
//! role-side code size (the Figure 3a development workload), and, for the
//! bump-in-the-wire roles, the datapath of the with/without-Harmonia
//! comparison (Figure 17). The load balancer, retrieval engine and board
//! test also run their role logic, which the examples and the
//! integration tests execute.

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
