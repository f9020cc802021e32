//! Storage offload: near-storage compression (SmartSSD scenario).
//!
//! §2.2 motivates heterogeneous FPGAs with storage applications that
//! "incorporate I/O operators like compression, which involve attaching
//! FPGAs directly to SSDs as SmartSSD". The model is the role's shell
//! demands and its role-side code size; the fleet catalog deploys it.

use crate::common::App;
use harmonia_shell::{MemoryDemand, RoleSpec};

/// The near-storage compression application.
#[derive(Copy, Clone, Debug)]
pub struct StorageOffload;

impl App for StorageOffload {
    fn name(&self) -> &'static str {
        "Storage Offload"
    }

    fn role_spec(&self) -> RoleSpec {
        RoleSpec::builder("storage-offload")
            .network_gbps(25) // replication traffic
            .network_ports(1)
            .memory(MemoryDemand::Ddr { channels: 1 }) // history buffers
            .queues(64)
            .build()
    }

    fn role_loc(&self) -> u64 {
        7_200
    }
}
