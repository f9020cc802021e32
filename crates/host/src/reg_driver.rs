//! The legacy register-interface driver.
//!
//! Commercial frameworks expose register read/write to user applications
//! (§2.3); the host software therefore owns, per platform, the full
//! register program: board bring-up, every module's vendor init sequence
//! (rebased into the unified address space the driver maps), table loads
//! and monitoring reads. All of it changes when the platform changes —
//! which is precisely what Figure 13 and Table 4 quantify against the
//! command interface.

use harmonia_hw::device::{FpgaDevice, Peripheral};
use harmonia_hw::regfile::RegOp;
use harmonia_shell::rbb::{Rbb, RbbKind};
use harmonia_shell::TailoredShell;

/// Number of packet-filter table entries a typical application loads.
pub(crate) const FILTER_TABLE_LOADS: u32 = 24;
/// Queue contexts programmed per 64 advertised queues.
pub(crate) const QUEUE_SETUPS_PER_64: u32 = 1;
/// Maximum queue contexts the driver programs directly.
pub(crate) const MAX_QUEUE_SETUPS: u32 = 8;

/// Stateless script generator for the register interface.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegisterDriver;

impl RegisterDriver {
    /// Address-space stride between modules in the driver's unified
    /// mapping. Module bases depend on composition order, so adding or
    /// removing one module rebases everything after it — a major source of
    /// cross-platform modifications.
    pub(crate) const MODULE_STRIDE: u32 = 0x1_0000;

    fn rebase(ops: impl IntoIterator<Item = RegOp>, base: u32) -> Vec<RegOp> {
        ops.into_iter()
            .map(|op| match op {
                RegOp::Read { addr } => RegOp::Read { addr: addr + base },
                RegOp::Write { addr, value } => RegOp::Write {
                    addr: addr + base,
                    value,
                },
                RegOp::WaitStatus { addr, mask, expect } => RegOp::WaitStatus {
                    addr: addr + base,
                    mask,
                    expect,
                },
            })
            .collect()
    }

    /// Board bring-up: clocks, cage/GT lanes, PCIe and DRAM PHY presence.
    /// Derived entirely from the device description — every board differs.
    pub(crate) fn board_prologue(device: &FpgaDevice) -> Vec<RegOp> {
        let mut ops = Vec::new();
        // Clock tree programming: two ops per board reference clock.
        for (i, clk) in device.clock_sources().iter().enumerate() {
            let addr = 0xF000 + 8 * i as u32;
            ops.push(RegOp::Write {
                addr,
                value: (clk.hz() / 1_000_000) as u32,
            });
            ops.push(RegOp::Write {
                addr: addr + 4,
                value: 0x1,
            });
        }
        // Cage/GT bring-up: two ops per 25G lane, values carry the speed.
        for (i, p) in device.peripherals().iter().enumerate() {
            let base = 0xF100 + 0x40 * i as u32;
            match *p {
                Peripheral::Qsfp { gbps } | Peripheral::Dsfp { gbps } => {
                    for lane in 0..gbps / 25 {
                        ops.push(RegOp::Write {
                            addr: base + 8 * lane,
                            value: gbps,
                        });
                        ops.push(RegOp::Write {
                            addr: base + 8 * lane + 4,
                            value: 0x1,
                        });
                    }
                }
                Peripheral::Pcie { gen, lanes } => {
                    ops.push(RegOp::Write {
                        addr: base,
                        value: u32::from(gen),
                    });
                    ops.push(RegOp::Write {
                        addr: base + 4,
                        value: u32::from(lanes),
                    });
                    ops.push(RegOp::WaitStatus {
                        addr: base + 8,
                        mask: 1,
                        expect: 1,
                    });
                }
                Peripheral::Ddr { gen, gib } => {
                    ops.push(RegOp::Write {
                        addr: base,
                        value: u32::from(gen),
                    });
                    ops.push(RegOp::Write {
                        addr: base + 4,
                        value: gib,
                    });
                }
                Peripheral::Hbm { gib } => {
                    ops.push(RegOp::Write {
                        addr: base,
                        value: gib,
                    });
                    ops.push(RegOp::WaitStatus {
                        addr: base + 4,
                        mask: 1,
                        expect: 1,
                    });
                }
            }
        }
        ops
    }

    /// The Network RBB's initialization program at a module base: vendor
    /// MAC init, ex-function control, filter-table load. 115 operations for
    /// a 100G Xilinx-class instance — the Table 4 row.
    pub fn network_init_ops(rbb: &dyn Rbb, base: u32) -> Vec<RegOp> {
        debug_assert_eq!(rbb.kind(), RbbKind::Network);
        let mut ops = Self::rebase(rbb.instance().init_sequence(), base);
        // Ex-function control (RBB register space sits above the IP's).
        let rbb_base = base + 0x8000;
        for (addr, value) in [(0x000u32, 1u32), (0x004, 0), (0x008, 1)] {
            ops.push(RegOp::Write {
                addr: rbb_base + addr,
                value,
            });
        }
        // Filter-table load: 4 ops per entry.
        for entry in 0..FILTER_TABLE_LOADS {
            ops.push(RegOp::Write {
                addr: rbb_base + 0x010,
                value: entry,
            });
            ops.push(RegOp::Write {
                addr: rbb_base + 0x014,
                value: 0x0200_0000 + entry,
            });
            ops.push(RegOp::Write {
                addr: rbb_base + 0x018,
                value: 0x1122,
            });
            ops.push(RegOp::Write {
                addr: rbb_base + 0x01C,
                value: 0x1,
            });
        }
        ops
    }

    /// The Memory RBB's initialization program.
    pub(crate) fn memory_init_ops(rbb: &dyn Rbb, base: u32) -> Vec<RegOp> {
        debug_assert_eq!(rbb.kind(), RbbKind::Memory);
        let mut ops = Self::rebase(rbb.instance().init_sequence(), base);
        let rbb_base = base + 0x8000;
        ops.push(RegOp::Write {
            addr: rbb_base,
            value: 1,
        }); // interleave on
        ops.push(RegOp::Write {
            addr: rbb_base + 4,
            value: 1,
        }); // cache on
        ops
    }

    /// The Host RBB's configuration program: vendor DMA init plus direct
    /// queue-context setup. 60 operations for a Gen4 Xilinx-class instance
    /// — the Table 4 row.
    pub fn host_config_ops(rbb: &dyn Rbb, base: u32) -> Vec<RegOp> {
        debug_assert_eq!(rbb.kind(), RbbKind::Host);
        let mut ops = Self::rebase(rbb.instance().init_sequence(), base);
        let rbb_base = base + 0x8000;
        let setups = rbb
            .host_queue_hint()
            .map(|q| (u32::from(q) / 64 * QUEUE_SETUPS_PER_64).clamp(1, MAX_QUEUE_SETUPS))
            .unwrap_or(3);
        for q in 0..setups {
            for (off, value) in [
                (0x004u32, q),            // queue_sel
                (0x00C, 0x1000_0000 + q), // ring_base_lo
                (0x010, 0),               // ring_base_hi
                (0x014, 512),             // ring_size
            ] {
                ops.push(RegOp::Write {
                    addr: rbb_base + off,
                    value,
                });
            }
        }
        ops.push(RegOp::Write {
            addr: rbb_base,
            value: 1,
        }); // dma_ctrl
        ops.push(RegOp::Write {
            addr: rbb_base + 0x01C,
            value: 0x20,
        }); // irq_cfg
        ops
    }

    /// One module's init program dispatched by RBB kind.
    pub(crate) fn module_init_ops(rbb: &dyn Rbb, base: u32) -> Vec<RegOp> {
        match rbb.kind() {
            RbbKind::Network => Self::network_init_ops(rbb, base),
            RbbKind::Memory => Self::memory_init_ops(rbb, base),
            RbbKind::Host => Self::host_config_ops(rbb, base),
        }
    }

    /// The complete initialization script for a shell on a device: board
    /// prologue followed by every module's program at its mapped base.
    pub fn full_init_script(device: &FpgaDevice, shell: &TailoredShell) -> Vec<RegOp> {
        let mut script = Self::board_prologue(device);
        for (idx, rbb) in shell.rbbs().iter().enumerate() {
            let base = Self::MODULE_STRIDE * (idx as u32 + 1);
            script.extend(Self::module_init_ops(rbb.as_ref(), base));
        }
        script
    }

    /// The monitoring script: read every monitor register of every module.
    /// 84 operations for a one-Network/one-Memory/one-Host shell — the
    /// Table 4 row.
    pub fn monitoring_script(shell: &TailoredShell) -> Vec<RegOp> {
        let mut script = Vec::new();
        for (idx, rbb) in shell.rbbs().iter().enumerate() {
            let base = Self::MODULE_STRIDE * (idx as u32 + 1) + 0x8000;
            let rf = rbb.register_file();
            for (addr, name) in rf.iter() {
                if name.starts_with("mon_") {
                    script.push(RegOp::Read { addr: addr + base });
                }
            }
        }
        script
    }

    /// Distinct register addresses a script touches.
    #[cfg(test)]
    fn distinct_registers(script: &[RegOp]) -> usize {
        script
            .iter()
            .map(|op| match *op {
                RegOp::Read { addr }
                | RegOp::Write { addr, .. }
                | RegOp::WaitStatus { addr, .. } => addr,
            })
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;
    use harmonia_shell::{MemoryDemand, RoleSpec, UnifiedShell};

    fn shell_on_a() -> TailoredShell {
        let unified = UnifiedShell::for_device(&catalog::device_a());
        let role = RoleSpec::builder("t")
            .network_gbps(100)
            .network_ports(1)
            .memory(MemoryDemand::Ddr { channels: 1 })
            .queues(192)
            .build();
        TailoredShell::tailor(&unified, &role).unwrap()
    }

    #[test]
    fn table4_network_init_is_115_ops() {
        let shell = shell_on_a();
        let net = shell.rbbs_of(RbbKind::Network).next().unwrap();
        let ops = RegisterDriver::network_init_ops(net, 0x10000);
        assert_eq!(ops.len(), 115);
    }

    #[test]
    fn table4_host_config_is_60_ops() {
        let shell = shell_on_a();
        let host = shell.rbbs_of(RbbKind::Host).next().unwrap();
        let ops = RegisterDriver::host_config_ops(host, 0x30000);
        assert_eq!(ops.len(), 60);
    }

    #[test]
    fn table4_monitoring_is_84_ops() {
        let shell = shell_on_a();
        let ops = RegisterDriver::monitoring_script(&shell);
        assert_eq!(ops.len(), 84);
    }

    #[test]
    fn full_script_covers_all_modules() {
        let shell = shell_on_a();
        let dev = catalog::device_a();
        let script = RegisterDriver::full_init_script(&dev, &shell);
        // prologue + 115 + memory + 60.
        assert!(script.len() > 190, "only {} ops", script.len());
        // Bases keep module programs disjoint.
        assert!(RegisterDriver::distinct_registers(&script) > 40);
    }

    #[test]
    fn prologue_differs_between_boards() {
        let c = RegisterDriver::board_prologue(&catalog::device_c());
        let d = RegisterDriver::board_prologue(&catalog::device_d());
        assert_ne!(c, d);
        // C's 200G cages need twice the lane ops of D's 100G cages.
        assert!(c.len() > d.len() - 8);
    }

    #[test]
    fn rebase_shifts_every_op() {
        let ops = vec![
            RegOp::Read { addr: 4 },
            RegOp::WaitStatus {
                addr: 8,
                mask: 1,
                expect: 1,
            },
        ];
        let shifted = RegisterDriver::rebase(ops, 0x100);
        assert_eq!(shifted[0], RegOp::Read { addr: 0x104 });
        assert!(matches!(shifted[1], RegOp::WaitStatus { addr: 0x108, .. }));
    }
}
