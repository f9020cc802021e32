//! Register files and register-operation scripts.
//!
//! Control in the shell–role architecture bottoms out in 32-bit register
//! reads/writes (§3.3.3). Each module instance owns a [`RegisterFile`];
//! software control paths are sequences of [`RegOp`]s. The paper's Figure 3d
//! shows why these sequences are the portability hazard: one shell requires
//! polling a status register before initialization writes, another performs
//! the handshake in hardware — so `harmonia_metrics::lcs_diff` over two
//! scripts counts the operations that change between platforms (the
//! Figure 13 metric).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Register access permissions.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// Read-only (status, counters).
    ReadOnly,
    /// Read-write (configuration).
    ReadWrite,
    /// Write-only / self-clearing (triggers).
    WriteOnly,
}

/// A named 32-bit register.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Register {
    name: String,
    access: Access,
    value: u32,
    reset_value: u32,
}

/// Errors from register-file operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegError {
    /// The address is not mapped.
    Unmapped {
        /// Offending address.
        addr: u32,
    },
    /// Write attempted on a read-only register.
    ReadOnlyWrite {
        /// Offending address.
        addr: u32,
    },
    /// Read attempted on a write-only register.
    WriteOnlyRead {
        /// Offending address.
        addr: u32,
    },
    /// A `WaitStatus` polled out without the expected value appearing.
    WaitTimeout {
        /// Polled address.
        addr: u32,
        /// Mask applied.
        mask: u32,
        /// Expected masked value.
        expect: u32,
    },
}

impl fmt::Display for RegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegError::Unmapped { addr } => write!(f, "unmapped register address {addr:#06x}"),
            RegError::ReadOnlyWrite { addr } => {
                write!(f, "write to read-only register {addr:#06x}")
            }
            RegError::WriteOnlyRead { addr } => {
                write!(f, "read from write-only register {addr:#06x}")
            }
            RegError::WaitTimeout { addr, mask, expect } => write!(
                f,
                "timeout waiting for ({addr:#06x} & {mask:#010x}) == {expect:#010x}"
            ),
        }
    }
}

impl Error for RegError {}

/// A module's 32-bit register space.
///
/// ```
/// use harmonia_hw::{RegisterFile, Access};
/// let mut rf = RegisterFile::new("mac");
/// rf.define(0x00, "ctrl", Access::ReadWrite, 0);
/// rf.write(0x00, 0x1)?;
/// assert_eq!(rf.read(0x00)?, 0x1);
/// # Ok::<(), harmonia_hw::regfile::RegError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct RegisterFile {
    module: String,
    regs: BTreeMap<u32, Register>,
}

impl RegisterFile {
    /// Creates an empty register file for the named module.
    pub fn new(module: impl Into<String>) -> Self {
        RegisterFile {
            module: module.into(),
            ..Default::default()
        }
    }

    /// Defines a register at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is already defined — overlapping register maps
    /// are always a module-description bug.
    pub fn define(&mut self, addr: u32, name: impl Into<String>, access: Access, reset: u32) {
        let reg = Register {
            name: name.into(),
            access,
            value: reset,
            reset_value: reset,
        };
        let prev = self.regs.insert(addr, reg);
        assert!(
            prev.is_none(),
            "register address {addr:#06x} defined twice in {}",
            self.module
        );
    }

    /// Defines a contiguous block of registers `name0..nameN-1` starting at
    /// `base`, 4 bytes apart. Returns the address one past the block.
    pub fn define_block(
        &mut self,
        base: u32,
        prefix: &str,
        count: u32,
        access: Access,
        reset: u32,
    ) -> u32 {
        for i in 0..count {
            self.define(base + 4 * i, format!("{prefix}{i}"), access, reset);
        }
        base + 4 * count
    }

    /// Number of defined registers.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether the file defines no registers.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Names and addresses of all registers, in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> + '_ {
        self.regs.iter().map(|(a, r)| (*a, r.name.as_str()))
    }

    /// Looks up a register's address by name.
    pub fn addr_of(&self, name: &str) -> Option<u32> {
        self.regs
            .iter()
            .find(|(_, r)| r.name == name)
            .map(|(a, _)| *a)
    }

    /// Reads a register.
    ///
    /// # Errors
    ///
    /// [`RegError::Unmapped`] or [`RegError::WriteOnlyRead`].
    pub fn read(&mut self, addr: u32) -> Result<u32, RegError> {
        let reg = self.regs.get(&addr).ok_or(RegError::Unmapped { addr })?;
        if reg.access == Access::WriteOnly {
            return Err(RegError::WriteOnlyRead { addr });
        }
        Ok(reg.value)
    }

    /// Writes a register.
    ///
    /// # Errors
    ///
    /// [`RegError::Unmapped`] or [`RegError::ReadOnlyWrite`].
    pub fn write(&mut self, addr: u32, value: u32) -> Result<(), RegError> {
        let reg = self
            .regs
            .get_mut(&addr)
            .ok_or(RegError::Unmapped { addr })?;
        if reg.access == Access::ReadOnly {
            return Err(RegError::ReadOnlyWrite { addr });
        }
        reg.value = value;
        Ok(())
    }

    /// Hardware-side update: sets a register's value regardless of access
    /// permissions (modules update their own status registers).
    pub fn hw_set(&mut self, addr: u32, value: u32) -> Result<(), RegError> {
        let reg = self
            .regs
            .get_mut(&addr)
            .ok_or(RegError::Unmapped { addr })?;
        reg.value = value;
        Ok(())
    }

    /// Resets all registers to their reset values.
    pub fn reset(&mut self) {
        for reg in self.regs.values_mut() {
            reg.value = reg.reset_value;
        }
    }

    /// Executes one [`RegOp`] against this file.
    ///
    /// `WaitStatus` succeeds immediately if the masked value matches and
    /// otherwise returns [`RegError::WaitTimeout`] — the simulation's
    /// modules set status registers before software polls them.
    ///
    /// # Errors
    ///
    /// Propagates the underlying read/write errors.
    pub fn apply(&mut self, op: &RegOp) -> Result<Option<u32>, RegError> {
        match *op {
            RegOp::Read { addr } => self.read(addr).map(Some),
            RegOp::Write { addr, value } => self.write(addr, value).map(|()| None),
            RegOp::WaitStatus { addr, mask, expect } => {
                let v = self.read(addr)?;
                if v & mask == expect {
                    Ok(Some(v))
                } else {
                    Err(RegError::WaitTimeout { addr, mask, expect })
                }
            }
        }
    }
}

/// One register-level control operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum RegOp {
    /// Read the register at `addr`.
    Read {
        /// Register address.
        addr: u32,
    },
    /// Write `value` to `addr`.
    Write {
        /// Register address.
        addr: u32,
        /// Value to write.
        value: u32,
    },
    /// Poll `addr` until `(value & mask) == expect` (Figure 3d's
    /// "Wait(Reg_read(Stat))" pattern).
    WaitStatus {
        /// Register address.
        addr: u32,
        /// Bit mask.
        mask: u32,
        /// Expected masked value.
        expect: u32,
    },
}

impl fmt::Display for RegOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RegOp::Read { addr } => write!(f, "reg_read({addr:#06x})"),
            RegOp::Write { addr, value } => write!(f, "reg_write({addr:#06x}, {value:#x})"),
            RegOp::WaitStatus { addr, mask, expect } => {
                write!(f, "wait({addr:#06x} & {mask:#x} == {expect:#x})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> RegisterFile {
        let mut rf = RegisterFile::new("test");
        rf.define(0x00, "ctrl", Access::ReadWrite, 0);
        rf.define(0x04, "status", Access::ReadOnly, 0);
        rf.define(0x08, "trigger", Access::WriteOnly, 0);
        rf
    }

    #[test]
    fn read_write_basics() {
        let mut rf = sample_file();
        rf.write(0x00, 7).unwrap();
        assert_eq!(rf.read(0x00).unwrap(), 7);
    }

    #[test]
    fn access_control_enforced() {
        let mut rf = sample_file();
        assert_eq!(
            rf.write(0x04, 1),
            Err(RegError::ReadOnlyWrite { addr: 0x04 })
        );
        assert_eq!(rf.read(0x08), Err(RegError::WriteOnlyRead { addr: 0x08 }));
        assert_eq!(rf.read(0x40), Err(RegError::Unmapped { addr: 0x40 }));
    }

    #[test]
    fn hw_set_bypasses_access() {
        let mut rf = sample_file();
        rf.hw_set(0x04, 0xAB).unwrap();
        assert_eq!(rf.read(0x04).unwrap(), 0xAB);
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_definition_panics() {
        let mut rf = sample_file();
        rf.define(0x00, "dup", Access::ReadWrite, 0);
    }

    #[test]
    fn define_block_and_lookup() {
        let mut rf = RegisterFile::new("m");
        let next = rf.define_block(0x100, "stat_", 4, Access::ReadOnly, 0);
        assert_eq!(next, 0x110);
        assert_eq!(rf.len(), 4);
        assert_eq!(rf.addr_of("stat_2"), Some(0x108));
    }

    #[test]
    fn reset_restores_values() {
        let mut rf = sample_file();
        rf.write(0x00, 99).unwrap();
        rf.reset();
        assert_eq!(rf.read(0x00).unwrap(), 0);
    }

    #[test]
    fn apply_wait_status() {
        let mut rf = sample_file();
        rf.hw_set(0x04, 0b10).unwrap();
        let ok = rf.apply(&RegOp::WaitStatus {
            addr: 0x04,
            mask: 0b10,
            expect: 0b10,
        });
        assert_eq!(ok.unwrap(), Some(0b10));
        let err = rf.apply(&RegOp::WaitStatus {
            addr: 0x04,
            mask: 0b01,
            expect: 0b01,
        });
        assert!(matches!(err, Err(RegError::WaitTimeout { .. })));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            RegOp::Write {
                addr: 0x10,
                value: 0x1
            }
            .to_string(),
            "reg_write(0x0010, 0x1)"
        );
        assert!(RegOp::Read { addr: 0 }.to_string().contains("reg_read"));
    }
}
