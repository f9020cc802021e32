//! Command codes and controller identifiers.
//!
//! Figure 9 defines the common commands; the code space is extensible per
//! RBB ("the CommandCode specifies the dedicated control operations defined
//! by each RBB for its operational needs").

use std::fmt;

/// A command's operation code.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum CommandCode {
    /// 0x0000 — read module status.
    ModuleStatusRead,
    /// 0x0001 — write module status/configuration.
    ModuleStatusWrite,
    /// 0x0002 — run the module's full initialization program.
    ModuleInit,
    /// 0x0003 — reset the module.
    ModuleReset,
    /// 0x0004 — write a table entry (filter/flow/policy tables).
    TableWrite,
    /// 0x0005 — read a table entry.
    TableRead,
    /// 0x0006 — read the module's monitoring statistics block.
    StatsRead,
    /// 0x0007 — erase a flash region (board management).
    FlashErase,
    /// 0x0008 — synchronize the hardware time counter.
    TimeSync,
    /// 0x0009 — read board health (temperatures, voltages).
    HealthRead,
    /// 0x000F — negative acknowledgement: the kernel received bytes it
    /// could not decode. The response payload carries a numeric reason
    /// ([`crate::packet::DecodeError::code`]); the driver treats it as a
    /// retryable failure.
    Nack,
    /// An RBB-defined extension code (≥ 0x0010).
    Extension(u16),
}

impl CommandCode {
    /// The 16-bit wire encoding.
    pub fn to_u16(self) -> u16 {
        match self {
            CommandCode::ModuleStatusRead => 0x0000,
            CommandCode::ModuleStatusWrite => 0x0001,
            CommandCode::ModuleInit => 0x0002,
            CommandCode::ModuleReset => 0x0003,
            CommandCode::TableWrite => 0x0004,
            CommandCode::TableRead => 0x0005,
            CommandCode::StatsRead => 0x0006,
            CommandCode::FlashErase => 0x0007,
            CommandCode::TimeSync => 0x0008,
            CommandCode::HealthRead => 0x0009,
            CommandCode::Nack => 0x000F,
            CommandCode::Extension(v) => v,
        }
    }

    /// Decodes a 16-bit wire value.
    pub fn from_u16(v: u16) -> CommandCode {
        match v {
            0x0000 => CommandCode::ModuleStatusRead,
            0x0001 => CommandCode::ModuleStatusWrite,
            0x0002 => CommandCode::ModuleInit,
            0x0003 => CommandCode::ModuleReset,
            0x0004 => CommandCode::TableWrite,
            0x0005 => CommandCode::TableRead,
            0x0006 => CommandCode::StatsRead,
            0x0007 => CommandCode::FlashErase,
            0x0008 => CommandCode::TimeSync,
            0x0009 => CommandCode::HealthRead,
            0x000F => CommandCode::Nack,
            other => CommandCode::Extension(other),
        }
    }
}

impl fmt::Display for CommandCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CommandCode::ModuleStatusRead => "module-status-read",
            CommandCode::ModuleStatusWrite => "module-status-write",
            CommandCode::ModuleInit => "module-init",
            CommandCode::ModuleReset => "module-reset",
            CommandCode::TableWrite => "table-write",
            CommandCode::TableRead => "table-read",
            CommandCode::StatsRead => "stats-read",
            CommandCode::FlashErase => "flash-erase",
            CommandCode::TimeSync => "time-sync",
            CommandCode::HealthRead => "health-read",
            CommandCode::Nack => "nack",
            CommandCode::Extension(v) => return write!(f, "extension({v:#06x})"),
        };
        f.write_str(s)
    }
}

/// Host-side controller types ("the SrcID represents the type of host
/// software controllers"): production servers carry applications, BMCs and
/// standalone tools concurrently, which is why command execution is
/// centralized in hardware.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SrcId {
    /// The user application.
    Application,
    /// The board management controller.
    Bmc,
    /// A standalone operations/control tool.
    CtrlTool,
}

impl SrcId {
    /// 4-bit wire encoding.
    pub fn to_u8(self) -> u8 {
        match self {
            SrcId::Application => 1,
            SrcId::Bmc => 2,
            SrcId::CtrlTool => 3,
        }
    }

    /// Decodes a wire value.
    pub(crate) fn from_u8(v: u8) -> Option<SrcId> {
        match v {
            1 => Some(SrcId::Application),
            2 => Some(SrcId::Bmc),
            3 => Some(SrcId::CtrlTool),
            _ => None,
        }
    }
}

impl fmt::Display for SrcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SrcId::Application => "application",
            SrcId::Bmc => "bmc",
            SrcId::CtrlTool => "ctrl-tool",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_codes_match() {
        assert_eq!(CommandCode::ModuleStatusRead.to_u16(), 0x0000);
        assert_eq!(CommandCode::ModuleStatusWrite.to_u16(), 0x0001);
        assert_eq!(CommandCode::ModuleInit.to_u16(), 0x0002);
        assert_eq!(CommandCode::ModuleReset.to_u16(), 0x0003);
        assert_eq!(CommandCode::TableWrite.to_u16(), 0x0004);
    }

    #[test]
    fn round_trip_all_codes() {
        for v in 0..32u16 {
            assert_eq!(CommandCode::from_u16(v).to_u16(), v);
        }
        assert_eq!(
            CommandCode::from_u16(0x7777),
            CommandCode::Extension(0x7777)
        );
    }

    #[test]
    fn nack_sits_below_the_extension_space() {
        assert_eq!(CommandCode::Nack.to_u16(), 0x000F);
        assert_eq!(CommandCode::from_u16(0x000F), CommandCode::Nack);
        assert_eq!(
            CommandCode::from_u16(0x0010),
            CommandCode::Extension(0x0010)
        );
        assert_eq!(CommandCode::Nack.to_string(), "nack");
    }

    #[test]
    fn src_ids_round_trip() {
        for s in [SrcId::Application, SrcId::Bmc, SrcId::CtrlTool] {
            assert_eq!(SrcId::from_u8(s.to_u8()), Some(s));
        }
        assert_eq!(SrcId::from_u8(0), None);
        assert_eq!(SrcId::from_u8(9), None);
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(CommandCode::TableWrite.to_string(), "table-write");
        assert!(CommandCode::Extension(0x1234).to_string().contains("1234"));
        assert_eq!(SrcId::Bmc.to_string(), "bmc");
    }
}
