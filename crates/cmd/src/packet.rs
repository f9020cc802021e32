//! The command packet format (Figure 9).
//!
//! Layout, in 32-bit words (all fields big-endian on the wire):
//!
//! ```text
//! word 0:  Version(4) | HdLen(4) | PayloadLen(16) | SrcID(4) | DstID(4)
//! word 1:  RBB ID(8)  | Instance ID(8)            | Command Code(16)
//! word 2:  Options (PCIe/I2C/…)
//! words 3…: Data (PayloadLen−1 words)
//! last word: Checksum
//! ```
//!
//! `HdLen` and `PayloadLen` are measured in 4-byte units "to ensure
//! alignment"; the unified control kernel uses them to find command
//! boundaries in its buffer. The checksum covers every preceding word and
//! "is provided as an error handling".

use crate::codes::{CommandCode, SrcId};
use std::error::Error;
use std::fmt;

/// Protocol version this implementation speaks.
pub(crate) const VERSION: u8 = 1;
/// Options-word flag marking a command as idempotency-tagged: the
/// remaining options bits carry a driver-chosen tag, and the kernel
/// caches the response under `(src, options)` so a *retried* command
/// (the execution succeeded but the completion was lost) replays the
/// cached response instead of executing twice.
pub const IDEMPOTENCY_FLAG: u32 = 0x8000_0000;
/// Header length in 32-bit words.
pub(crate) const HEADER_WORDS: u8 = 3;
/// Maximum data words per packet (bounded by the 16-bit PayloadLen).
pub(crate) const MAX_DATA_WORDS: usize = 1024;

/// A command packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommandPacket {
    /// Protocol version.
    pub version: u8,
    /// Originating controller.
    pub src: SrcId,
    /// Destination id (hardware module class; response packets echo the
    /// request's src here).
    pub dst: u8,
    /// Target RBB id (see `RbbKind::id`).
    pub rbb_id: u8,
    /// Target instance within the RBB.
    pub instance_id: u8,
    /// The operation.
    pub code: CommandCode,
    /// Physical-interface options (PCIe/I2C routing hints).
    pub options: u32,
    /// Command payload.
    pub data: Vec<u32>,
}

impl CommandPacket {
    /// Creates a command with empty payload.
    pub fn new(src: SrcId, rbb_id: u8, instance_id: u8, code: CommandCode) -> Self {
        CommandPacket {
            version: VERSION,
            src,
            dst: 0,
            rbb_id,
            instance_id,
            code,
            options: 0,
            data: Vec::new(),
        }
    }

    /// Builder-style payload assignment.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `MAX_DATA_WORDS`.
    pub fn with_data(mut self, data: Vec<u32>) -> Self {
        assert!(
            data.len() <= MAX_DATA_WORDS,
            "payload of {} words exceeds the maximum {MAX_DATA_WORDS}",
            data.len()
        );
        self.data = data;
        self
    }

    /// Builder-style idempotency tag: sets [`IDEMPOTENCY_FLAG`] plus the
    /// tag in the options word.
    pub fn with_idempotency_tag(mut self, tag: u32) -> Self {
        self.options = IDEMPOTENCY_FLAG | (tag & !IDEMPOTENCY_FLAG);
        self
    }

    /// The idempotency key when the options word carries the flag.
    pub(crate) fn idempotency_key(&self) -> Option<u32> {
        (self.options & IDEMPOTENCY_FLAG != 0).then_some(self.options)
    }

    /// Total encoded size in bytes.
    pub fn wire_bytes(&self) -> usize {
        (usize::from(HEADER_WORDS) + self.data.len() + 1) * 4
    }

    fn header_words(&self) -> [u32; 3] {
        let payload_len = (self.data.len() + 1) as u32; // data + checksum
        let w0 = (u32::from(self.version) << 28)
            | (u32::from(HEADER_WORDS) << 24)
            | (payload_len << 8)
            | (u32::from(self.src.to_u8()) << 4)
            | u32::from(self.dst & 0xF);
        let w1 = (u32::from(self.rbb_id) << 24)
            | (u32::from(self.instance_id) << 16)
            | u32::from(self.code.to_u16());
        [w0, w1, self.options]
    }

    fn checksum_of(words: impl IntoIterator<Item = u32>) -> u32 {
        // Ones'-complement style folding sum, like IP checksums but 32-bit.
        let mut sum: u64 = 0;
        for w in words {
            sum += u64::from(w);
        }
        while sum >> 32 != 0 {
            sum = (sum & 0xFFFF_FFFF) + (sum >> 32);
        }
        !(sum as u32)
    }

    /// Encodes the packet to wire bytes (big-endian words), allocating
    /// only the output.
    pub fn encode(&self) -> Vec<u8> {
        let header = self.header_words();
        let words = header.iter().chain(&self.data).copied();
        let checksum = Self::checksum_of(words.clone());
        let mut out = Vec::with_capacity(self.wire_bytes());
        for w in words.chain([checksum]) {
            out.extend_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Decodes one packet from wire bytes, allocating only the payload.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] describing the malformation.
    pub fn decode(bytes: &[u8]) -> Result<CommandPacket, DecodeError> {
        if !bytes.len().is_multiple_of(4) {
            return Err(DecodeError::Misaligned { len: bytes.len() });
        }
        let words = || {
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
        };
        let n_words = bytes.len() / 4;
        if n_words < usize::from(HEADER_WORDS) + 1 {
            return Err(DecodeError::TooShort { words: n_words });
        }
        let word = |i: usize| {
            let c = &bytes[4 * i..4 * i + 4];
            u32::from_be_bytes([c[0], c[1], c[2], c[3]])
        };
        let w0 = word(0);
        let version = (w0 >> 28) as u8;
        if version != VERSION {
            return Err(DecodeError::BadVersion { version });
        }
        let hd_len = ((w0 >> 24) & 0xF) as u8;
        if hd_len != HEADER_WORDS {
            return Err(DecodeError::BadHeaderLen { hd_len });
        }
        let payload_len = ((w0 >> 8) & 0xFFFF) as usize;
        let expected_words = usize::from(hd_len) + payload_len;
        if n_words != expected_words {
            return Err(DecodeError::LengthMismatch {
                declared: expected_words,
                actual: n_words,
            });
        }
        let src = SrcId::from_u8(((w0 >> 4) & 0xF) as u8).ok_or(DecodeError::BadSrcId {
            src: ((w0 >> 4) & 0xF) as u8,
        })?;
        let declared = word(n_words - 1);
        let computed = Self::checksum_of(words().take(n_words - 1));
        if declared != computed {
            return Err(DecodeError::ChecksumMismatch { declared, computed });
        }
        let w1 = word(1);
        Ok(CommandPacket {
            version,
            src,
            dst: (w0 & 0xF) as u8,
            rbb_id: (w1 >> 24) as u8,
            instance_id: ((w1 >> 16) & 0xFF) as u8,
            code: CommandCode::from_u16((w1 & 0xFFFF) as u16),
            options: word(2),
            data: words()
                .skip(usize::from(HEADER_WORDS))
                .take(n_words - usize::from(HEADER_WORDS) - 1)
                .collect(),
        })
    }

    /// Builds the response packet for this request: same routing fields
    /// with the destination set back to the source, carrying `data`.
    pub fn response(&self, data: Vec<u32>) -> CommandPacket {
        CommandPacket {
            version: self.version,
            src: self.src,
            dst: self.src.to_u8(),
            rbb_id: self.rbb_id,
            instance_id: self.instance_id,
            code: self.code,
            options: self.options,
            data,
        }
    }
}

impl fmt::Display for CommandPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cmd[{} rbb={} inst={} from {} +{}w]",
            self.code,
            self.rbb_id,
            self.instance_id,
            self.src,
            self.data.len()
        )
    }
}

/// Malformed-packet errors.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Byte length not a multiple of 4.
    Misaligned {
        /// Actual byte length.
        len: usize,
    },
    /// Fewer words than a minimal packet.
    TooShort {
        /// Actual word count.
        words: usize,
    },
    /// Unknown protocol version.
    BadVersion {
        /// Claimed version.
        version: u8,
    },
    /// Header length field disagrees with this protocol version.
    BadHeaderLen {
        /// Claimed header length.
        hd_len: u8,
    },
    /// Declared total length disagrees with the buffer.
    LengthMismatch {
        /// Declared word count.
        declared: usize,
        /// Actual word count.
        actual: usize,
    },
    /// Unknown source id.
    BadSrcId {
        /// Claimed source id.
        src: u8,
    },
    /// Checksum failure.
    ChecksumMismatch {
        /// Checksum in the packet.
        declared: u32,
        /// Checksum computed over the contents.
        computed: u32,
    },
}

impl DecodeError {
    /// Stable numeric reason code, carried in NACK response payloads so
    /// host software can classify the failure without string parsing.
    pub fn code(&self) -> u32 {
        match self {
            DecodeError::Misaligned { .. } => 1,
            DecodeError::TooShort { .. } => 2,
            DecodeError::BadVersion { .. } => 3,
            DecodeError::BadHeaderLen { .. } => 4,
            DecodeError::LengthMismatch { .. } => 5,
            DecodeError::BadSrcId { .. } => 6,
            DecodeError::ChecksumMismatch { .. } => 7,
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Misaligned { len } => write!(f, "packet length {len} not word-aligned"),
            DecodeError::TooShort { words } => write!(f, "packet of {words} words too short"),
            DecodeError::BadVersion { version } => write!(f, "unsupported version {version}"),
            DecodeError::BadHeaderLen { hd_len } => write!(f, "unexpected header length {hd_len}"),
            DecodeError::LengthMismatch { declared, actual } => {
                write!(f, "declared {declared} words, buffer has {actual}")
            }
            DecodeError::BadSrcId { src } => write!(f, "unknown source id {src}"),
            DecodeError::ChecksumMismatch { declared, computed } => write!(
                f,
                "checksum {declared:#010x} does not match computed {computed:#010x}"
            ),
        }
    }
}

impl Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CommandPacket {
        let mut p = CommandPacket::new(SrcId::Application, 1, 0, CommandCode::TableWrite)
            .with_data(vec![0xAABB, 0xCCDD, 0x1234]);
        p.options = 0x5;
        p
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = sample();
        let decoded = CommandPacket::decode(&p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn empty_payload_round_trip() {
        let p = CommandPacket::new(SrcId::Bmc, 3, 2, CommandCode::ModuleInit);
        assert_eq!(CommandPacket::decode(&p.encode()).unwrap(), p);
        assert_eq!(p.wire_bytes(), 16);
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let mut bytes = sample().encode();
        bytes[9] ^= 0x40;
        assert!(matches!(
            CommandPacket::decode(&bytes),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_packet_detected() {
        let bytes = sample().encode();
        assert!(matches!(
            CommandPacket::decode(&bytes[..bytes.len() - 4]),
            Err(DecodeError::LengthMismatch { .. })
        ));
        assert!(matches!(
            CommandPacket::decode(&bytes[..6]),
            Err(DecodeError::Misaligned { .. })
        ));
        assert!(matches!(
            CommandPacket::decode(&bytes[..8]),
            Err(DecodeError::TooShort { .. })
        ));
    }

    #[test]
    fn version_and_header_validation() {
        let mut bytes = sample().encode();
        bytes[0] = 0x23; // version 2
        assert!(matches!(
            CommandPacket::decode(&bytes),
            Err(DecodeError::BadVersion { version: 2 })
        ));
        let mut bytes = sample().encode();
        bytes[0] = 0x14; // hd_len 4
        assert!(matches!(
            CommandPacket::decode(&bytes),
            Err(DecodeError::BadHeaderLen { hd_len: 4 })
        ));
    }

    #[test]
    fn alignment_fields_in_four_byte_units() {
        let p = sample();
        let bytes = p.encode();
        // PayloadLen = data(3) + checksum(1) = 4 words.
        let w0 = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        assert_eq!((w0 >> 8) & 0xFFFF, 4);
        assert_eq!((w0 >> 24) & 0xF, u32::from(HEADER_WORDS));
    }

    #[test]
    fn response_swaps_direction() {
        let p = sample();
        let r = p.response(vec![7]);
        assert_eq!(r.dst, SrcId::Application.to_u8());
        assert_eq!(r.rbb_id, p.rbb_id);
        assert_eq!(r.data, vec![7]);
        // Response is itself a valid packet.
        assert_eq!(CommandPacket::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    #[should_panic(expected = "exceeds the maximum")]
    fn oversized_payload_rejected() {
        let _ = CommandPacket::new(SrcId::Application, 1, 0, CommandCode::TableWrite)
            .with_data(vec![0; MAX_DATA_WORDS + 1]);
    }

    #[test]
    fn display_mentions_code() {
        assert!(sample().to_string().contains("table-write"));
    }

    #[test]
    fn idempotency_tag_round_trips() {
        let p = sample().with_idempotency_tag(0x42);
        assert_eq!(p.options, IDEMPOTENCY_FLAG | 0x42);
        assert_eq!(p.idempotency_key(), Some(IDEMPOTENCY_FLAG | 0x42));
        assert_eq!(
            CommandPacket::decode(&p.encode())
                .unwrap()
                .idempotency_key(),
            p.idempotency_key()
        );
        assert_eq!(sample().idempotency_key(), None);
    }

    #[test]
    fn decode_error_codes_are_distinct() {
        let errs = [
            DecodeError::Misaligned { len: 1 },
            DecodeError::TooShort { words: 0 },
            DecodeError::BadVersion { version: 9 },
            DecodeError::BadHeaderLen { hd_len: 9 },
            DecodeError::LengthMismatch {
                declared: 1,
                actual: 2,
            },
            DecodeError::BadSrcId { src: 0 },
            DecodeError::ChecksumMismatch {
                declared: 0,
                computed: 1,
            },
        ];
        let mut codes: Vec<u32> = errs.iter().map(DecodeError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len());
    }
}
