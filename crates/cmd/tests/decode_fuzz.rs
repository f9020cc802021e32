//! Decode-hardening fuzz campaign: `CommandPacket::decode` and the
//! kernel's NACK path must classify arbitrary hostile bytes as a typed
//! [`DecodeError`] — never panic, never silently accept garbage. This is
//! the software side of the fault plane's `CmdCorrupt` contract.

use harmonia_cmd::{CommandCode, CommandPacket, DecodeError, SrcId, UnifiedControlKernel};
use harmonia_testkit::prelude::*;

fn arb_src() -> impl Strategy<Value = SrcId> {
    prop_oneof![
        Just(SrcId::Application),
        Just(SrcId::Bmc),
        Just(SrcId::CtrlTool)
    ]
}

fn arb_packet() -> impl Strategy<Value = CommandPacket> {
    (
        arb_src(),
        any::<u8>(),
        any::<u8>(),
        any::<u16>(),
        any::<u32>(),
        collection::vec(any::<u32>(), 0..32),
    )
        .prop_map(|(src, rbb, inst, code, options, data)| {
            let mut p =
                CommandPacket::new(src, rbb, inst, CommandCode::from_u16(code)).with_data(data);
            p.options = options;
            p
        })
}

forall! {
    /// Completely arbitrary byte soup: decode returns a typed error or a
    /// packet whose re-encoding is decodable — it never panics.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..256)) {
        match CommandPacket::decode(&bytes) {
            Err(_) => {}
            Ok(p) => {
                // Anything accepted must be internally consistent.
                prop_assert_eq!(CommandPacket::decode(&p.encode()).unwrap(), p);
            }
        }
    }

    /// Single-byte overwrite of a valid packet (the fault plane's
    /// `CmdCorrupt` model) is always rejected: the folding checksum
    /// changes under any delta smaller than 2^32 - 1, and the header
    /// validators catch what the checksum can't.
    #[test]
    fn byte_overwrite_always_rejected(
        p in arb_packet(),
        pos in 0usize..2048,
        val in any::<u8>(),
    ) {
        let mut bytes = p.encode();
        let pos = pos % bytes.len();
        if bytes[pos] != val {
            bytes[pos] = val;
            prop_assert!(CommandPacket::decode(&bytes).is_err());
        }
    }

    /// Every prefix and every word-misaligned slice of a valid packet is
    /// rejected with a typed error.
    #[test]
    fn prefixes_and_misalignments_rejected(p in arb_packet(), cut in 1usize..4096) {
        let bytes = p.encode();
        let cut = cut % bytes.len();
        if cut > 0 {
            let sliced = &bytes[..bytes.len() - cut];
            let err = CommandPacket::decode(sliced).unwrap_err();
            if !sliced.len().is_multiple_of(4) {
                prop_assert!(matches!(err, DecodeError::Misaligned { .. }));
            }
        }
    }

    /// Declared-length lies (PayloadLen field rewritten, checksum fixed
    /// up to match) are caught by the length validator even though the
    /// checksum is now consistent.
    #[test]
    fn length_lies_rejected(p in arb_packet(), lie in 0u32..0xFFFF) {
        let mut words: Vec<u32> = p.encode()
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let true_payload = (words[0] >> 8) & 0xFFFF;
        if lie != true_payload {
            words[0] = (words[0] & 0xFF00_00FF) | (lie << 8);
            let n = words.len();
            // Recompute the checksum so only the length lie remains.
            let mut sum: u64 = words[..n - 1].iter().map(|w| u64::from(*w)).sum();
            while sum >> 32 != 0 {
                sum = (sum & 0xFFFF_FFFF) + (sum >> 32);
            }
            words[n - 1] = !(sum as u32);
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
            prop_assert!(matches!(
                CommandPacket::decode(&bytes),
                Err(DecodeError::LengthMismatch { .. })
            ));
        }
    }

    /// The kernel's drop/corrupt-aware ingest turns every undecodable
    /// buffer into a NACK response carrying the decode reason — the
    /// control plane survives a corrupted wire without panicking.
    #[test]
    fn kernel_nacks_hostile_bytes(
        bytes in collection::vec(any::<u8>(), 0..128),
        src in arb_src(),
    ) {
        let mut k = UnifiedControlKernel::new(8);
        match CommandPacket::decode(&bytes) {
            Err(e) => {
                let nack = k.submit_bytes_or_nack(&bytes, src).unwrap()
                    .expect("undecodable bytes must NACK");
                prop_assert_eq!(nack.code, CommandCode::Nack);
                prop_assert_eq!(nack.dst, src.to_u8());
                prop_assert_eq!(nack.data, vec![e.code()]);
                prop_assert_eq!(k.decode_errors(), 1);
            }
            Ok(_) => {
                prop_assert_eq!(k.submit_bytes_or_nack(&bytes, src).unwrap(), None);
                prop_assert_eq!(k.pending(), 1);
            }
        }
    }
}
