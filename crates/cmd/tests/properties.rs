//! Property-based tests for the command packet codec: the Figure 9 format
//! must survive arbitrary field values and detect arbitrary corruption.

use harmonia_cmd::{CommandCode, CommandPacket, SrcId};
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
        collection::vec(any::<u32>(), 0..64),
    )
        .prop_map(|(src, rbb, inst, code, options, data)| {
            let mut p =
                CommandPacket::new(src, rbb, inst, CommandCode::from_u16(code)).with_data(data);
            p.options = options;
            p
        })
}

forall! {
    /// Encode → decode is the identity for every well-formed packet.
    #[test]
    fn codec_round_trip(p in arb_packet()) {
        let bytes = p.encode();
        prop_assert_eq!(bytes.len(), p.wire_bytes());
        prop_assert_eq!(CommandPacket::decode(&bytes).unwrap(), p);
    }

    /// Responses are themselves valid packets that carry routing back.
    #[test]
    fn response_round_trip(p in arb_packet(), data in collection::vec(any::<u32>(), 0..16)) {
        let r = p.response(data.clone());
        prop_assert_eq!(r.dst, p.src.to_u8());
        prop_assert_eq!(&r.data, &data);
        prop_assert_eq!(CommandPacket::decode(&r.encode()).unwrap(), r);
    }

    /// Any single bit flip anywhere in the packet is detected (the 32-bit
    /// folded checksum catches all single-bit errors) — except in the four
    /// header nibbles whose validation rejects the packet for structural
    /// reasons first.
    #[test]
    fn single_bit_corruption_detected(p in arb_packet(), bit in 0usize..128) {
        let mut bytes = p.encode();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        match CommandPacket::decode(&bytes) {
            Err(_) => {} // detected: checksum or structural validation
            Ok(decoded) => {
                // The only way decode can still succeed is if the flip and
                // the checksum cancel — impossible for a single flip.
                prop_assert_eq!(decoded, p, "silent corruption");
                prop_assert!(false, "single-bit flip went undetected");
            }
        }
    }

    /// Truncations never decode successfully.
    #[test]
    fn truncation_detected(p in arb_packet(), cut in 1usize..32) {
        let bytes = p.encode();
        let cut = cut.min(bytes.len() - 1);
        prop_assert!(CommandPacket::decode(&bytes[..bytes.len() - cut]).is_err());
    }

    /// Concatenating two packets does not decode as one.
    #[test]
    fn concatenation_detected(a in arb_packet(), b in arb_packet()) {
        let mut bytes = a.encode();
        bytes.extend(b.encode());
        prop_assert!(CommandPacket::decode(&bytes).is_err());
    }

    /// Command codes round-trip through the 16-bit wire encoding.
    #[test]
    fn code_round_trip(v in any::<u16>()) {
        prop_assert_eq!(CommandCode::from_u16(v).to_u16(), v);
    }
}
