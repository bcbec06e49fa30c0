//! Property tests for the TCP frame header codec: arbitrary headers
//! roundtrip exactly, and corrupted headers are rejected rather than
//! misparsed.

use proptest::prelude::*;
use pulsar_fabric::frame::{
    decode_header, encode_header, FrameError, FrameHeader, FrameKind, HEADER_LEN, MAX_BODY,
};

fn header_strategy() -> BoxedStrategy<FrameHeader> {
    let data = (
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        0u64..=MAX_BODY as u64,
        any::<bool>(),
    )
        .prop_map(|(wire_id, seq, ack, len, crc32c)| FrameHeader {
            kind: if crc32c {
                FrameKind::DataCrc32c { wire_id }
            } else {
                FrameKind::Data { wire_id }
            },
            seq,
            ack,
            len,
        });
    let barrier = (any::<u64>(), any::<u64>()).prop_map(|(seq, ack)| FrameHeader {
        kind: FrameKind::Barrier,
        seq,
        ack,
        len: 8,
    });
    let ack_frame = any::<u64>().prop_map(|ack| FrameHeader {
        kind: FrameKind::Ack,
        seq: 0,
        ack,
        len: 0,
    });
    prop_oneof![data, barrier, ack_frame].boxed()
}

proptest! {
    #[test]
    fn header_roundtrips(h in header_strategy()) {
        let encoded = encode_header(&h);
        prop_assert_eq!(encoded.len(), HEADER_LEN);
        prop_assert_eq!(decode_header(&encoded), Ok(h));
    }

    #[test]
    fn corrupt_magic_is_rejected(h in header_strategy(), pos in 0usize..4, flip in 1u8..=255) {
        let mut b = encode_header(&h);
        b[pos] ^= flip;
        prop_assert!(matches!(decode_header(&b), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn unknown_kind_is_rejected(h in header_strategy(), kind in 6u8..=255) {
        let mut b = encode_header(&h);
        b[4] = kind;
        prop_assert_eq!(decode_header(&b), Err(FrameError::BadKind(kind)));
    }

    #[test]
    fn control_kind_with_body_is_rejected(h in header_strategy(), kind in 2u8..=4) {
        // Heartbeat/abort/ack frames must have empty bodies; grafting the
        // control kind onto a header that declares one is malformed.
        let mut b = encode_header(&h);
        b[4] = kind;
        if h.len != 0 {
            prop_assert_eq!(
                decode_header(&b),
                Err(FrameError::BadControlLen { kind, len: h.len })
            );
        } else {
            prop_assert!(decode_header(&b).is_ok());
        }
    }

    #[test]
    fn random_byte_prefixes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2 * HEADER_LEN + 1)) {
        // The decoder sees raw socket bytes; any prefix must yield a
        // typed verdict, never a panic. A successful parse implies a
        // complete header was present.
        if let Ok(h) = decode_header(&bytes) {
            prop_assert!(bytes.len() >= HEADER_LEN);
            prop_assert!(h.len <= MAX_BODY as u64);
        }
    }

    #[test]
    fn magic_prefixes_shorter_than_header_are_truncated(h in header_strategy(), cut in 0usize..HEADER_LEN) {
        let b = encode_header(&h);
        prop_assert_eq!(
            decode_header(&b[..cut]),
            Err(FrameError::Truncated { have: cut })
        );
    }

    #[test]
    fn oversized_body_is_rejected(h in header_strategy(), over in 1u64..=1 << 20) {
        let mut b = encode_header(&h);
        b[25..33].copy_from_slice(&(MAX_BODY as u64 + over).to_le_bytes());
        prop_assert!(matches!(decode_header(&b), Err(FrameError::Oversized(_))));
    }
}
