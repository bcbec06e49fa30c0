//! Property tests for the packet wire codec: every encodable payload must
//! survive `encode_wire` → `PacketRegistry::decode` bit-for-bit (including
//! empty and multi-MiB bodies), and corrupted buffers must be rejected with
//! an error, never a panic or a wrong value.

use proptest::collection::vec;
use proptest::prelude::*;
use pulsar_runtime::{Packet, PacketRegistry, WireError};

/// Mirror of the codec's checksum (FNV-1a over the body, mixed with the
/// tag) so tests can hand-build valid `[tag][crc][body]` frames.
fn checksum(tag: u32, body: &[u8]) -> u32 {
    pulsar_fabric::fnv1a(body) ^ tag.wrapping_mul(0x9e37_79b9)
}

/// Build a wire buffer with a correct checksum for an arbitrary tag/body.
fn framed(tag: u32, body: &[u8]) -> Vec<u8> {
    let mut buf = tag.to_le_bytes().to_vec();
    buf.extend_from_slice(&checksum(tag, body).to_le_bytes());
    buf.extend_from_slice(body);
    buf
}

fn roundtrip(reg: &PacketRegistry, p: &Packet) -> Packet {
    let buf = p.encode_wire().expect("encodable");
    let back = reg.decode(&buf).expect("decodable");
    assert_eq!(back.bytes(), p.bytes(), "wire size must survive the trip");
    back
}

proptest! {
    #[test]
    fn bytes_roundtrip(data in vec(any::<u8>(), 0..512)) {
        let reg = PacketRegistry::standard();
        let back = roundtrip(&reg, &Packet::wire(data.clone()));
        prop_assert_eq!(back.get::<Vec<u8>>().unwrap(), &data);
    }

    #[test]
    fn scalars_roundtrip(i in any::<i64>(), bits in any::<u64>()) {
        let reg = PacketRegistry::standard();
        prop_assert_eq!(roundtrip(&reg, &Packet::wire(i)).take::<i64>(), i);
        // Drive f64 through its bit pattern so NaNs and infinities are
        // covered; compare bits, not values.
        let f = f64::from_bits(bits);
        let back = roundtrip(&reg, &Packet::wire(f)).take::<f64>();
        prop_assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn matrices_roundtrip(
        (m, n, data) in (0usize..6, 0usize..6).prop_flat_map(|(m, n)| {
            vec(-1.0f64..1.0, m * n..m * n + 1).prop_map(move |d| (m, n, d))
        })
    ) {
        let reg = PacketRegistry::standard();
        let t = pulsar_linalg::Matrix::from_col_major(m, n, data);
        let back = roundtrip(&reg, &Packet::tile(t.clone()));
        prop_assert_eq!(back.as_tile().unwrap(), &t);
    }

    #[test]
    fn unknown_tags_are_rejected(tag in 100u32..=u32::MAX, data in vec(any::<u8>(), 0..64)) {
        let reg = PacketRegistry::standard();
        // The checksum is valid, so the failure is attributed to the tag.
        let buf = framed(tag, &data);
        prop_assert_eq!(reg.decode(&buf).err(), Some(WireError::UnknownTag(tag)));
    }

    #[test]
    fn truncated_buffers_are_rejected(cut in 0usize..100) {
        // A valid 3x4 matrix buffer cut anywhere short of its full length
        // must decode to an error, never to a (smaller) matrix.
        let reg = PacketRegistry::standard();
        let t = pulsar_linalg::Matrix::from_fn(3, 4, |i, j| (i + 10 * j) as f64);
        let buf = Packet::tile(t).encode_wire().unwrap();
        let cut = cut % buf.len();
        prop_assert!(reg.decode(&buf[..cut]).is_err());
    }

    #[test]
    fn flipped_bytes_are_always_detected(pos in 0usize..120, flip in 1u8..=255) {
        // Arbitrary single-byte corruption anywhere in the frame — tag,
        // checksum, or body — must surface as a typed error, never a panic
        // and never a silently different matrix. (FNV-1a detects every
        // single-byte flip: each mixing step is injective.)
        let reg = PacketRegistry::standard();
        let t = pulsar_linalg::Matrix::from_fn(3, 4, |i, j| (i + 10 * j) as f64);
        let mut buf = Packet::tile(t).encode_wire().unwrap();
        let pos = pos % buf.len();
        buf[pos] ^= flip;
        prop_assert!(reg.decode(&buf).is_err(), "corruption at byte {} went undetected", pos);
    }
}

#[test]
fn zero_byte_payload_roundtrips() {
    let reg = PacketRegistry::standard();
    let p = Packet::wire(Vec::<u8>::new());
    assert_eq!(p.bytes(), 0);
    let back = roundtrip(&reg, &p);
    assert!(back.get::<Vec<u8>>().unwrap().is_empty());

    let empty = pulsar_linalg::Matrix::zeros(0, 0);
    let back = roundtrip(&reg, &Packet::tile(empty.clone()));
    assert_eq!(back.as_tile().unwrap(), &empty);
}

#[test]
fn multi_mib_payloads_roundtrip() {
    let reg = PacketRegistry::standard();
    // > 1 MiB of bytes, not a multiple of anything convenient.
    let data: Vec<u8> = (0..(1 << 20) + 7).map(|i| (i * 131) as u8).collect();
    let back = roundtrip(&reg, &Packet::wire(data.clone()));
    assert_eq!(back.get::<Vec<u8>>().unwrap(), &data);

    // A 2 MiB matrix tile (512 x 512 f64).
    let t = pulsar_linalg::Matrix::from_fn(512, 512, |i, j| (i as f64) - 0.25 * j as f64);
    let p = Packet::tile(t.clone());
    assert_eq!(p.bytes(), 2 << 20);
    let back = roundtrip(&reg, &p);
    assert_eq!(back.as_tile().unwrap(), &t);
}

#[test]
fn huge_dimension_header_is_rejected_without_allocating() {
    // A malicious header claiming usize::MAX elements must fail cleanly
    // (overflow check), not attempt a giant allocation.
    let reg = PacketRegistry::standard();
    let mut body = u64::MAX.to_le_bytes().to_vec();
    body.extend_from_slice(&u64::MAX.to_le_bytes());
    body.extend_from_slice(&[0u8; 64]);
    // Checksum must be valid so decoding reaches the dimension check.
    let buf = framed(1, &body);
    assert_eq!(
        reg.decode(&buf).err(),
        Some(WireError::Malformed("matrix dimensions overflow"))
    );
}
