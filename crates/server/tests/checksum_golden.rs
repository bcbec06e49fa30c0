//! Golden vectors for the checksummed byte formats built on the one
//! FNV-1a (`pulsar_fabric::fnv1a`): runtime packets, checkpoint files, the
//! factor store's WAL records and snapshot, and v1 service frames — and on
//! the one CRC32C (`pulsar_fabric::crc32c`): v2 service frames. Each
//! format mixes its own tag/verb/handle on top of the shared hash; the
//! FNV-1a values were produced by the four hand-written copies that hash
//! replaced, so a change here is a wire or disk format break.

use pulsar_core::{PanelOp, Reflectors, TileQrFactors};
use pulsar_fabric::frame::{encode_header, FrameHeader, FrameKind};
use pulsar_fabric::{crc32c, fnv1a};
use pulsar_linalg::Matrix;
use pulsar_runtime::checkpoint::{self, RankCheckpoint, SlotEntry, VdpEntry};
use pulsar_runtime::{ChannelState, Packet, Tuple};
use pulsar_server::{decode_msg, encode_msg, FactorHandle, FactorStore, Msg};
use std::sync::Arc;

fn tile() -> Matrix {
    Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64 - 0.5)
}

fn crc_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

#[test]
fn the_four_checksums_are_pinned() {
    // The hash itself: the published FNV-1a test vectors.
    assert_eq!(fnv1a(b""), 0x811c_9dc5);
    assert_eq!(fnv1a(b"a"), 0xe40c_292c);
    assert_eq!(fnv1a(b"foobar"), 0xbf9c_f968);

    // Runtime packet: `[tag u32][crc u32][body]`, crc mixed with the tag.
    let wire = Packet::tile(tile())
        .encode_wire()
        .expect("tiles are encodable");
    assert_eq!(crc_at(&wire, 4), 0x8a01_8394, "packet body checksum");

    // Checkpoint file: the body checksum closes the 36-byte header.
    let ck = RankCheckpoint {
        rank: 1,
        nodes: 3,
        epoch: 7,
        vdps: vec![VdpEntry {
            tuple: Tuple::new3(0, 2, 1),
            counter: 4,
            fired: 1,
            logic: vec![1, 2, 3],
            slots: vec![
                None,
                Some(SlotEntry {
                    state: ChannelState::Enabled,
                    packets: vec![Packet::tile(tile())],
                }),
            ],
        }],
        exits: Vec::new(),
    };
    let file = checkpoint::encode(&ck).expect("encodable checkpoint");
    assert_eq!(crc_at(&file, 32), 0x0496_5a71, "checkpoint body checksum");

    // Factor store: a WAL insert record (8-byte file header, then
    // `[kind u8][handle u64][len u64][crc u32]`, crc mixed with kind and
    // handle) and the snapshot (`[magic][version u32][len u64][crc u32]`).
    let factors = TileQrFactors {
        m: 4,
        n: 2,
        nb: 2,
        ib: 1,
        r: Matrix::from_fn(
            2,
            2,
            |i, j| if i <= j { (1 + i + 2 * j) as f64 } else { 0.0 },
        ),
        panels: vec![vec![Reflectors {
            op: PanelOp::Tsqrt { head: 0, row: 1 },
            v: tile(),
            t: Matrix::from_fn(1, 2, |_, j| 0.25 * (j + 1) as f64),
        }]],
    };
    let dir = std::env::temp_dir().join(format!("pulsar-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) = FactorStore::recover(1 << 20, &dir).expect("fresh store dir");
    store
        .insert(
            FactorHandle::from_raw(0x0123_4567_89ab_cdef),
            Arc::new(factors),
        )
        .expect("fits the budget");
    let wal = std::fs::read(dir.join("factors.wal")).expect("wal written");
    assert_eq!(crc_at(&wal, 8 + 17), 0xf238_4394, "WAL record checksum");
    store.compact_log().expect("snapshot written");
    let snap = std::fs::read(dir.join("factors.snap")).expect("snapshot written");
    assert_eq!(crc_at(&snap, 16), 0x0ea0_9a36, "snapshot checksum");
    let _ = std::fs::remove_dir_all(&dir);

    // v1 service frame, built by hand as older peers write it: 33-byte
    // fabric header of kind `Data`, then `[crc u32][payload]`, crc mixed
    // with the verb and the request id. It must still decode.
    let (msg, seq) = (Msg::Cancel { job: 42 }, 0x0000_0001_0000_0007);
    let payload = 42u64.to_le_bytes();
    let crc = fnv1a(&payload) ^ msg.verb().wrapping_mul(0x9e37_79b9) ^ 7 ^ 1;
    let mut v1 = encode_header(&FrameHeader {
        kind: FrameKind::Data {
            wire_id: msg.verb(),
        },
        seq,
        ack: 0,
        len: 12,
    })
    .to_vec();
    v1.extend_from_slice(&crc.to_le_bytes());
    v1.extend_from_slice(&payload);
    assert_eq!(crc_at(&v1, 33), 0x1c60_c101, "v1 service frame checksum");
    assert_eq!(decode_msg(&v1), Ok((msg.clone(), seq)));

    // v2 service frame: the same layout under kind 5, checked with CRC32C.
    let v2 = encode_msg(&msg, seq);
    assert_eq!(v2[4], 5, "v2 frame kind");
    assert_eq!(v2[33 + 4..], payload, "same payload as v1");
    assert_eq!(crc_at(&v2, 33), 0xa0d0_e449, "v2 service frame checksum");
}

#[test]
fn the_crc32c_check_value_is_pinned() {
    assert_eq!(crc32c(b""), 0);
    assert_eq!(crc32c(b"123456789"), 0xe306_9283);
}
