//! Property tests for the per-rank checkpoint encoding: arbitrary VDP
//! entries (local stores, FIFO contents, destroyed channels, 0-packet and
//! multi-MiB payloads) must survive `encode` → `decode` exactly, and a
//! truncated or bit-flipped checkpoint file must yield a typed
//! [`CheckpointError`] — never a panic or a silently wrong restore.
//!
//! `CKPT_FUZZ=1` widens the corruption sweep (`scripts/check.sh` knob).

use proptest::collection::vec;
use proptest::prelude::*;
use pulsar_runtime::checkpoint::{
    self, ExitEntry, RankCheckpoint, SlotEntry, VdpEntry, HEADER_LEN,
};
use pulsar_runtime::{ChannelState, CheckpointError, Packet, PacketRegistry, Tuple};

fn fuzz_cases(base: u32) -> ProptestConfig {
    let widen = std::env::var("CKPT_FUZZ").is_ok_and(|v| v != "0");
    ProptestConfig::with_cases(if widen { base * 8 } else { base })
}

fn packet_strategy() -> BoxedStrategy<Packet> {
    prop_oneof![
        any::<i64>().prop_map(Packet::wire),
        vec(any::<u8>(), 0..200).prop_map(Packet::wire),
        any::<u64>().prop_map(|bits| Packet::wire(f64::from_bits(bits))),
    ]
    .boxed()
}

fn slot_strategy() -> BoxedStrategy<Option<SlotEntry>> {
    let state = prop_oneof![
        Just(ChannelState::Enabled),
        Just(ChannelState::Disabled),
        Just(ChannelState::Destroyed),
    ];
    (any::<bool>(), state, vec(packet_strategy(), 0..4))
        .prop_map(|(present, state, packets)| present.then_some(SlotEntry { state, packets }))
        .boxed()
}

fn vdp_strategy() -> BoxedStrategy<VdpEntry> {
    (
        vec(any::<i32>(), 1..4),
        1u32..6,
        vec(any::<u8>(), 0..64),
        vec(slot_strategy(), 0..4),
        any::<u32>(),
    )
        .prop_map(|(ids, counter, logic, slots, fired_seed)| VdpEntry {
            tuple: Tuple::new(ids),
            counter,
            fired: fired_seed % (counter + 1),
            logic,
            slots,
        })
        .boxed()
}

fn checkpoint_strategy() -> BoxedStrategy<RankCheckpoint> {
    (
        0usize..4,
        1usize..5,
        any::<u64>(),
        vec(vdp_strategy(), 0..5),
        vec(
            (
                vec(any::<i32>(), 1..3),
                0usize..3,
                vec(packet_strategy(), 0..3),
            ),
            0..3,
        ),
    )
        .prop_map(|(rank, extra, epoch, vdps, exits)| RankCheckpoint {
            rank,
            nodes: rank + extra,
            epoch,
            vdps,
            exits: exits
                .into_iter()
                .map(|(ids, slot, packets)| ExitEntry {
                    tuple: Tuple::new(ids),
                    slot,
                    packets,
                })
                .collect(),
        })
        .boxed()
}

/// Packets have no `PartialEq`; equality of two checkpoints is asserted
/// through their canonical encodings (the codec is deterministic).
fn assert_same(a: &RankCheckpoint, b: &RankCheckpoint) {
    assert_eq!(
        checkpoint::encode(a).unwrap(),
        checkpoint::encode(b).unwrap()
    );
}

proptest! {
    #![proptest_config(fuzz_cases(64))]

    #[test]
    fn arbitrary_checkpoints_roundtrip(ck in checkpoint_strategy()) {
        let reg = PacketRegistry::standard();
        let bytes = checkpoint::encode(&ck).unwrap();
        let back = checkpoint::decode(&bytes, &reg).unwrap();
        assert_same(&ck, &back);
    }

    #[test]
    fn truncation_is_typed(ck in checkpoint_strategy(), frac in 0.0f64..1.0) {
        let reg = PacketRegistry::standard();
        let bytes = checkpoint::encode(&ck).unwrap();
        let cut = (bytes.len() as f64 * frac) as usize;
        // Any strict prefix must be rejected, never mis-parsed.
        prop_assert!(checkpoint::decode(&bytes[..cut.min(bytes.len() - 1)], &reg).is_err());
    }

    #[test]
    fn bit_flips_are_typed(
        ck in checkpoint_strategy(),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let reg = PacketRegistry::standard();
        let mut bytes = checkpoint::encode(&ck).unwrap();
        let pos = pos_seed % bytes.len();
        // The rank/nodes/epoch words (header bytes 8..24) are not
        // self-checked by `decode` — they are validated against the run
        // (and the file name) at restore time — so flip anywhere else:
        // magic, version, body length, checksum, or the body itself.
        if !(8..24).contains(&pos) {
            bytes[pos] ^= 1 << bit;
            prop_assert!(checkpoint::decode(&bytes, &reg).is_err());
        }
    }

    #[test]
    fn random_garbage_never_panics(bytes in vec(any::<u8>(), 0..256)) {
        let reg = PacketRegistry::standard();
        let _ = checkpoint::decode(&bytes, &reg);
    }
}

/// A >1 MiB queued payload survives the file round-trip bit-for-bit.
#[test]
fn multi_mib_payloads_roundtrip() {
    let payload: Vec<u8> = (0..(1 << 20) + 4097u32)
        .map(|i| (i * 31 + 7) as u8)
        .collect();
    let ck = RankCheckpoint {
        rank: 0,
        nodes: 1,
        epoch: 3,
        vdps: vec![VdpEntry {
            tuple: Tuple::new2(1, 2),
            counter: 4,
            fired: 1,
            logic: vec![9; 17],
            slots: vec![Some(SlotEntry {
                state: ChannelState::Enabled,
                packets: vec![Packet::wire(payload.clone())],
            })],
        }],
        exits: vec![],
    };
    let dir = std::env::temp_dir().join(format!("pulsar-ckpt-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let written = checkpoint::write_rank_checkpoint(&dir, &ck).unwrap();
    assert!(written > 1 << 20, "file smaller than its payload");
    let reg = PacketRegistry::standard();
    let back = checkpoint::load_rank(&dir, 0, 3, &reg).unwrap();
    let got = back.vdps[0].slots[0].as_ref().unwrap().packets[0]
        .get::<Vec<u8>>()
        .unwrap();
    assert_eq!(got, &payload);
    std::fs::remove_dir_all(&dir).ok();
}

/// An empty checkpoint (no VDPs, no exits, no packets) is valid too.
#[test]
fn zero_packet_checkpoint_roundtrips() {
    let ck = RankCheckpoint {
        rank: 2,
        nodes: 3,
        epoch: 0,
        vdps: vec![],
        exits: vec![],
    };
    let bytes = checkpoint::encode(&ck).unwrap();
    assert_eq!(bytes.len(), HEADER_LEN + 16, "header + two zero counts");
    let back = checkpoint::decode(&bytes, &PacketRegistry::standard()).unwrap();
    assert_eq!((back.rank, back.nodes, back.epoch), (2, 3, 0));
    assert!(back.vdps.is_empty() && back.exits.is_empty());
}

/// A packet built with `Packet::new` (no wire codec) cannot be written —
/// the error is typed, not a panic or a corrupt file.
#[test]
fn unencodable_payload_is_typed() {
    struct Opaque;
    let ck = RankCheckpoint {
        rank: 0,
        nodes: 1,
        epoch: 1,
        vdps: vec![VdpEntry {
            tuple: Tuple::new1(0),
            counter: 1,
            fired: 0,
            logic: vec![],
            slots: vec![Some(SlotEntry {
                state: ChannelState::Enabled,
                packets: vec![Packet::new(Opaque, 8)],
            })],
        }],
        exits: vec![],
    };
    assert_eq!(
        checkpoint::encode(&ck).unwrap_err(),
        CheckpointError::NotEncodable
    );
}

/// A live queue survives snapshot -> file -> restore with its FIFO intact
/// when it holds more than the one packet that fits its inline slot: the
/// epoch-0 snapshot of a four-fire VDP seeded with four packets records
/// all four in order (and its unwired slot as absent); a resume from a
/// checkpoint whose queue was rewritten to other contents — again one
/// inline plus a spill — plays exactly those back, after the exit packets
/// the checkpoint already carried.
#[test]
fn queue_with_spilled_packets_survives_snapshot_and_restore() {
    use pulsar_runtime::{ChannelSpec, RunConfig, VdpContext, VdpSpec, Vsa};

    let dir = std::env::temp_dir().join(format!("pulsar-ckpt-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let build = || {
        let mut vsa = Vsa::new();
        vsa.add_vdp(VdpSpec::new(
            Tuple::new1(0),
            4,
            2,
            1,
            |ctx: &mut VdpContext| {
                let x: i64 = ctx.pop(0).take();
                ctx.push(0, Packet::wire(x + 1));
            },
        ));
        vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 0, Tuple::new1(9), 0));
        for x in [10i64, 20, 30, 40] {
            vsa.seed(Tuple::new1(0), 0, Packet::wire(x));
        }
        vsa
    };
    let exits = |out: &mut pulsar_runtime::RunOutput| -> Vec<i64> {
        out.take_exit(Tuple::new1(9), 0)
            .into_iter()
            .map(|p| p.take::<i64>())
            .collect()
    };
    let config = RunConfig::smp(1).with_checkpoints(&dir, None);

    let mut out = build().run(&config).expect("fresh run");
    assert_eq!(exits(&mut out), vec![11, 21, 31, 41]);
    assert_eq!(out.stats.checkpoints_written, 1);

    let reg = PacketRegistry::standard();
    let mut ck = checkpoint::load_rank(&dir, 0, 0, &reg).expect("epoch-0 snapshot");
    assert_eq!(ck.vdps.len(), 1);
    let slots = &mut ck.vdps[0].slots;
    assert!(slots[1].is_none(), "nothing feeds slot 1");
    let queued = slots[0].as_mut().expect("seeded slot");
    assert_eq!(queued.state, ChannelState::Enabled);
    let values: Vec<i64> = queued.packets.iter().map(|p| *p.get().unwrap()).collect();
    assert_eq!(values, vec![10, 20, 30, 40]);

    // Rewrite the cut: one firing done (its result already exited), three
    // other packets queued.
    queued.packets = [7i64, 8, 9].map(Packet::wire).to_vec();
    ck.vdps[0].fired = 1;
    ck.exits.push(ExitEntry {
        tuple: Tuple::new1(9),
        slot: 0,
        packets: vec![Packet::wire(-1i64)],
    });
    ck.epoch = 1;
    checkpoint::write_rank_checkpoint(&dir, &ck).expect("rewritten cut");

    let mut out = build()
        .run(&config.clone().resuming())
        .expect("resumed run");
    assert_eq!(exits(&mut out), vec![-1, 8, 9, 10]);
    assert_eq!(out.stats.fired, 3);
    assert_eq!(
        out.stats.peak_channel_depth, 4,
        "the seeds, before the restore"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
